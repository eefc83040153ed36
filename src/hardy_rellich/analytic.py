"""Analytic test functions with exact derivative closures.

The ratio functionals involve n-th derivatives squared; computing those by
finite differences is hopeless, so every acceptance-critical quantity is
evaluated through closed-form derivative closures carried by the function
object itself.  The workhorse class is :class:`PowerExp`, sums

    f(x) = sum_i  c_i * x^(p_i) * exp(-rate * x),

which are closed under differentiation and cover monomials, polynomials,
Gamma-class functions x^(k+1/2) e^(-cx), and the random polynomial-times-
exponential test functions used by the property suites.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AnalyticFunction",
    "PowerExp",
    "LogGaussian",
    "Reflected",
    "monomial",
    "gamma_class",
    "polynomial_times_exp",
    "zero_function",
    "consistency_check",
]


class AnalyticFunction:
    """A scalar function with derivative closures up to a stated order.

    Attributes
    ----------
    order:
        Highest derivative order available (math.inf when unlimited).
    vanishing_order:
        Power of the leading behaviour at 0 (f ~ c x^v); admissibility for
        the n-th inequality requires v > n - 1/2.
    decay:
        Free-form tag describing behaviour at infinity ("exp", "power",
        "compact"); used for heuristic warnings only.
    """

    order = math.inf
    vanishing_order = 0.0
    decay = "unknown"

    def deriv(self, j: int) -> Callable:
        """Return the j-th derivative as a vectorized callable."""
        raise NotImplementedError

    def __call__(self, x):
        return self.deriv(0)(x)


class PowerExp(AnalyticFunction):
    """sum_i c_i x^(p_i) exp(-rate x); closed under d/dx, any order available.

    Coefficients may be complex; powers may be any reals.  Terms with
    coefficient 0 are dropped, so differentiating x^0 terminates cleanly.
    """

    def __init__(self, terms: Sequence, rate: float = 0.0):
        # terms: iterable of (coef, power)
        merged = {}
        for c, p in terms:
            if c != 0:
                merged[p] = merged.get(p, 0) + c
        self.terms = tuple(sorted((p, c) for p, c in merged.items() if c != 0))
        self.rate = float(rate)
        self.vanishing_order = min((p for p, _ in self.terms), default=math.inf)
        self.decay = "exp" if self.rate > 0 else (
            "power" if self.terms else "compact")
        self._deriv_cache = {0: self}

    def _differentiate_once(self) -> "PowerExp":
        new = []
        for p, c in self.terms:
            if p != 0:
                new.append((c * p, p - 1))
            if self.rate != 0.0:
                new.append((-c * self.rate, p))
        return PowerExp(new, self.rate)

    def deriv(self, j: int) -> Callable:
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        top = max(self._deriv_cache)
        while top < j:
            self._deriv_cache[top + 1] = self._deriv_cache[top]._differentiate_once()
            top += 1
        return self._deriv_cache[j]._evaluate

    def _evaluate(self, x):
        x = np.asarray(x, dtype=float)
        complex_coeffs = any(isinstance(c, complex) for _, c in self.terms)
        out = np.zeros(x.shape, dtype=complex if complex_coeffs else float)
        for p, c in self.terms:
            if p == 0:
                out += c
            elif p == int(p) and p > 0:
                out += c * x ** int(p)
            else:
                # fractional or negative power: undefined at x = 0, take the limit
                with np.errstate(divide="ignore", invalid="ignore"):
                    term = c * np.power(x, p)
                out += np.where(x > 0, term, 0.0 if p > 0 else np.nan)
        if self.rate != 0.0:
            out = out * np.exp(-self.rate * x)
        return out if out.shape else out[()]

    def __add__(self, other: "PowerExp") -> "PowerExp":
        if not isinstance(other, PowerExp) or other.rate != self.rate:
            return NotImplemented
        return PowerExp([(c, p) for p, c in self.terms] + [(c, p) for p, c in other.terms],
                        self.rate)

    def __rmul__(self, scalar) -> "PowerExp":
        return PowerExp([(scalar * c, p) for p, c in self.terms], self.rate)


class LogGaussian(AnalyticFunction):
    """x^power * exp(-(ln x - mu)^2 / (2 s^2)): a smooth bump in u = ln x.

    Carries two derivative closures, which is all the spectral checks need.
    """

    order = 2

    def __init__(self, mu: float = 0.0, s: float = 1.0, power: float = 0.0):
        self.mu = float(mu)
        self.s = float(s)
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError(f"the width s must be positive and finite, got {s}")
        self.power = float(power)
        self.vanishing_order = math.inf  # super-polynomial vanishing at 0
        self.decay = "super-exp"

    def _value(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            u = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
        out = np.exp(-((u - self.mu) ** 2) / (2 * self.s**2))
        if self.power != 0:
            out = out * np.where(x > 0, x, 1.0) ** self.power
        return np.where(x > 0, out, 0.0)

    def _slope(self, x):
        # f'(x) = f(x) * (power - (ln x - mu)/s^2) / x
        u = np.log(x)
        return self.power - (u - self.mu) / self.s**2

    def deriv(self, j: int) -> Callable:
        if j == 0:
            return self._value
        if j == 1:
            return lambda x: self._value(x) * self._slope(np.asarray(x, dtype=float)) / np.asarray(x, dtype=float)
        if j == 2:
            def second(x):
                x = np.asarray(x, dtype=float)
                f = self._value(x)
                a = self._slope(x)
                return f * (a * (a - 1) - 1 / self.s**2) / x**2
            return second
        raise ValueError("LogGaussian carries derivative closures up to order 2 only")


class Reflected(AnalyticFunction):
    """g(x) = f(s - x); derivatives pick up alternating signs."""

    def __init__(self, f: AnalyticFunction, s: float):
        self.f = f
        self.s = float(s)
        self.order = f.order
        self.vanishing_order = 0.0
        self.decay = "compact"

    def deriv(self, j: int) -> Callable:
        base = self.f.deriv(j)
        sign = -1.0 if j % 2 else 1.0
        return lambda x: sign * base(self.s - np.asarray(x, dtype=float))


def monomial(power: float, coefficient=1.0) -> PowerExp:
    """c * x^power with unlimited derivative closures."""
    return PowerExp([(coefficient, power)], rate=0.0)


def gamma_class(power: float, rate: float = 1.0, coefficient=1.0) -> PowerExp:
    """c * x^power * exp(-rate x); the Gamma-integral test family."""
    return PowerExp([(coefficient, power)], rate=rate)


def polynomial_times_exp(coeffs: Sequence, rate: float = 1.0) -> PowerExp:
    """(sum_k coeffs[k] x^k) * exp(-rate x); coeffs[k] multiplies x^k."""
    return PowerExp([(c, k) for k, c in enumerate(coeffs)], rate=rate)


def zero_function() -> PowerExp:
    return PowerExp([], rate=0.0)


def consistency_check(f: AnalyticFunction, points=None, rel_tol: float = 1e-5) -> bool:
    """Spot-check the first derivative closure against central differences.

    Verifies f.deriv(1) at a handful of sample points; returns True when the
    closure matches to rel_tol relative accuracy (skipped when the function
    carries no derivative closure).
    """
    if f.order < 1:
        return True
    if points is None:
        points = np.array([0.31, 0.77, 1.3, 2.9, 6.1])
    points = np.asarray(points, dtype=float)
    val = f.deriv(0)
    der = f.deriv(1)
    h = 1e-6 * np.maximum(points, 1.0)
    numeric = (val(points + h) - val(points - h)) / (2 * h)
    exact = der(points)
    scale = np.max(np.abs(exact)) + np.max(np.abs(numeric)) + 1e-300
    return bool(np.max(np.abs(numeric - exact)) <= rel_tol * scale)
