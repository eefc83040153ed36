"""Analytic test functions with exact derivative closures.

The ratio functionals involve n-th derivatives squared; computing those by
finite differences is hopeless, so every acceptance-critical quantity is
evaluated through closed-form derivative closures carried by the function
object itself.  The workhorse class is :class:`PowerExp`, sums

    f(x) = sum_i  c_i * x^(p_i) * exp(-rate * x),

which are closed under differentiation and cover monomials, polynomials,
Gamma-class functions x^(k+1/2) e^(-cx), and the random polynomial-times-
exponential test functions used by the property suites.  The j-th
derivative of a PowerExp is built in one step, by the Leibniz closed form,
not by j differentiations, and is cached per order; order 0 is the
function itself and is not stored, so a PowerExp holds no reference to
itself and is freed as soon as it is dropped, without the cyclic collector.

A PowerExp closure is evaluated by Horner's rule, one group of powers that
differ by integers at a time: one ``np.power`` per group and one ``np.exp``
per call, whatever the number of terms.  Every PowerExp, a derivative
included, finds its groups from its own terms on first use.  Its error
bound is that of the term-by-term sum (a few ulps times
sum |c_i x^p_i| / |f(x)|), and it is finite at every x where each term is,
on the whole float range.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AnalyticFunction",
    "PowerExp",
    "LogGaussian",
    "monomial",
    "gamma_class",
    "polynomial_times_exp",
    "zero_function",
]


class AnalyticFunction:
    """A scalar function with derivative closures up to a stated order.

    Attributes
    ----------
    order:
        Highest derivative order available (math.inf when unlimited).
    """

    order = math.inf

    def deriv(self, j: int) -> Callable:
        """Return the j-th derivative as a vectorized callable."""
        raise NotImplementedError

    def __call__(self, x):
        return self.deriv(0)(x)


class PowerExp(AnalyticFunction):
    """sum_i c_i x^(p_i) exp(-rate x); closed under d/dx, any order available.

    Coefficients may be complex; powers may be any reals.  Terms with
    coefficient 0 are dropped, so differentiating x^0 terminates cleanly.

    ``deriv(j)`` builds the j-th derivative in one Leibniz step,
    sum_k C(j,k) p(p-1)...(p-k+1) (-rate)^(j-k) x^(p-k) per term, with equal
    powers merged, and caches it per order in a dict that never holds the
    function itself (order 0 is ``self``).

    Closures are evaluated by a plan built from the terms on first use:
    terms whose powers differ by exact whole numbers form a group, and each
    group is x^p0 times a Horner sum over its integer offsets (gaps between
    powers take one power of x, not zero-coefficient steps).  A call costs
    one ``np.power`` per group (none when p0 is a non-negative integer) and
    one ``np.exp``.  Horner's rule has the backward-error bound of the term
    sum, so the relative error is a few ulps times sum |c_i x^p_i| / |f(x)|.
    The result is finite wherever every term is: where a group's x^p0 times
    its highest offset could leave the float range, points with |x| > 1 are
    summed the other way round, as x^p_top times a Horner sum in 1/x.
    At x = 0 a term x^p with p > 0 is 0 and one with p < 0 is nan (x^0 = 1);
    at x < 0 the same holds for fractional and negative powers.
    """

    def __init__(self, terms: Sequence, rate: float = 0.0):
        # terms: iterable of (coef, power)
        merged = {}
        for c, p in terms:
            if not math.isfinite(p):
                raise ValueError(f"power {p} is not a finite number")
            if c != 0:
                merged[p] = merged.get(p, 0) + c
        self.terms = tuple(sorted((p, c) for p, c in merged.items() if c != 0))
        self.rate = float(rate)
        self._derivs = {}  # order j >= 1 -> PowerExp; order 0 is self, not stored
        self._plan = None  # the Horner groups, built on first use

    def _horner(self) -> tuple:
        if self._plan is None:
            self._plan = _horner_plan(self.terms)
        return self._plan

    def _derivative(self, j: int) -> "PowerExp":
        """The j-th derivative as a PowerExp, built in one Leibniz step and cached."""
        if j < 0:
            raise ValueError("derivative order must be nonnegative")
        if j == 0:
            return self
        if j not in self._derivs:
            self._derivs[j] = PowerExp(_leibniz_terms(self.terms, self.rate, j), self.rate)
        return self._derivs[j]

    def deriv(self, j: int) -> Callable:
        return self._derivative(j)._evaluate

    def _evaluate(self, x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        plan = self._horner()
        if not plan or not flat.size:
            dtype = complex if any(isinstance(c, complex) for _, c in self.terms) else float
            out = np.zeros(x.shape, dtype=dtype)
            return out if out.shape else out[()]
        lo, hi = float(flat.min()), float(flat.max())
        out = None
        for group in plan:
            value = group.evaluate(flat, lo, hi)
            out = value if out is None else out + value
        if self.rate != 0.0:
            decay = np.multiply(flat, -self.rate)
            out *= np.exp(decay, out=decay)
        out = out.reshape(x.shape)
        return out if out.shape else out[()]


@functools.lru_cache(maxsize=256)
def _leibniz_weights(rate: float, j: int) -> tuple:
    """C(j,k) (-rate)^(j-k) for k = 0..j: exact binomials below 2^53, 0 for k < j at rate 0."""
    decay = [1.0]                                  # (-rate)^m
    for _ in range(j):
        decay.append(decay[-1] * -rate)
    weights, binom = [], 1.0
    for k in range(j + 1):
        weights.append(binom * decay[j - k])
        binom = binom * (j - k) / (k + 1)
    return tuple(weights)


def _leibniz_terms(terms, rate: float, j: int) -> list:
    """(coef, power) terms of the j-th derivative of sum c x^p e^(-rate x), over e^(-rate x).

    Leibniz: (x^p e^(-r x))^(j) = sum_k C(j,k) p(p-1)...(p-k+1) (-r)^(j-k)
    x^(p-k) e^(-r x).  The falling factorial of a whole power reaches an
    exact 0 once k > p, so polynomials terminate; at rate 0 only k = j is
    left.  Binomials are exact below 2^53 and every power p - k is rounded
    once; a coefficient past the float range is inf, not an exception.
    """
    weights = _leibniz_weights(rate, j)
    out = []
    for p, c in terms:
        falling = 1.0                              # p(p-1)...(p-k+1)
        for k, weight in enumerate(weights):
            if weight:
                coef = c * (weight * falling)
                if coef != 0:
                    out.append((coef, p - k))
            falling *= p - k
            if falling == 0:
                break
    return out


# float64 overflows at 2^1024; a forward Horner sum whose terms stay below
# 2^_RANGE_BITS in magnitude (and whose x^p0 stays above 2^-_RANGE_BITS)
# cannot leave the range where the term-by-term sum would not.
_RANGE_BITS = 960.0


class _HornerGroup:
    """sum_k c_k x^(p0 + k) over integer offsets k >= 0, by Horner's rule.

    Built from the group's powers and coefficients by ascending power.  In
    a real function the coefficients are floats; in a complex one (any
    coefficient complex) the Horner sum reads them as complex numbers.
    """

    def __init__(self, powers: list, coefs: list, as_complex: bool):
        self.p0, self.top = powers[0], powers[-1]
        self.coefs = tuple(map(complex, coefs)) if as_complex else tuple(coefs)
        offsets = [int(p - self.p0) for p in powers]
        self.gaps = tuple(map(operator.sub, offsets[1:], offsets[:-1]))
        # largest |x| at which the forward sum stays in range; a single term
        # is the term sum itself
        self.safe = math.inf
        if len(offsets) > 1:
            spare = _RANGE_BITS - max(math.log2(sum(map(abs, self.coefs))), 0.0)
            self.safe = 2.0 ** (max(spare, 0.0) / max(offsets[-1], -self.p0))

    def evaluate(self, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
        if max(hi, -lo) <= self.safe:
            return self._forward(x, lo <= 0)
        big = np.abs(x) > 1
        small = ~big
        out = np.empty(x.shape, dtype=complex if isinstance(self.coefs[0], complex) else float)
        out[small] = self._forward(x[small], lo <= 0)
        out[big] = self._backward(x[big], lo <= 0)
        return out

    def _forward(self, x, nonpositive):
        powers = {1: x}
        acc = _horner(self.coefs[::-1], self.gaps[::-1], powers)
        return _times_power(acc, x, self.p0, powers, nonpositive)

    def _backward(self, x, nonpositive):
        powers = {1: 1.0 / x}
        acc = _horner(self.coefs, self.gaps, powers)
        return _times_power(acc, x, self.top, {1: x}, nonpositive)


def _horner_plan(terms) -> tuple:
    """Group (power, coef) terms, by ascending power, whose powers differ by integers."""
    as_complex = any(isinstance(c, complex) for _, c in terms)
    groups = []                                    # (powers, coefs) per group
    for p, c in terms:
        if not as_complex:
            c = float(c)
        for powers, coefs in groups:
            offset = float(p - powers[0])
            # fsum is exact here: it is 0 only when p - p0 was not rounded
            if offset.is_integer() and math.fsum((p, -powers[0], -offset)) == 0.0:
                powers.append(p)
                coefs.append(c)
                break
        else:
            groups.append(([p], [c]))
    return tuple(_HornerGroup(*group, as_complex) for group in groups)


def _int_power(d: int, powers: dict):
    """t^d by repeated squaring, memoised in powers (which holds 1: t).

    t^d = (t^(d//2))^2, times t for odd d, built upward from the first
    d // 2^k already in powers: one loop step per bit, no recursion, and
    only t^d itself is kept.
    """
    chain = [d]
    while chain[-1] not in powers:
        chain.append(chain[-1] // 2)
    value = powers[chain.pop()]
    for k in reversed(chain):
        value = value * value * powers[1] if k % 2 else value * value
    powers[d] = value
    return value


def _horner(coefs, gaps, powers):
    """((c0 t^g0 + c1) t^g1 + c2) ..., with each t^g taken from powers."""
    if len(coefs) == 1:
        return coefs[0]
    acc = coefs[0] * _int_power(gaps[0], powers)
    acc += coefs[1]
    for c, g in zip(coefs[2:], gaps[1:]):
        acc *= _int_power(g, powers)
        acc += c
    return acc


def _times_power(acc, x, p, powers, nonpositive):
    """acc * x^p with the x <= 0 limits of the term-by-term sum."""
    if p == int(p) and p >= 0:
        if p == 0:
            return acc if isinstance(acc, np.ndarray) else np.full(x.shape, acc)
        scale = _int_power(int(p), powers)
    elif nonpositive:
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.power(x, p)
        scale = np.where(x > 0, scale, 0.0 if p > 0 else np.nan)
    else:                               # x > 0: no division by zero, no invalid power
        scale = np.power(x, p)
    if isinstance(acc, np.ndarray):
        acc *= scale
        return acc
    return acc * scale


class LogGaussian(AnalyticFunction):
    """exp(-(ln x - mu)^2 / (2 s^2)): a smooth bump in u = ln x.

    Carries two derivative closures, which is all the spectral checks need.
    """

    order = 2

    def __init__(self, mu: float = 0.0, s: float = 1.0):
        self.mu = float(mu)
        self.s = float(s)
        # the closures divide by s^2, which must be a positive float too
        if not (self.s > 0 and 0 < self.s * self.s < math.inf):
            raise ValueError(f"the width s must be positive and finite, with s^2 in the "
                             f"float range, got {s}")

    def _value(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            u = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
        return np.where(x > 0, np.exp(-((u - self.mu) ** 2) / (2 * self.s**2)), 0.0)

    def _slope(self, x):
        # f'(x) = f(x) * (mu - ln x)/s^2 / x
        return (self.mu - np.log(x)) / self.s**2

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


def monomial(power: float, coefficient=1.0) -> PowerExp:
    """c * x^power with unlimited derivative closures."""
    return PowerExp([(coefficient, power)], rate=0.0)


def gamma_class(power: float, rate: float = 1.0) -> PowerExp:
    """x^power * exp(-rate x); the Gamma-integral test family."""
    return PowerExp([(1.0, power)], rate=rate)


def polynomial_times_exp(coeffs: Sequence, rate: float = 1.0) -> PowerExp:
    """(sum_k coeffs[k] x^k) * exp(-rate x); coeffs[k] multiplies x^k."""
    return PowerExp([(c, k) for k, c in enumerate(coeffs)], rate=rate)


def zero_function() -> PowerExp:
    return PowerExp([], rate=0.0)
