"""Inequality ratio evaluation, the optimality probe family, and sweeps.

The n-th ratio is  integral |f^(n)|^2 dx  over  integral |f|^2 x^(-2n) dx;
it exceeds the sharp constant c_n strictly for every admissible nonzero f,
and no admissible extremizer exists.  Sharpness is demonstrated with the
probe family built from f_sigma = x^sigma on (0, a): its n-fold
antiderivative has piecewise closed forms (a pure power below the cutoff, a
degree-(n-1) polynomial tail above), so the probe ratio

    R(n, sigma, a) = P^2 / (1 + (1+2 sigma) C(a) a^(-1-2 sigma) P^2),
    P = prod_{j=1..n} (j + sigma),
    C(a) = integral_a^inf x^(-2n) (sum_k b_k x^k)^2 dx,

is available in closed form and decreases to c_n as sigma drops to -1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import AnalyticFunction, PowerExp, polynomial_times_exp
from .constants import birman_constant, glazman_constant, probe_tail_coeffs
from .errors import TrivialFunctionError
from .grid import GridFunction, LogGrid, norm_sq

__all__ = [
    "ProbeSpec",
    "ProbeFunction",
    "RatioReport",
    "probe_ratio_closed_form",
    "birman_ratio",
    "birman_ratio_sampled",
    "glazman_ratio",
    "sharpness_sweep",
    "SweepResult",
    "random_polynomial_probe",
]

TRIVIAL_DENOMINATOR = 1e-300


@dataclass(frozen=True)
class ProbeSpec:
    """The optimality probe: index n, exponent sigma > -1/2, cutoff a > 0."""

    n: int
    sigma: float
    a: float = 10.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("probe index must be >= 1")
        if not self.sigma > -0.5:
            raise ValueError(
                f"probe needs sigma > -1/2 for square-integrability, got {self.sigma}")
        if not self.a > 0:
            raise ValueError(f"cutoff must be positive, got {self.a}")


def _leading_product(n: int, sigma: float) -> float:
    prod = 1.0
    for j in range(1, n + 1):
        prod *= j + sigma
    return prod


class ProbeFunction(AnalyticFunction):
    """Analytic closures for the probe's n-fold antiderivative.

    Below the cutoff the j-th derivative is a pure power; above it the
    polynomial tail is differentiated term by term.  The n-th derivative
    reproduces the generating truncated monomial x^sigma on (0, a).
    """

    def __init__(self, spec: ProbeSpec):
        self.spec = spec
        self.order = spec.n
        self.vanishing_order = spec.n + spec.sigma
        self.decay = "power"  # polynomial tail of degree n-1
        self._tail = probe_tail_coeffs(spec.n, spec.sigma, spec.a)
        self._product = _leading_product(spec.n, spec.sigma)

    def deriv(self, j: int):
        n, sigma, a = self.spec.n, self.spec.sigma, self.spec.a
        if j > n:
            raise ValueError(f"probe carries derivatives up to order {n}, got {j}")

        falling = 1.0
        for ell in range(j):
            falling *= n + sigma - ell

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            below = np.zeros_like(x)
            pos = x > 0
            with np.errstate(invalid="ignore"):
                below[pos] = falling / self._product * x[pos] ** (n + sigma - j)
            if j == n:
                # derivative of order n is the truncated monomial itself
                above = np.zeros_like(x)
            else:
                above = np.zeros_like(x)
                for k in range(j, n):
                    fact = math.factorial(k) / math.factorial(k - j)
                    above = above + self._tail[k] * fact * x ** (k - j)
            out = np.where(x <= a, below, above)
            return out if out.shape else out[()]

        return evaluate


def _probe_tail_integral(spec: ProbeSpec) -> float:
    """C(a): mass of the squared polynomial tail against x^(-2n) beyond a."""
    n, a = spec.n, spec.a
    b = probe_tail_coeffs(n, spec.sigma, a)
    total = 0.0
    for k in range(n):
        for ell in range(n):
            total += b[k] * b[ell] * a ** (k + ell + 1 - 2 * n) / (2 * n - 1 - k - ell)
    return total


def probe_ratio_closed_form(spec: ProbeSpec) -> tuple:
    """(numerator, denominator) of the probe ratio, both in closed form."""
    n, sigma, a = spec.n, spec.sigma, spec.a
    numerator = a ** (1 + 2 * sigma) / (1 + 2 * sigma)
    prod_sq = _leading_product(n, sigma) ** 2
    denominator = numerator / prod_sq + _probe_tail_integral(spec)
    return numerator, denominator


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one inequality-ratio evaluation.

    slack = ratio - constant is strictly positive for admissible nonzero
    functions; the optional fields carry whichever parameters produced the
    report (weight power, probe exponent/cutoff, interval data).
    """

    n: int
    numerator: float
    denominator: float
    ratio: float
    constant: float
    slack: float
    alpha: Optional[float] = None
    sigma: Optional[float] = None
    a: Optional[float] = None
    side: Optional[str] = None
    c: Optional[float] = None
    m: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"n": self.n}
        for key in ("alpha", "sigma", "a", "side", "c", "m"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        out.update(
            numerator=self.numerator,
            denominator=self.denominator,
            ratio=self.ratio,
            constant=self.constant,
            slack=self.slack,
        )
        return out


def _build_report(n, numerator, denominator, constant, **extra) -> RatioReport:
    if not denominator > TRIVIAL_DENOMINATOR:
        raise TrivialFunctionError(
            "denominator vanishes: the test function is numerically zero")
    ratio = numerator / denominator
    return RatioReport(
        n=n, numerator=float(numerator), denominator=float(denominator),
        ratio=float(ratio), constant=float(constant),
        slack=float(ratio - constant), **extra)


ProbeOrFunction = Union[ProbeSpec, AnalyticFunction]


def birman_ratio(n: int, f: ProbeOrFunction, grid: Optional[LogGrid] = None) -> RatioReport:
    """Ratio of the n-th derivative energy to the x^(-2n)-weighted mass.

    Probe specs are evaluated through their closed forms; analytic
    functions are integrated on the grid using their derivative closures
    (never finite differences).
    """
    constant = float(birman_constant(n).c)
    if isinstance(f, ProbeSpec):
        if f.n != n:
            raise ValueError(f"probe was built for n={f.n}, ratio requested for n={n}")
        numerator, denominator = probe_ratio_closed_form(f)
        return _build_report(n, numerator, denominator, constant,
                             sigma=f.sigma, a=f.a)
    if f.order < n:
        raise ValueError(f"ratio of order {n} needs {n} derivative closures")
    grid = grid or LogGrid.default()
    numerator = norm_sq(GridFunction.from_callable(grid, f.deriv(n)))
    denominator = norm_sq(GridFunction.from_callable(grid, f.deriv(0)), -2.0 * n)
    return _build_report(n, numerator, denominator, constant)


def glazman_ratio(n: int, alpha: float, f: ProbeOrFunction,
                  grid: Optional[LogGrid] = None) -> RatioReport:
    """Power-weighted ratio: int x^alpha |f^(n)|^2 over int |f|^2 x^(alpha-2n)."""
    constant = float(glazman_constant(n, alpha))
    if isinstance(f, ProbeSpec):
        f = ProbeFunction(f)
    if f.order < n:
        raise ValueError(f"ratio of order {n} needs {n} derivative closures")
    grid = grid or LogGrid.default()
    numerator = norm_sq(GridFunction.from_callable(grid, f.deriv(n)), alpha)
    denominator = norm_sq(GridFunction.from_callable(grid, f.deriv(0)), alpha - 2.0 * n)
    return _build_report(n, numerator, denominator, constant, alpha=float(alpha))


def birman_ratio_sampled(n: int, f: GridFunction, alpha: float = 0.0) -> RatioReport:
    """Ratio from raw samples: the n-th derivative is finite differences.

    Meant for user-supplied CSV data only; accuracy degrades rapidly with n
    (a warning is emitted).  Closure-carrying functions should go through
    birman_ratio/glazman_ratio instead.
    """
    import warnings

    from .grid import differentiate

    warnings.warn(
        f"computing an order-{n} derivative numerically from samples; "
        "expect degraded accuracy", stacklevel=2)
    constant = float(glazman_constant(n, alpha)) if alpha else float(birman_constant(n).c)
    numerator = norm_sq(differentiate(f, n), alpha)
    denominator = norm_sq(f, alpha - 2.0 * n)
    extra = {"alpha": float(alpha)} if alpha else {}
    return _build_report(n, numerator, denominator, constant, **extra)


@dataclass(frozen=True)
class SweepResult:
    reports: tuple
    extrapolated_limit: float
    constant: float


def sharpness_sweep(n: int, eps_values: Sequence[float], a: float = 10.0) -> SweepResult:
    """Probe ratios at sigma = -1/2 + eps for each offset, via closed forms.

    The ratios sit strictly above c_n and decrease toward it as eps drops;
    the returned limit extrapolates the two smallest offsets linearly to
    eps = 0.  The closed forms need no quadrature.
    """
    eps_values = list(eps_values)
    if not eps_values:
        raise ValueError("need at least one offset")
    for eps in eps_values:
        if not eps > 0:
            raise ValueError(f"offsets must be positive, got {eps}")
    constant = float(birman_constant(n).c)
    reports = []
    for eps in eps_values:
        spec = ProbeSpec(n=n, sigma=-0.5 + eps, a=a)
        reports.append(birman_ratio(n, spec))
    ordered = sorted(zip(eps_values, reports), key=lambda item: item[0])
    if len(ordered) >= 2:
        (e1, r1), (e2, r2) = ordered[0], ordered[1]
        slope = (r2.ratio - r1.ratio) / (e2 - e1)
        limit = r1.ratio - slope * e1
    else:
        limit = ordered[0][1].ratio
    return SweepResult(reports=tuple(reports), extrapolated_limit=float(limit),
                       constant=constant)


def random_polynomial_probe(n: int, rng: np.random.Generator,
                            degree: int = 3) -> PowerExp:
    """Random admissible test function: x^n * poly(x) * e^(-x).

    Vanishing order exactly n at the origin and exponential decay, so every
    draw is admissible for the n-th ratio.  Coefficients are uniform in
    [-1, 1] with the leading one bounded away from zero.
    """
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    lead = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    full = np.concatenate((np.zeros(n), [lead], coeffs))
    return polynomial_times_exp(full, rate=1.0)
