"""Inequality ratio evaluation, the optimality probe family, and sweeps.

The n-th ratio is  integral |f^(n)|^2 dx  over  integral |f|^2 x^(-2n) dx;
it exceeds the sharp constant c_n strictly for every admissible nonzero f,
and no admissible extremizer exists.  Sharpness is demonstrated with the
probe family built from f_sigma = x^sigma on (0, a): its n-fold
antiderivative F is g_0 x^(n+sigma) below the cutoff and its Taylor
polynomial at a above it, sum_{k<n} g_k a^(n+sigma-k) (x - a)^k with
g_k = 1/(k! prod_{j=1..n-k} (j + sigma)) > 0.  As int_a^inf x^(-2n) (x-a)^m dx
= a^(m+1-2n) B(m+1, 2n-1-m), the probe ratio

    R(n, sigma) = 1 / (g_0^2 + (1+2 sigma) sum_{k,l<n} g_k g_l B(k+l+1, 2n-1-k-l))

is free of a and of cancellation, and decreases to c_n as sigma drops to -1/2.

The half line's two entry points, birman_ratio and glazman_ratio, take a
closure, a ProbeSpec, sampled data or a list of scalar components (a
vector; its report carries m).  Except birman_ratio's probe closed form,
every grid ratio sums its norms in one core, _halfline_ratio, which
refuses any other input.  Closures are integrated on a LogGrid in one
stacked pass (_halfline_norms): f^(n) and f of every component are
sampled into one array, one row per closure, and grid._norms_sq sums all
rows at once, by the rule norm_sq runs on a single row.  Sampled
components go through norm_sq.

Every grid, sampled, vector and interval report is built by _build_report,
which applies the refusals these routes share: a report has slack > 0, or
the call raises ConvergenceError (a ratio at or below the constant is an
inadmissible f or an unresolved quadrature, never a counterexample).  The
probe's closed form keeps its own rule, a slack above its rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import AnalyticFunction, PowerExp, monomial, polynomial_times_exp
from .constants import _check_index, _float_constant, _float_weighted_constant
from .errors import ConvergenceError, InvalidDataError, TrivialFunctionError, _warn
from .grid import GridFunction, LogGrid, _norms_sq, differentiate, norm_sq

__all__ = [
    "ProbeSpec",
    "ProbeFunction",
    "RatioReport",
    "probe_ratio_closed_form",
    "birman_ratio",
    "glazman_ratio",
    "sharpness_sweep",
    "SweepResult",
    "random_polynomial_probe",
]

TRIVIAL_DENOMINATOR = 1e-300
MAX_COMPONENTS = 64


@dataclass(frozen=True)
class ProbeSpec:
    """The optimality probe: index n, exponent sigma > -1/2, cutoff a > 0."""

    n: int
    sigma: float
    a: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_index(self.n))
        if not self.sigma > -0.5:
            raise ValueError(
                f"probe needs sigma > -1/2 for square-integrability, got {self.sigma}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"cutoff must be positive and finite, got {self.a}")


def _probe_taylor(n: int, sigma: float) -> list:
    """g_k = 1/(k! prod_{j=1..n-k} (j + sigma)) for k < n, all positive.

    F^(k)(a)/k! = g_k a^(n+sigma-k): the Taylor coefficients at the cutoff
    of the probe's antiderivative, with the powers of a taken out.  Built
    downward from g_(n-1) by g_k = g_(k+1) (k+1)/(n-k+sigma).
    """
    g = [1.0 / (math.factorial(n - 1) * (1 + sigma))]
    for k in range(n - 2, -1, -1):
        g.append(g[-1] * (k + 1) / (n - k + sigma))
    return g[::-1]


class ProbeFunction(AnalyticFunction):
    """Analytic closures for the probe's n-fold antiderivative.

    Two PowerExp pieces joined at the cutoff: the power g_0 x^(n+sigma) on
    (0, a], 0 at x <= 0, and the Taylor polynomial at a above it, a
    polynomial in x - a (see _probe_taylor).  Each piece is evaluated on its
    own points only.  The n-th derivative reproduces the generating
    truncated monomial x^sigma on (0, a).
    """

    def __init__(self, spec: ProbeSpec):
        self.spec = spec
        self.order = spec.n
        n, sigma, a = spec.n, spec.sigma, spec.a
        g = _probe_taylor(n, sigma)
        self._below = monomial(n + sigma, g[0])
        self._tail = polynomial_times_exp(
            [gk * _power(a, n + sigma - k) for k, gk in enumerate(g)], 0.0)

    def deriv(self, j: int):
        n, a = self.spec.n, self.spec.a
        if j > n:
            raise ValueError(f"probe carries derivatives up to order {n}, got {j}")
        below, tail = self._below.deriv(j), self._tail.deriv(j)

        def evaluate(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            above, inside = x > a, (x > 0) & (x <= a)
            out[above] = tail(x[above] - a)
            out[inside] = below(x[inside])
            return out if out.shape else out[()]

        return evaluate


def _power(a: float, p: float) -> float:
    """a^p, inf where it overflows a float."""
    try:
        return a ** p
    except OverflowError:
        return math.inf


def _probe_closed_form(spec: ProbeSpec) -> tuple:
    """(numerator, denominator, ratio) of the probe ratio (module docstring).

    The ratio is taken before the factor a^(1+2 sigma) goes in, so it keeps
    its digits where the denominator is subnormal; the factor itself is inf
    where it overflows, and the ratio is inf where its bracket underflows.
    """
    n, sigma = spec.n, spec.sigma
    g = _probe_taylor(n, sigma)
    # B(m+1, 2n-1-m) = m! (2n-2-m)! / (2n-1)!
    beta = [1 / ((2 * n - 1) * math.comb(2 * n - 2, m)) for m in range(2 * n - 1)]
    bracket = g[0] ** 2 + (1 + 2 * sigma) * float(np.convolve(g, g) @ beta)
    ratio = 1 / bracket if bracket else math.inf
    numerator = _power(spec.a, 1 + 2 * sigma) / (1 + 2 * sigma)
    return numerator, numerator / ratio, ratio


def probe_ratio_closed_form(spec: ProbeSpec) -> tuple:
    """(numerator, denominator) of the probe ratio, both in closed form."""
    return _probe_closed_form(spec)[:2]


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one inequality-ratio evaluation.

    slack = ratio - constant > 0 in every report: a grid, sampled, vector or
    interval ratio at or below its constant raises ConvergenceError instead,
    and a probe slack below the closed form's rounding error ValueError.
    The optional fields carry whichever parameters produced the report
    (weight power, probe exponent/cutoff, interval data).
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
    """The report of a grid, sampled, vector or interval ratio, after its refusals.

    Non-finite sums raise InvalidDataError and a vanishing denominator
    TrivialFunctionError.  The inequality holds strictly for every
    admissible nonzero f, so a ratio at or below the constant is never a
    counterexample: it raises ConvergenceError with the ratio as
    last_estimate.
    """
    if not (math.isfinite(numerator) and math.isfinite(denominator)):
        raise InvalidDataError("the ratio's sums leave the float range: "
                               f"numerator {numerator}, denominator {denominator}")
    if not denominator > TRIVIAL_DENOMINATOR:
        raise TrivialFunctionError(
            "denominator vanishes: the test function is numerically zero")
    ratio = numerator / denominator
    if not ratio > constant:
        alpha = extra.get("alpha")
        bound = (f"c_{n} = {constant:.6g}" if alpha is None else
                 f"{constant:.6g}, the weighted constant of n = {n} and alpha = {alpha:g}")
        raise ConvergenceError(
            f"ratio {ratio:.6g} is not above {bound}, which the inequality rules out "
            "for an admissible f: f is not admissible, or the quadrature did not resolve it",
            last_estimate=ratio)
    return RatioReport(
        n=n, numerator=float(numerator), denominator=float(denominator),
        ratio=float(ratio), constant=float(constant),
        slack=float(ratio - constant), **extra)


def _halfline_norms(grid: LogGrid, rows) -> list:
    """Integrals of |v|^2 x^p dx on a LogGrid for (closure, p) rows, in one pass.

    The closures are sampled unwarned, as GridFunction.from_callable samples
    (non-finite samples raise InvalidDataError in _norms_sq), and stacked one
    row each; every row takes norm_sq's rule, bit for bit what norm_sq gives
    for it alone, with one finiteness check and one decay test for all rows.
    """
    x = grid.x
    with np.errstate(over="ignore", invalid="ignore"):
        samples = [np.asarray(fn(x)) for fn, _ in rows]
    for v in samples:
        if v.shape != x.shape:
            raise InvalidDataError(
                f"values shape {v.shape} does not match grid of {len(x)} nodes")
    dtype = complex if any(np.iscomplexobj(v) for v in samples) else float
    return _norms_sq(grid, np.array(samples, dtype=dtype), [p for _, p in rows])


def _probe(n: int, spec: ProbeSpec) -> ProbeSpec:
    """The probe spec, refused where it was built for another index than the ratio's."""
    if spec.n != n:
        raise ValueError(f"probe was built for n={spec.n}, ratio requested for n={n}")
    return spec


def _halfline_ratio(n, power, f, grid, constant, **extra) -> RatioReport:
    """Report of sum int x^p |c^(n)|^2 dx over sum int x^(p-2n) |c|^2 dx, in component order.

    f is a scalar test function (a ProbeSpec through its closures) or a
    list of them, a vector, whose report carries their number m.  Sampled
    components keep their grids and take finite-difference derivatives,
    with one warning per call however many there are; analytic ones need
    closures up to order n and are stacked on ``grid`` (the default LogGrid
    if None).  Any other input raises ValueError, an empty list
    TrivialFunctionError.
    """
    power = float(power)
    if isinstance(f, ProbeSpec):
        f = ProbeFunction(_probe(n, f))
    vector = isinstance(f, (list, tuple))
    components = list(f) if vector else [f]
    for c in components:
        if not isinstance(c, (AnalyticFunction, GridFunction)):
            raise ValueError(f"{'vector components' if vector else 'test functions'} must be "
                             f"analytic functions or sampled data, got {type(c).__name__}")
    if vector:
        if not components:
            raise TrivialFunctionError("empty component list")
        if len(components) > MAX_COMPONENTS:
            raise ValueError(f"at most {MAX_COMPONENTS} components supported")
        extra["m"] = len(components)
    if any(isinstance(c, GridFunction) for c in components):
        _warn(f"computing an order-{n} derivative numerically from samples; "
              "expect degraded accuracy")
    parts, rows = [], []    # per component its (numerator, denominator), or None: stacked
    for c in components:
        if isinstance(c, GridFunction):
            parts.append((norm_sq(differentiate(c, n), power), norm_sq(c, power - 2.0 * n)))
        elif c.order < n:
            raise ValueError(f"ratio of order {n} needs {n} derivative closures")
        else:
            parts.append(None)
            rows += [(c.deriv(n), power), (c.deriv(0), power - 2.0 * n)]
    norms = iter(_halfline_norms(grid or LogGrid.default(), rows) if rows else ())
    numerator = denominator = 0.0
    for part in parts:
        top, bottom = part or (next(norms), next(norms))
        numerator += top
        denominator += bottom
    return _build_report(n, numerator, denominator, constant, **extra)


def birman_ratio(n: int, f, grid: Optional[LogGrid] = None) -> RatioReport:
    """Ratio of the n-th derivative energy to the x^(-2n)-weighted mass.

    A probe spec is evaluated through its closed form; analytic functions
    are integrated on the grid using their derivative closures, sampled
    data by finite differences, and a list of them, a vector, sums its
    components' squared norms.
    """
    n = _check_index(n)
    constant = _float_constant("c_n", n)
    if isinstance(f, ProbeSpec):
        _probe(n, f)
        # the closed form is positive by construction: no vanishing-denominator
        # test.  Its ratio errs by at most n ulps, so a slack inside 8 n ulps
        # (sigma within about 1e-13 of -1/2), or an infinite ratio, has no sign
        numerator, denominator, ratio = _probe_closed_form(f)
        slack = ratio - constant
        if not slack > 8 * n * np.finfo(float).eps * ratio:
            raise ValueError(f"sigma = {f.sigma!r}: the probe's slack is not resolved in "
                             "floating point (sigma too close to -1/2, or the ratio too large)")
        return RatioReport(n=n, numerator=numerator, denominator=denominator,
                           ratio=ratio, constant=constant, slack=slack,
                           sigma=f.sigma, a=f.a)
    return _halfline_ratio(n, 0.0, f, grid, constant)


def glazman_ratio(n: int, alpha: float, f, grid: Optional[LogGrid] = None) -> RatioReport:
    """Power-weighted ratio: int x^alpha |f^(n)|^2 over int |f|^2 x^(alpha-2n).

    f is as for birman_ratio, but a probe spec goes through its closures.
    """
    n = _check_index(n)
    constant = _float_weighted_constant(n, alpha)
    return _halfline_ratio(n, alpha, f, grid, constant, alpha=float(alpha))


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
    if len(set(eps_values)) < len(eps_values):
        raise ValueError(f"offsets must be distinct, got {eps_values}")
    constant = _float_constant("c_n", n)
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


def random_polynomial_probe(n: int, rng: np.random.Generator) -> PowerExp:
    """Random admissible test function: x^n * poly(x) * e^(-x), poly of degree 4.

    Vanishing order exactly n at the origin and exponential decay, so every
    draw is admissible for the n-th ratio.  Coefficients are uniform in
    [-1, 1] with the x^n one bounded away from zero.
    """
    n = _check_index(n)
    coeffs = rng.uniform(-1.0, 1.0, 4)
    lead = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    full = np.concatenate((np.zeros(n), [lead], coeffs))
    return polynomial_times_exp(full, rate=1.0)
