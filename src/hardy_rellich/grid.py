"""Sampled functions on (0, inf) and finite intervals, plus their calculus.

Log-uniform grids are the default on the half line: the inverse-power
weights and the Mellin transform are both natural in u = ln x.  A LogGrid's
nodes are u_k = ln x_min + h k, with the last one set to ln x_max, which is
np.linspace's construction bit for bit.  Plain integration is composite
trapezoid in u (spectrally accurate for smooth integrands that decay at the
window ends) plus an explicit power-law model for the unresolved (0, x_min)
stub.  One routine runs that rule on a stack of integrands, one per row,
with one finiteness check and one decay test for them all; ``integrate``
and ``norm_sq`` pass it a single row, and the ratio functionals pass it
every integrand of a ratio at once.  A weighted squared norm takes the
weight before squaring, (|f| x^(p/2))^2, so |f|^2 x^p stays in the float
range wherever the product does: the inverse-power weights x^(-2n) of the
Birman denominators reach n = 51 on the default window, where |f|^2 alone
would underflow and x^(-2n) alone overflow from n = 26.  Cumulative
integration, which feeds the averaging operators, picks one of three panel
rules per panel: a power-law fit with a log-curvature correction where
ln(v x) is straight to rounding (exact for monomials, also used beside
sampled jumps), an eight-node Lagrange rule in the grid's uniform
coordinate everywhere else (eighth order also where the integrand changes
sign, where the power fit is only second order), and plain trapezoid
where neither applies (exact zeros, non-finite values).  Choosing the
rules is an analysis of v x (its log-slopes and curvature, jumps and
zeros) apart from the masses it yields, so the moments v x^j, whose logs
differ from ln(v x) by j u only, reuse the analysis of v: the averaging
operators' binomial moments pay for one analysis, not n.
"""

from __future__ import annotations

import cmath
import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .constants import DEFAULT_POINTS, DEFAULT_WINDOW
from .errors import InvalidDataError, SingularityError

__all__ = [
    "LogGrid",
    "LinearGrid",
    "GridFunction",
    "QuadratureResult",
    "integrate",
    "norm_sq",
    "cumulative_integral",
    "differentiate",
    "write_csv",
    "read_csv",
]


class LogGrid:
    """Log-uniform sampling of (x_min, x_max): x_i = exp(u_i), u_i uniform."""

    def __init__(self, x_min: float, x_max: float, count: int):
        if not (0 < x_min < x_max):
            raise ValueError(f"need 0 < x_min < x_max, got ({x_min}, {x_max})")
        if count < 8:
            raise ValueError(f"need at least 8 nodes, got {count}")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.count = int(count)
        lo, hi = math.log(x_min), math.log(x_max)
        self.h = (hi - lo) / (count - 1)   # u[1] - u[0] would lose digits
        # lo + h k with the last node at hi is np.linspace's construction:
        # the same nodes, without its overhead per call
        self.u = np.arange(count, dtype=float)
        self.u *= self.h
        self.u += lo
        self.u[-1] = hi
        self.x = np.exp(self.u)
        self.u.flags.writeable = False
        self.x.flags.writeable = False

    @classmethod
    def default(cls, count: int = DEFAULT_POINTS) -> "LogGrid":
        return cls(*DEFAULT_WINDOW, count)

    def __len__(self):
        return self.count

    def __repr__(self):
        return f"LogGrid({self.x_min:g}, {self.x_max:g}, {self.count})"


class LinearGrid:
    """Uniform sampling of [a, b], endpoints included."""

    def __init__(self, a: float, b: float, count: int):
        if not (0 <= a < b):
            raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
        if count < 8:
            raise ValueError(f"need at least 8 nodes, got {count}")
        self.a = float(a)
        self.b = float(b)
        self.count = int(count)
        self.x = np.linspace(a, b, count)
        self.h = (self.b - self.a) / (count - 1)
        self.x.flags.writeable = False

    def __len__(self):
        return self.count

    def __repr__(self):
        return f"LinearGrid({self.a:g}, {self.b:g}, {self.count})"


Grid = Union[LogGrid, LinearGrid]


class GridFunction:
    """Scalar samples on a grid, one per node, real or complex; a vector is a list of them.

    Values are frozen after construction, so instances are freely shareable.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.shape != (len(grid),):
            raise InvalidDataError(
                f"values shape {values.shape} does not match grid of {len(grid)} nodes")
        if not np.iscomplexobj(values):
            values = values.astype(float)
        self.grid = grid
        self.values = values.copy()
        self.values.flags.writeable = False

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        # unwarned: the calculus raises InvalidDataError on non-finite samples
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(grid, np.asarray(fn(grid.x)))


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float


def _require_finite(values, message: str = "grid samples contain non-finite values") -> None:
    if not np.isfinite(values).all():
        raise InvalidDataError(message)


def _fit_exponent(xa: float, xb: float, wa, wb):
    """Complex power-law exponent through two samples, or None if invalid."""
    if wa == 0 or wb == 0:
        return None
    ratio = complex(wb) / complex(wa)
    if (abs(ratio.imag) <= 1e-300 and ratio.real < 0) \
            or abs(cmath.phase(ratio)) >= 0.5 * math.pi:
        return None
    return cmath.log(ratio) / math.log(xb / xa)


def _power_stub(x, w, strict: bool) -> complex:
    """Mass of the local power-law model c x^gamma on (0, x[0]).

    x holds the first three nodes, as floats, and w the integrand's first
    three samples.

    gamma is fitted from the first two samples of the integrand; the fit is
    credible when the second and third samples agree on the exponent, which
    screens out boundary noise on negligible values.  The model integrates
    to w0 * x0 / (1 + gamma); a credible exponent <= -1 means the integral
    diverges, which raises under ``strict`` and degrades to the flat model
    otherwise.
    """
    (x0, x1, x2), (w0, w1, w2) = x, w
    if w0 == 0:
        return 0.0
    gamma = _fit_exponent(x0, x1, w0, w1)
    if gamma is None:
        return w0 * x0  # flat fallback model
    gamma_next = _fit_exponent(x1, x2, w1, w2)
    credible = gamma_next is not None and \
        abs(gamma - gamma_next) <= 0.1 * (1.0 + abs(gamma))
    if not credible:
        return w0 * x0
    if abs(complex(w0).imag) == 0 and abs(gamma.imag) < 1e-12:
        gamma = gamma.real
    re_gamma = complex(gamma).real
    if re_gamma <= -1.0:
        if strict:
            raise SingularityError(
                f"integrand behaves like x^{re_gamma:.3f} near 0: not integrable")
        warnings.warn("stub model diverges; using flat fallback", stacklevel=4)
        return w0 * x0
    if re_gamma > 400.0:
        return 0.0
    return w0 * x0 / (1.0 + gamma)


def _log_trapezoid(grid: LogGrid, weighted):
    """(full, stub, g): integrals of each row of weighted dx over a LogGrid's window and below.

    weighted holds one integrand per row, in the x measure; g = weighted x
    is the integrand in u.  The nodes are uniform in u, so a row's
    full = h (sum g - (g_0 + g_last)/2), and its (0, x_min) stub is the
    fitted power-law model of the row; both come as one number per row.
    One finiteness check and one decay test cover every row: non-finite g
    raises InvalidDataError, and rows that do not decay toward the window
    ends warn once.  The left end is stub-corrected, so only gross
    non-decay matters there; the right end has no tail model at all.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = weighted * grid.x                   # du measure
        totals = g.sum(axis=1).tolist()
    # a non-finite sample leaves its row's sum non-finite
    if not all(map(cmath.isfinite, totals)):
        _require_finite(g)
    peak = np.abs(g).max(axis=1).tolist()
    ends = g[:, ::len(grid) - 1].tolist()       # (g_0, g_last) per row
    if any(abs(last) > 1e-8 * top or abs(first) > 1e-3 * top
           for top, (first, last) in zip(peak, ends)):
        warnings.warn(
            "integrand does not decay at the window ends; "
            "truncation error may dominate", stacklevel=3)
    full = [grid.h * (total - 0.5 * (first + last)) for total, (first, last) in zip(totals, ends)]
    x = grid.x[:3].tolist()
    stub = []
    for w in weighted[:, :3]:  # no comprehension frame: the stub's warning names the caller
        stub.append(_power_stub(x, w, strict=False))
    return full, stub, g


def _weighted_squares(grid: LogGrid, values, powers):
    """Rows of (|v| x^(p/2))^2, the integrands of weighted squared norms.

    values holds one sampled function per row, powers each row's weight
    power p.  The weight goes in before squaring, so a row stays in the
    float range wherever |v|^2 x^p itself does (see norm_sq).  Callers
    silence numpy's overflow and invalid warnings: non-finite rows raise in
    _log_trapezoid.
    """
    root = np.abs(values)
    for row, p in zip(root, powers):
        if p != 0.0:
            row *= grid.x ** (0.5 * p)
    return root * root


def _halved(nodes, g):
    idx = np.arange(0, len(g), 2)
    if idx[-1] != len(g) - 1:
        idx = np.append(idx, len(g) - 1)
    return np.trapezoid(g[idx], nodes[idx])


def integrate(f: GridFunction, weight_power: float = 0.0) -> QuadratureResult:
    """Integral of f(x) x^p over the grid's window plus the (0, x_min) stub.

    On a LogGrid the rule is composite trapezoid in u = ln x with a
    Richardson error estimate from the half-resolution subgrid; the stub is
    the fitted power-law model.  The integrand must decay toward both window
    ends (checked heuristically, warned).  Linearity in f holds to rounding
    for such integrands.
    """
    _require_finite(f.values)
    x = f.grid.x
    p = float(weight_power)
    if isinstance(f.grid, LogGrid):
        with np.errstate(over="ignore"):
            weighted = f.values * x**p          # integrand in the x measure
        full, stub, g = _log_trapezoid(f.grid, weighted[None])
        full = full[0]
        half = _halved(f.grid.u, g[0])
        value = full + stub[0]
    else:
        if x[0] == 0.0 and p != 0.0:
            if p > 0 or f.values[0] == 0:
                w0 = 0.0
            else:
                raise SingularityError("negative weight power at a grid node x = 0")
            weighted = np.concatenate(([w0], f.values[1:] * x[1:] ** p))
        else:
            weighted = f.values * x**p
        _require_finite(weighted)
        full = np.trapezoid(weighted, x)
        half = _halved(x, weighted)
        value = full
    err = abs(full - half) / 3.0
    if not np.iscomplexobj(f.values):
        value = float(np.real(value))
    return QuadratureResult(value=value, error_estimate=float(err))


def norm_sq(f: GridFunction, weight_power: float = 0.0) -> float:
    """Weighted squared norm: integral of |f(x)|^2 x^p dx.

    On a LogGrid the weight goes in before squaring: the integrand is
    (|f| x^(p/2))^2, so it stays in the float range wherever |f|^2 x^p
    itself does, also where |f|^2 underflows or x^p overflows on its own.
    Only x^(p/2) must be finite: on the default window (x_min = 1e-6) that
    is p >= -102, the Birman denominators up to n = 51.  The rule is
    integrate's trapezoid sum in u plus the power-law stub, without its
    error estimate, run on a single row; the ratio functionals run the same
    rule on all their rows at once.  Other grids go through integrate.
    """
    grid, p = f.grid, float(weight_power)
    if isinstance(grid, LogGrid):
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = _weighted_squares(grid, f.values[None], (p,))
        full, stub, _ = _log_trapezoid(grid, weighted)
        return float(np.real(full[0] + stub[0]))
    res = integrate(GridFunction(f.grid, np.abs(f.values) ** 2), weight_power)
    return float(np.real(res.value))


# A power-law panel whose curvature correction is at most this is straight
# to rounding, so the fit keeps pure and complex monomials exact to ~1e-12.
_STRAIGHT = 1e-8
# A step this many times larger than both neighbouring steps is a sampled
# jump: no degree-7 polynomial through eight nodes across it resembles the data.
_JUMP = 8.0


def _log_ratio(ratio):
    """ln of the per-panel sample ratios, real or complex."""
    if np.iscomplexobj(ratio):
        # several times faster than the complex log
        return np.log(np.abs(ratio)) + 1j * np.angle(ratio)
    return np.log(ratio)


def _power_law(w0, ratio, z, du):
    """Panel integrals of w du for w = w0 e^(z s/du), s in (0, du), with e^z = ratio.

    That is w0 du (e^z - 1)/z, by its series where z is near 0 (0/0 at
    z = 0 before that: the callers silence the warning).
    """
    out = (ratio - 1.0) / z
    small = np.abs(z) < 1e-4
    if small.any():
        z = z[small]
        out[small] = 1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0))
    return w0 * du * out


# Weights of the degree-7 polynomial through eight nodes, integrated over one
# panel, in units of h/120960: the centre panel's (symmetric, so four, from
# the panel out) and the one-sided rows of the first, second and third
# panels, mirrored at the right end.
_CENTRE = (68323.0, -9531.0, 1879.0, -191.0)
_END_ROWS = np.array([
    [36799.0, 139849.0, -121797.0, 123133.0, -88547.0, 41499.0, -11351.0, 1375.0],
    [-1375.0, 47799.0, 101349.0, -44797.0, 26883.0, -11547.0, 2999.0, -351.0],
    [351.0, -4183.0, 57627.0, 81693.0, -20227.0, 7227.0, -1719.0, 191.0]])


def _lagrange_panels(q, h):
    """Panel integrals of the degree-7 polynomial through each panel's eight nearest nodes.

    Interior panels take _CENTRE, summed as four symmetric pairs; the three
    panels at each end take _END_ROWS.  The samples are scaled by h/120960
    first, so no partial sum overflows where the masses are in the float
    range.
    """
    c0, c1, c2, c3 = _CENTRE
    s = q * (h / 120960.0)
    out = np.empty(len(q) - 1, dtype=s.dtype)
    out[3:-3] = c0 * (s[3:-4] + s[4:-3]) + c1 * (s[2:-5] + s[5:-2]) \
        + c2 * (s[1:-6] + s[6:-1]) + c3 * (s[:-7] + s[7:])
    out[:3] = _END_ROWS @ s[:8]
    out[-3:] = _END_ROWS[::-1, ::-1] @ s[-8:]
    return out


def _trapezoid(x0, x1, v0, v1):
    """Panel integrals of v dx by the trapezoid rule."""
    return 0.5 * (x1 - x0) * (v0 + v1)


def _samples(grid: Grid, v):
    """(q, w): the Lagrange rule's samples in the grid's uniform coordinate, and v x."""
    w = v * grid.x
    return (w, w) if isinstance(grid, LogGrid) else (v, w)


def _power_fit(du, w):
    """Per-panel integrals of w du for w = c e^(gamma u), before correction.

    Returns the masses, where the fit is valid (nonzero samples, no sign
    flip or half-turn of phase, tame exponent), and the signed curvature
    correction corr = (du^2/12) (ln w)'', taken from the neighbouring panel
    slopes and averaged over the valid nodes at each panel's two ends; a
    panel with none (an end panel next to a sign flip) gets 0/0 = nan,
    which is never read as straight and never applied.  Invalid panels
    divide by zero; the caller silences those warnings.
    """
    ratio = w[1:] / w[:-1]
    ok = (w[:-1] != 0) & (w[1:] != 0) & np.isfinite(ratio)
    ratio = np.where(ok, ratio, 1.0)
    # z is the slope of ln w times du, per panel
    if np.iscomplexobj(ratio):
        z = _log_ratio(ratio)
        ok &= np.abs(z.imag) < 0.5 * np.pi
    else:
        ok &= ratio > 0
        z = _log_ratio(np.where(ok, ratio, 1.0))
    ok &= np.abs(z) < 50.0
    power = _power_law(w[:-1], ratio, z, du)
    ok &= np.isfinite(power)

    slope = z / du
    node_ok = ok[1:] & ok[:-1]
    curv = np.where(node_ok, (slope[1:] - slope[:-1]) / (0.5 * (du[1:] + du[:-1])), 0.0)
    sums = np.concatenate(([0.0], curv)) + np.concatenate((curv, [0.0]))
    counts = np.concatenate(([0], node_ok)) + np.concatenate((node_ok, [0]))
    return power, ok, sums / counts * du**2 / 12.0


def _touched(q):
    """Panels whose Lagrange stencil touches a jump, an exact zero or a non-finite value."""
    step = np.abs(np.diff(q))
    neighbour = np.zeros_like(step)
    neighbour[1:] = step[:-1]
    neighbour[:-1] = np.maximum(neighbour[:-1], step[1:])
    bad = (step > _JUMP * neighbour) | ~np.isfinite(step) | (q[:-1] == 0) | (q[1:] == 0)
    # a panel's stencil spans the panel and three steps on either side (the
    # three end panels at each side reuse the nearest interior stencil)
    pairs = bad[:-1] | bad[1:]
    quads = pairs[:-2] | pairs[2:]
    touched = np.empty(len(step), dtype=bool)
    np.logical_or(quads[:-3], quads[3:], out=touched[3:-3])
    touched[:3] = touched[3]
    touched[-3:] = touched[-4]
    return touched


def _panel_analysis(grid: Grid, v):
    """Per-panel integrals of v dx, and the rule each panel took.

    Three rules, chosen per panel:

    * power-law fit c x^gamma with a log-curvature correction where ln(v x)
      is straight to rounding (|corr| <= _STRAIGHT): exact for pure,
      complex and truncated monomials.  Also used, where valid, on any
      panel whose eight-node stencil touches a jump (a step _JUMP times
      both neighbouring steps), since no polynomial fits across one;
    * the Lagrange panel rule h/120960 (-191 q_{i-3} + 1879 q_{i-2}
      - 9531 q_{i-1} + 68323 q_i + 68323 q_{i+1} - 9531 q_{i+2}
      + 1879 q_{i+3} - 191 q_{i+4}), one-sided _END_ROWS on the three
      panels at each end, everywhere else, including panels where the
      integrand changes sign (on its own the power fit is only second
      order there).  It is eighth order, and exact for polynomials of
      degree 7 in the grid's uniform coordinate: q = v x in u on a
      LogGrid, q = v in x on a LinearGrid;
    * plain trapezoid where neither is valid: the power fit fails and the
      stencil touches a jump, an exact zero or a non-finite value.

    Returns (masses, fit, trapezoid, du, damp, w): the masks of the panels
    on the power fit and on trapezoid (the Lagrange rule takes the rest), each
    panel's width in u, its correction as the factor 1 - corr, clamped to 1
    where |corr| >= 0.5, and the samples w = v x the rules read.
    """
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q, w = _samples(grid, v)
        # on a LinearGrid u = ln x is -inf at x = 0, where the fit is invalid
        du = np.diff(grid.u if isinstance(grid, LogGrid) else np.log(x))
        power, ok, corr = _power_fit(du, w)
        damp = 1.0 - np.where(np.abs(corr) < 0.5, corr, 0.0)
        fallback = np.where(ok, power * damp, _trapezoid(x[:-1], x[1:], v[:-1], v[1:]))
        use_fit = _touched(q) | (ok & (np.abs(corr) <= _STRAIGHT))
        masses = np.where(use_fit, fallback, _lagrange_panels(q, grid.h))
    return masses, use_fit & ok, use_fit & ~ok, du, damp, w


def _panel_masses(grid: Grid, v) -> np.ndarray:
    """Per-panel integrals of v dx, eighth order across sign changes (see _panel_analysis)."""
    return _panel_analysis(grid, v)[0]


def _moment_masses(grid: Grid, v, fit, du, damp, trapezoid):
    """Per-panel integrals of v dx = f x^j dx by the rule _panel_analysis chose for f.

    ``fit`` and ``trapezoid`` index the panels of those two rules (the Lagrange
    rule takes the rest), ``du`` and ``damp`` are the fit panels' widths in u
    and correction factors.  Only the fitted exponent is v's own.  A fit
    panel where v x underflowed to zero, and f x did not, takes trapezoid.
    Returns the masses and the samples w = v x the rules read.
    """
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q, w = _samples(grid, v)
        out = _lagrange_panels(q, grid.h)
        w0 = w[fit]
        ratio = w[fit + 1] / w0
        z = _log_ratio(ratio)
        fitted = _power_law(w0, ratio, z, du) * damp
        lost = ~(np.isfinite(z) & np.isfinite(fitted))
        if lost.any():
            trapezoid = np.concatenate((trapezoid, fit[lost]))
            fit, fitted = fit[~lost], fitted[~lost]
        out[fit] = fitted
        t = trapezoid
        out[t] = _trapezoid(x[t], x[t + 1], v[t], v[t + 1])
    return out, w


def _cumulative(grid: Grid, v, panels) -> np.ndarray:
    """Samples of the running integral: the (0, x_min) stub plus the panel sums."""
    x = grid.x
    stub = _power_stub(x[:3].tolist(), v[:3], strict=True) if isinstance(grid, LogGrid) else 0.0
    dtype = complex if (np.iscomplexobj(panels) or np.iscomplexobj(v)) else float
    out = np.empty(len(x), dtype=dtype)
    out[0] = stub
    with np.errstate(over="ignore"):
        out[1:] = stub + np.cumsum(panels)
    # a non-finite stub or partial sum stays non-finite to the end
    if not cmath.isfinite(out[-1]):
        raise InvalidDataError("running integral leaves the float range")
    return out


def _cumulative_moments(f: GridFunction):
    """Yield the samples of int_0^x t^j f(t) dt for j = 0, 1, 2, ...

    Each is cumulative_integral of f x^j, whose panel rule is decided once,
    from f: ln(f x^(j+1)) = ln(f x) + j u, so the straightness test and the
    curvature correction of every moment are those of f, and so are its
    sampled jumps and exact zeros.  Moment j only samples f x^j, runs the
    Lagrange rule, refits the exponent on the fit panels and fits its stub;
    its samples come as the running product f x ... x.  Moment 0 is
    cumulative_integral(f) itself.  A moment whose samples times x (which
    its panel rules read, and which are the next moment's samples) or whose
    running integral leave the float range raises InvalidDataError.  On a
    LinearGrid from 0, x^j adds a zero at x = 0 that a rule decided for
    f x^j would read as data, falling back to lower-order rules beside it;
    the rule of f keeps the Lagrange rule there.
    """
    _require_finite(f.values)
    grid, v = f.grid, f.values
    masses, fit, trapezoid, du, damp, w = _panel_analysis(grid, v)
    _require_finite(w, "f x leaves the float range")
    yield _cumulative(grid, v, masses)
    del masses  # the later moments need only the rule
    fit, trapezoid = np.flatnonzero(fit), np.flatnonzero(trapezoid)
    du, damp = du[fit], damp[fit]
    for j in itertools.count(2):
        v = w
        masses, w = _moment_masses(grid, v, fit, du, damp, trapezoid)
        _require_finite(w, f"f x^{j} leaves the float range")
        yield _cumulative(grid, v, masses)


def cumulative_integral(f: GridFunction) -> GridFunction:
    """F(x_i) ~ integral of f from 0 (or the left endpoint) to x_i.

    On a LogGrid the unresolved (0, x_min) piece is the fitted power-law
    model; a fitted local exponent <= -1 raises SingularityError.  On a
    LinearGrid integration starts at the left endpoint.
    """
    return GridFunction(f.grid, next(_cumulative_moments(f)))


def differentiate(f: GridFunction, order: int = 1) -> GridFunction:
    """Finite-difference derivative of the stated order (fallback path only).

    On a LogGrid each pass differentiates centrally in u and applies the
    chain rule d/dx = e^{-u} d/du; ends are one-sided.  Second-order
    accurate in the grid spacing per pass; analytic closures should be
    preferred for anything acceptance-critical.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(f.grid) < 2 * order + 2:
        raise ValueError(f"grid too small for order {order} differentiation")
    _require_finite(f.values)
    vals = f.values
    for _ in range(order):
        if isinstance(f.grid, LogGrid):
            vals = np.gradient(vals, f.grid.u, edge_order=2) / f.grid.x
        else:
            vals = np.gradient(vals, f.grid.x, edge_order=2)
    return GridFunction(f.grid, vals)


def write_csv(components, path) -> None:
    """Serialize GridFunctions on one grid as CSV: columns x, re_1, im_1, ..., re_m, im_m.

    A single component's columns are x, re, im.
    """
    x = components[0].grid.x
    if any(not np.array_equal(c.grid.x, x) for c in components[1:]):
        raise InvalidDataError("the components of a CSV must share one grid")
    header = ["x", "re", "im"] if len(components) == 1 else ["x"] + [
        f"{part}_{k}" for k in range(1, len(components) + 1) for part in ("re", "im")]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for xi, *row in zip(x, *(c.values for c in components)):
            out = [repr(float(xi))]
            for val in row:
                out += [repr(float(np.real(val))), repr(float(np.imag(val)))]
            writer.writerow(out)


def read_csv(path) -> list:
    """Load what write_csv wrote: one GridFunction per re/im column pair.

    The grid kind, log-uniform or uniform, is re-derived from the x column.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    data = rows[1:]
    x = np.array([float(r[0]) for r in data])
    if len(x) < 8:
        raise InvalidDataError("CSV needs at least 8 samples")
    raw = np.array([[float(c) for c in r[1:]] for r in data])
    if not raw.shape[1] or raw.shape[1] % 2:
        raise InvalidDataError("CSV needs an x column and then re/im column pairs")
    columns = (raw[:, 0::2] + 1j * raw[:, 1::2]).T
    if x[0] > 0:
        du = np.diff(np.log(x))
        if np.allclose(du, du[0], rtol=1e-8, atol=0):
            return [GridFunction(LogGrid(x[0], x[-1], len(x)), v) for v in columns]
    dx = np.diff(x)
    if np.allclose(dx, dx[0], rtol=1e-8, atol=0):
        return [GridFunction(LinearGrid(x[0], x[-1], len(x)), v) for v in columns]
    raise InvalidDataError("CSV nodes are neither log-uniform nor uniform")
