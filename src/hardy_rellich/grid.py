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
integration, which feeds the averaging operators, runs the eight-node
Lagrange rule in the grid's uniform coordinate (u on a LogGrid, x on a
LinearGrid): eighth order, also where the integrand changes sign or has a
root at a node.  Where no polynomial spans a panel, across a sampled jump
or beside a support edge (the end of a run of exact zeros), the grid is
split: such a break panel takes trapezoid, and the rule runs on each run of
nodes between breaks on its own, so no stencil reads across a break and
each piece keeps its eighth order.  The moments v x^j go through in blocks
of rows, as many as fit a fixed budget of samples (one row from 8192
nodes): a block forms its running products, checks them, splits them and
sums its panel masses in one pass of numpy calls.  The breaks are decided
once, from v: x^j adds no jump or support edge, so every block reuses
them.  A row's results are the same bits in a block as alone, and the
averaging operators' n binomial moments pay for one decision and about
n / rows passes, not n of each.
"""

from __future__ import annotations

import cmath
import csv
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


# A step this many times larger than both neighbouring steps is a sampled
# jump: no degree-7 polynomial through eight nodes across it resembles the data.
_JUMP = 8.0


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

    q holds one integrand per row, or is a single row.  Interior panels
    take _CENTRE, summed as four symmetric pairs; the three panels at each
    end take _END_ROWS.  The samples are scaled by h/120960 first, so no
    partial sum overflows where the masses are in the float range.
    """
    c0, c1, c2, c3 = _CENTRE
    s = q * (h / 120960.0)
    out = np.empty_like(s[..., 1:])
    centre = out[..., 3:-3]
    np.multiply(s[..., 3:-4] + s[..., 4:-3], c0, out=centre)
    centre += c1 * (s[..., 2:-5] + s[..., 5:-2])
    centre += c2 * (s[..., 1:-6] + s[..., 6:-1])
    centre += c3 * (s[..., :-7] + s[..., 7:])
    out[..., :3] = _end_panels(_END_ROWS, s[..., :8])
    out[..., -3:] = _end_panels(_END_ROWS[::-1, ::-1], s[..., -8:])
    return out


def _end_panels(rows, s):
    """The three end panels of each row of s, eight scaled samples a row, by the 3 x 8 weights rows.

    One matrix-vector product per row: one matrix product for the whole
    block would sum in another order, and a row's panels would then depend
    on the rows beside it.
    """
    return (rows @ s[..., None])[..., 0]


def _breaks(q):
    """Indices of the break panels of q, the panels that no polynomial spans.

    A break panel crosses a sampled jump, a step _JUMP times both
    neighbouring steps, or lies beside a support edge: an exact zero that
    ends a run of zeros, that is an interior node k with q_k = 0 and exactly
    one of q_(k-1), q_(k+1) zero.  An isolated root, the inside of a run of
    zeros and a zero at either end of the grid are no breaks: a polynomial
    through them is as good as anywhere.
    """
    step = np.abs(q[1:] - q[:-1])
    neighbour = np.empty_like(step)
    neighbour[0], neighbour[-1] = step[1], step[-2]
    np.maximum(step[:-2], step[2:], out=neighbour[1:-1])
    neighbour *= _JUMP
    brk = step > neighbour
    zero = q == 0
    edge = zero[1:-1] & (zero[:-2] != zero[2:])   # nodes 1 .. N-2
    brk[1:] |= edge
    brk[:-1] |= edge
    return brk.nonzero()[0]


def _split_panels(q, h, breaks):
    """Panel integrals of each row of q dt: the Lagrange rule on each run between break panels.

    The break panels cut the nodes into runs, the same for every row.  A
    run of eight nodes or more takes the Lagrange rule on its own nodes, so
    no stencil reads across a break: _lagrange_panels runs once on the
    whole rows, which gives a panel three or more panels inside its run the
    run's own centre stencil, and the three panels at each inner end of a
    run take _END_ROWS again, on the run's first or last eight nodes.  A
    break panel, and every panel of a shorter run, takes trapezoid.
    """
    out = _lagrange_panels(q, h)
    if not len(breaks):
        return out
    scale, last = h / 120960.0, q.shape[-1] - 1
    short = []
    for start, end in zip([0, *(breaks + 1).tolist()], [*breaks.tolist(), last]):
        if end - start >= 7:
            if start:
                out[..., start:start + 3] = _end_panels(_END_ROWS, q[..., start:start + 8] * scale)
            if end < last:
                out[..., end - 3:end] = _end_panels(_END_ROWS[::-1, ::-1],
                                                    q[..., end - 7:end + 1] * scale)
        elif end > start:
            short.append(np.arange(start, end))
    k = np.concatenate((breaks, *short)) if short else breaks
    out[..., k] = q[..., k] * (0.5 * h) + q[..., k + 1] * (0.5 * h)
    return out


# Samples per block of moment rows: a block of a few thousand samples stays
# in cache and shares each numpy call between its rows.  From 8192 nodes a
# block is one row: two rows of 8192 ran T_4 and T_8 about 10 % slower than
# one, and a block holds all of its rows' temporaries at once.
_BLOCK = 8192


def _moment_panels(f: GridFunction, count: int):
    """Yield (heads, panels) for the moments v = f x^j, j < count, a block of rows at a time.

    A block holds max(1, _BLOCK // N) consecutive moments: panels holds
    their panel integrals of v dx, one row per moment, and heads the first
    three samples of each v, which its (0, x_min) stub reads.  The rule
    runs in the grid's uniform coordinate, on q = v x in u on a LogGrid and
    on q = v in x on a LinearGrid, split at f's break panels.  The breaks
    are decided once, from moment 0: x^j is smooth and nonzero inside the
    window, so it adds no jump or support edge.  Each block forms the
    running products v x, checks them for finiteness and splits them in
    one pass.  Non-finite samples of f raise InvalidDataError, and so does
    a moment whose samples times x (which the rule reads on a LogGrid, and
    which are the next moment's samples) leave the float range; the rows
    before that moment are yielded first, so the caller's checks on them
    come first, as if the moments went one at a time.
    """
    _require_finite(f.values)
    grid, v, breaks = f.grid, f.values, None
    size = max(1, _BLOCK // len(grid))
    for j in range(0, count, size):
        w = np.empty((min(size, count - j), len(grid)), dtype=v.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            above = v
            for row in w:  # w[k] = v x^(k+1), each row the one above times x
                above = np.multiply(above, grid.x, out=row)
        rows = len(w)
        if not np.isfinite(w).all():
            rows = int(np.argmin(np.isfinite(w).all(axis=1)))
        if rows:
            heads = [v[:3], *w[:rows - 1, :3]]
            q = w[:rows] if isinstance(grid, LogGrid) else np.concatenate((v[None], w[:rows - 1]))
            if breaks is None:
                breaks = _breaks(q[0])
            yield heads, _split_panels(q, grid.h, breaks)
        if rows < len(w):
            power = j + rows + 1
            raise InvalidDataError("f x leaves the float range" if power == 1
                                   else f"f x^{power} leaves the float range")
        v = w[-1]


def _running_integrals(grid: Grid, heads, panels) -> np.ndarray:
    """Rows of the running integral of each moment: its (0, x_min) stub plus its panel sums.

    heads and panels are a block of _moment_panels.  The stub is the
    power-law model of the moment on a LogGrid, where a diverging one
    raises SingularityError, and 0 on a LinearGrid.  A moment whose running
    integral leaves the float range raises InvalidDataError.  The moments
    are checked in order, the stub before the sum.
    """
    out = np.empty((len(panels), panels.shape[1] + 1), dtype=panels.dtype)
    x = grid.x[:3].tolist()
    log = isinstance(grid, LogGrid)
    with np.errstate(over="ignore"):
        np.cumsum(panels, axis=-1, out=out[:, 1:])
        for row, w in zip(out, heads):
            row[0] = stub = _power_stub(x, w, strict=True) if log else 0.0
            # a non-finite stub or partial sum stays non-finite to the end
            if not cmath.isfinite(stub + row[-1]):
                raise InvalidDataError("running integral leaves the float range")
        out[:, 1:] += out[:, :1]
    return out


def cumulative_integral(f: GridFunction) -> GridFunction:
    """F(x_i) ~ integral of f from 0 (or the left endpoint) to x_i.

    On a LogGrid the unresolved (0, x_min) piece is the fitted power-law
    model; a fitted local exponent <= -1 raises SingularityError.  On a
    LinearGrid integration starts at the left endpoint.
    """
    heads, panels = next(_moment_panels(f, 1))
    return GridFunction(f.grid, _running_integrals(f.grid, heads, panels)[0])


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
