"""Sampled functions on (0, inf) and finite intervals, plus their calculus.

Log-uniform grids are the default on the half line: the inverse-power
weights and the Mellin transform are both natural in u = ln x.  Plain
integration is composite trapezoid in u (spectrally accurate for smooth
integrands that decay at the window ends) plus an explicit power-law model
for the unresolved (0, x_min) stub.  Cumulative integration, which feeds
the averaging operators, picks one of three panel rules per panel: a
power-law fit with a log-curvature correction where ln(v x) is straight
to rounding (exact for monomials, also used beside sampled jumps), a
cubic rule in the grid's uniform coordinate everywhere else (fourth order
also where the integrand changes sign, where the power fit is only second
order), and plain trapezoid where neither applies (exact zeros,
non-finite values).
"""

from __future__ import annotations

import cmath
import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

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

DEFAULT_WINDOW = (1e-6, 1e6)
DEFAULT_POINTS = 4096


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
        self.u = np.linspace(math.log(x_min), math.log(x_max), count)
        self.h = self.u[1] - self.u[0]
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
        self.h = self.x[1] - self.x[0]
        self.x.flags.writeable = False

    def __len__(self):
        return self.count

    def __repr__(self):
        return f"LinearGrid({self.a:g}, {self.b:g}, {self.count})"


Grid = Union[LogGrid, LinearGrid]


class GridFunction:
    """Complex samples on a grid; vector mode stores one length-m row per node.

    Values are frozen after construction, so instances are freely shareable.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.ndim not in (1, 2) or values.shape[0] != len(grid):
            raise InvalidDataError(
                f"values shape {values.shape} does not match grid of {len(grid)} nodes")
        if not np.iscomplexobj(values):
            values = values.astype(float)
        self.grid = grid
        self.values = values.copy()
        self.values.flags.writeable = False

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.x)))

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @property
    def m(self) -> int:
        return self.values.shape[1] if self.is_vector else 1

    def map(self, fn: Callable) -> "GridFunction":
        return GridFunction(self.grid, fn(self.values))

    def __add__(self, other):
        if isinstance(other, GridFunction) and other.grid is self.grid:
            return GridFunction(self.grid, self.values + other.values)
        return NotImplemented

    def __rmul__(self, scalar):
        return GridFunction(self.grid, scalar * self.values)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float


def _require_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidDataError("grid samples contain non-finite values")


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

    gamma is fitted from the first two samples of the integrand; the fit is
    credible when the second and third samples agree on the exponent, which
    screens out boundary noise on negligible values.  The model integrates
    to w0 * x0 / (1 + gamma); a credible exponent <= -1 means the integral
    diverges, which raises under ``strict`` and degrades to the flat model
    otherwise.
    """
    x0, w0 = float(x[0]), w[0]
    if w0 == 0:
        return 0.0
    gamma = _fit_exponent(x0, float(x[1]), w0, w[1])
    if gamma is None:
        return w0 * x0  # flat fallback model
    gamma_next = _fit_exponent(float(x[1]), float(x[2]), w[1], w[2])
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
        warnings.warn("stub model diverges; using flat fallback", stacklevel=3)
        return w0 * x0
    if re_gamma > 400.0:
        return 0.0
    return w0 * x0 / (1.0 + gamma)


def _decay_warning(weighted) -> None:
    # the left end is stub-corrected, so only gross non-decay matters there;
    # the right end has no tail model at all
    peak = np.max(np.abs(weighted))
    if peak > 0 and (abs(weighted[-1]) > 1e-8 * peak or abs(weighted[0]) > 1e-3 * peak):
        warnings.warn(
            "integrand does not decay at the window ends; "
            "truncation error may dominate", stacklevel=3)


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
    if f.is_vector:
        raise InvalidDataError("integrate expects scalar values; use norm_sq for vectors")
    _require_finite(f.values)
    x = f.grid.x
    p = float(weight_power)
    if isinstance(f.grid, LogGrid):
        with np.errstate(over="ignore"):
            weighted = f.values * x**p          # integrand in the x measure
            g = weighted * x                    # du measure: f(e^u) e^{u(p+1)}
        _require_finite(g)
        _decay_warning(g)
        full = np.trapezoid(g, f.grid.u)
        half = _halved(f.grid.u, g)
        stub = _power_stub(x, weighted, strict=False)
        value = full + stub
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
    """Weighted squared norm: integral of ||f(x)||^2 x^p dx.

    Vector values contribute their pointwise squared Euclidean norm.
    """
    _require_finite(f.values)
    sq = np.abs(f.values) ** 2
    if f.is_vector:
        sq = sq.sum(axis=1)
    res = integrate(GridFunction(f.grid, sq), weight_power)
    return float(np.real(res.value))


# A power-law panel whose curvature correction is at most this is straight
# to rounding, so the fit keeps pure and complex monomials exact to ~1e-12.
_STRAIGHT = 1e-8
# A step this many times larger than both neighbouring steps is a sampled
# jump: no cubic through four nodes across it resembles the data.
_JUMP = 8.0


def _power_fit(u, w):
    """Per-panel integrals of w du for w = c e^(gamma u), curvature-corrected.

    Returns the masses, where the fit is valid (nonzero samples, no sign
    flip or half-turn of phase, tame exponent), and the correction before
    its |corr| < 0.5 clamp, which the caller reads as curvature of ln w.
    Invalid panels divide by zero; the caller silences those warnings.
    """
    du = np.diff(u)
    ratio = w[1:] / w[:-1]
    ok = (w[:-1] != 0) & (w[1:] != 0) & np.isfinite(ratio)
    ratio = np.where(ok, ratio, 1.0)
    # z is the slope of ln w times du, per panel
    if np.iscomplexobj(w):
        phase = np.angle(ratio)
        ok &= np.abs(phase) < 0.5 * np.pi
        z = np.log(np.abs(ratio)) + 1j * phase  # several times faster than complex log
    else:
        ok &= ratio > 0
        z = np.log(np.where(ok, ratio, 1.0))
    ok &= np.abs(z) < 50.0
    # the panel integral w0 du (e^z - 1)/z, with e^z = ratio, by its
    # series where z is near 0 (which includes every invalid panel)
    small = np.abs(z) < 1e-4
    series = 1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z / 24.0))
    power = w[:-1] * du * np.where(small, series, (ratio - 1.0) / np.where(small, 1.0, z))
    ok &= np.isfinite(power)

    # curvature of ln w in u at the interior nodes from neighbouring panel
    # slopes, averaged over the valid nodes at each panel's two ends; a
    # panel with none (an end panel next to a sign flip) gets 0/0 = nan,
    # which is never read as straight and never applied
    slope = z / du
    node_ok = ok[1:] & ok[:-1]
    curv = np.where(node_ok, (slope[1:] - slope[:-1]) / (0.5 * (du[1:] + du[:-1])), 0.0)
    sums = np.concatenate(([0.0], curv)) + np.concatenate((curv, [0.0]))
    counts = np.concatenate(([0], node_ok)) + np.concatenate((node_ok, [0]))
    corr = sums / counts * du**2 / 12.0
    fitted = power * (1.0 - np.where(np.abs(corr) < 0.5, corr, 0.0))
    return fitted, ok, np.abs(corr)


def _cubic_panels(q, h):
    """Panel integrals of the cubic through each panel's four nearest nodes."""
    out = np.empty(len(q) - 1, dtype=q.dtype)
    out[1:-1] = 13.0 * (q[1:-2] + q[2:-1]) - (q[:-3] + q[3:])
    out[0] = 9.0 * q[0] + 19.0 * q[1] - 5.0 * q[2] + q[3]
    out[-1] = q[-4] - 5.0 * q[-3] + 19.0 * q[-2] + 9.0 * q[-1]
    return out * (h / 24.0)


def _panel_masses(grid: Grid, v) -> np.ndarray:
    """Per-panel integrals of v dx, fourth order across sign changes.

    Three rules, chosen per panel:

    * power-law fit c x^gamma with a log-curvature correction where ln(v x)
      is straight to rounding (|corr| <= _STRAIGHT): exact for pure,
      complex and truncated monomials.  Also used, where valid, on any
      panel whose four-node stencil touches a jump (a step _JUMP times
      both neighbouring steps), since no cubic fits across one;
    * the cubic panel rule h/24 (-q_{i-1} + 13 q_i + 13 q_{i+1} - q_{i+2}),
      one-sided (9, 19, -5, 1)/24 on the end panels, everywhere else,
      including panels where the integrand changes sign (on its own the
      power fit is only second order there).  It runs in the grid's
      uniform coordinate: q = v x in u on a LogGrid, q = v in x on a
      LinearGrid;
    * plain trapezoid where neither is valid: the power fit fails and the
      stencil touches a jump, an exact zero or a non-finite value.
    """
    x = grid.x
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(grid, LogGrid):
            u = grid.u
            q = w = v * x
        else:
            u = np.log(x)  # -inf at x = 0, where the power fit is invalid
            q, w = v, v * x
        fitted, ok, corr = _power_fit(u, w)
        fallback = np.where(ok, fitted, 0.5 * np.diff(x) * (v[:-1] + v[1:]))

        step = np.abs(np.diff(q))
        neighbour = np.zeros_like(step)
        neighbour[1:] = step[:-1]
        neighbour[:-1] = np.maximum(neighbour[:-1], step[1:])
        bad = (step > _JUMP * neighbour) | ~np.isfinite(step) | (q[:-1] == 0) | (q[1:] == 0)
    # a panel's stencil spans the panel and its two neighbours (the end
    # panels reuse the nearest interior stencil)
    touched = bad[:-2] | bad[1:-1] | bad[2:]
    touched = np.concatenate((touched[:1], touched, touched[-1:]))
    use_fit = touched | (ok & (corr <= _STRAIGHT))
    return np.where(use_fit, fallback, _cubic_panels(q, grid.h))


def cumulative_integral(f: GridFunction) -> GridFunction:
    """F(x_i) ~ integral of f from 0 (or the left endpoint) to x_i.

    On a LogGrid the unresolved (0, x_min) piece is the fitted power-law
    model; a fitted local exponent <= -1 raises SingularityError.  On a
    LinearGrid integration starts at the left endpoint.
    """
    if f.is_vector:
        raise InvalidDataError("cumulative_integral expects scalar values")
    _require_finite(f.values)
    x = f.grid.x
    v = f.values
    stub = _power_stub(x, v, strict=True) if isinstance(f.grid, LogGrid) else 0.0
    panels = _panel_masses(f.grid, v)
    dtype = complex if (np.iscomplexobj(panels) or np.iscomplexobj(v)) else float
    out = np.empty(len(x), dtype=dtype)
    out[0] = stub
    out[1:] = stub + np.cumsum(panels)
    return GridFunction(f.grid, out)


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
    if f.is_vector:
        raise InvalidDataError("differentiate expects scalar values")
    _require_finite(f.values)
    vals = f.values
    for _ in range(order):
        if isinstance(f.grid, LogGrid):
            vals = np.gradient(vals, f.grid.u, edge_order=2) / f.grid.x
        else:
            vals = np.gradient(vals, f.grid.x, edge_order=2)
    return GridFunction(f.grid, vals)


def write_csv(f: GridFunction, path) -> None:
    """Serialize as CSV: columns x, re, im (or x, re_1, im_1, ..., re_m, im_m)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if f.is_vector:
            header = ["x"]
            for k in range(1, f.m + 1):
                header += [f"re_{k}", f"im_{k}"]
            writer.writerow(header)
            for xi, row in zip(f.grid.x, f.values):
                out = [repr(float(xi))]
                for val in row:
                    out += [repr(float(np.real(val))), repr(float(np.imag(val)))]
                writer.writerow(out)
        else:
            writer.writerow(["x", "re", "im"])
            for xi, val in zip(f.grid.x, f.values):
                writer.writerow([repr(float(xi)),
                                 repr(float(np.real(val))),
                                 repr(float(np.imag(val)))])


def read_csv(path) -> GridFunction:
    """Load a GridFunction written by write_csv, re-deriving the grid kind."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    x = np.array([float(r[0]) for r in data])
    if len(x) < 8:
        raise InvalidDataError("CSV needs at least 8 samples")
    raw = np.array([[float(c) for c in r[1:]] for r in data])
    values = raw[:, 0::2] + 1j * raw[:, 1::2]
    if values.shape[1] == 1:
        values = values[:, 0]
    if x[0] > 0:
        du = np.diff(np.log(x))
        if np.allclose(du, du[0], rtol=1e-8, atol=0):
            return GridFunction(LogGrid(x[0], x[-1], len(x)), values)
    dx = np.diff(x)
    if np.allclose(dx, dx[0], rtol=1e-8, atol=0):
        return GridFunction(LinearGrid(x[0], x[-1], len(x)), values)
    raise InvalidDataError("CSV nodes are neither log-uniform nor uniform")
