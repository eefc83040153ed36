"""Finite-interval inequalities with boundary-distance weights, and vectors.

On (a, c) the weight is the distance to whichever boundary the test
function vanishes at: (x - a) for left-vanishing, (c - x) for
right-vanishing, and d(x) = min(x - a, c - x) when it vanishes at both.
The d-weighted integral splits exactly at the midpoint, where d has its
kink; the quadrature keeps the midpoint on a node so no panel straddles
the kink.  Each closure is sampled once per node set: f and f^(n) on all
nodes (and f^(j), 0 < j < n, once for the vanishing check), and the
removable 0/0 at a vanishing end is read from the f^(n) samples there.
The vector-valued ratio replaces |f|^2 by the pointwise squared Euclidean
norm componentwise and inherits strict positivity of the slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import AnalyticFunction
from .constants import SIDES, birman_constant
from .errors import TrivialFunctionError
from .functional import RatioReport, _build_report
from .grid import GridFunction, LogGrid, differentiate, norm_sq

__all__ = [
    "IntervalProblem",
    "interval_ratio",
    "interval_denominator_pieces",
    "vector_birman_ratio",
]

MAX_COMPONENTS = 64


@dataclass(frozen=True)
class IntervalProblem:
    """Index n, interval (a, c), and which boundary the function vanishes at."""

    n: int
    a: float
    c: float
    side: str = "both"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("index must be >= 1")
        if not (0 <= self.a < self.c < math.inf):
            raise ValueError(f"need 0 <= a < c < inf, got ({self.a}, {self.c})")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")


def _quad_nodes(problem: IntervalProblem, panels: int, refine_levels: int) -> np.ndarray:
    """Uniform nodes with midpoint included and geometric endpoint clusters.

    Three halving levels against each vanishing boundary resolve the
    inverse-power weight without an adaptive mesh.  The cluster nodes go
    into the first and last panel in order, so the array is the sorted
    union without a sort.
    """
    if panels < 2:
        raise ValueError(f"need at least 2 panels, got {panels}")
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be >= 0, got {refine_levels}")
    if panels % 2:
        panels += 1  # keep the midpoint on a node
    nodes = np.linspace(problem.a, problem.c, panels + 1)
    h = (problem.c - problem.a) / panels
    steps = h / 2.0 ** np.arange(refine_levels, 0, -1)   # h/2^L, ..., h/2
    left = right = steps[:0]
    if problem.side in ("left", "both"):
        left = _inside(problem.a + steps, nodes[0], nodes[1])
    if problem.side in ("right", "both"):
        right = _inside(problem.c - steps[::-1], nodes[-2], nodes[-1])
    if left.size or right.size:
        nodes = np.concatenate((nodes[:1], left, nodes[1:-1], right, nodes[-1:]))
    return nodes


def _inside(extras: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The distinct cluster nodes strictly between two uniform nodes."""
    extras = np.unique(extras)
    return extras[(extras > lo) & (extras < hi)]


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """|v|^2, with no complex cast for real samples."""
    return np.abs(values) ** 2 if np.iscomplexobj(values) else values * values


def _max_abs(values: np.ndarray) -> float:
    """max |v|, with no temporary array for real samples."""
    if np.iscomplexobj(values):
        return float(np.max(np.abs(values)))
    return max(float(np.max(values)), -float(np.min(values)))


def _trapezoid(values: np.ndarray, widths: np.ndarray) -> float:
    """Trapezoid sum of node values over panels of the given widths."""
    return 0.5 * float(np.dot(widths, values[1:]) + np.dot(widths, values[:-1]))


def _boundary_consistency(problem: IntervalProblem, f: AnalyticFunction,
                          nodes: np.ndarray, fx: np.ndarray) -> None:
    """Spot-check that the declared boundary vanishing matches the closures.

    fx holds the samples of f on nodes; each derivative j >= 1 below n is
    sampled once and its ends read from that array.
    """
    n = problem.n
    ends = []
    if problem.side in ("left", "both"):
        ends.append((0, problem.a))
    if problem.side in ("right", "both"):
        ends.append((-1, problem.c))
    for j in range(n):
        values = fx if j == 0 else np.asarray(f.deriv(j)(nodes))
        scale = _max_abs(values) + 1e-300
        for end, point in ends:
            if abs(values[end]) > 1e-6 * scale:
                raise ValueError(
                    f"function does not vanish to order {n} at x = {point} "
                    f"(derivative {j} is nonzero)")


def _weighted_integrand(problem: IntervalProblem, nodes: np.ndarray, fx: np.ndarray,
                        dn_ends: tuple) -> np.ndarray:
    """|f|^2 / weight^(2n) with the removable 0/0 at the boundaries filled in.

    fx holds the samples of f on nodes, and dn_ends the values of f^(n) at
    nodes[0] and nodes[-1]; only the ends where the weight vanishes use them.
    """
    n, a, c = problem.n, problem.a, problem.c
    # the weight is positive on nodes[lo:hi] and vanishes outside it
    lo = 1 if problem.side in ("left", "both") else 0
    hi = len(nodes) - 1 if problem.side in ("right", "both") else len(nodes)
    inner = nodes[lo:hi]
    out = np.empty(len(nodes))
    weight = out[lo:hi]  # the inner values are built in place
    if problem.side == "left":
        np.subtract(inner, a, out=weight)
    elif problem.side == "right":
        np.subtract(c, inner, out=weight)
    else:
        np.minimum(np.subtract(inner, a, out=weight), c - inner, out=weight)
    if n > 1:
        weight **= n
    # |f|^2 / weight^(2n) = (|f| / weight^n)^2
    samples = fx[lo:hi]
    np.divide(np.abs(samples) if np.iscomplexobj(samples) else samples, weight, out=weight)
    np.square(weight, out=weight)
    # limit at a vanishing boundary: |f^(n)(b)|^2 / (n!)^2
    if lo:
        out[0] = (abs(dn_ends[0]) / math.factorial(n)) ** 2
    if hi < len(nodes):
        out[-1] = (abs(dn_ends[1]) / math.factorial(n)) ** 2
    return out


def interval_ratio(problem: IntervalProblem, f: AnalyticFunction,
                   panels: int = 4096, refine_levels: int = 3) -> RatioReport:
    """Finite-interval ratio of derivative energy to distance-weighted mass.

    Strictly exceeds the sharp constant for admissible nonzero functions; a
    numerically zero f raises TrivialFunctionError, and a mismatch between
    the declared vanishing and the closures raises ValueError.
    """
    n = problem.n
    if f.order < n:
        raise ValueError(f"ratio of order {n} needs {n} derivative closures")
    nodes = _quad_nodes(problem, panels, refine_levels)
    fx = np.asarray(f.deriv(0)(nodes))
    _boundary_consistency(problem, f, nodes, fx)
    dn = np.asarray(f.deriv(n)(nodes))
    widths = np.diff(nodes)
    numerator = _trapezoid(_abs_sq(dn), widths)
    denominator = _trapezoid(_weighted_integrand(problem, nodes, fx, (dn[0], dn[-1])), widths)
    constant = float(birman_constant(n).c)
    return _build_report(n, numerator, denominator, constant,
                         side=problem.side, a=problem.a, c=problem.c)


def interval_denominator_pieces(problem: IntervalProblem, f: AnalyticFunction,
                                panels: int = 4096, refine_levels: int = 3) -> tuple:
    """(full d-weighted, left-half (x-a)-weighted, right-half (c-x)-weighted).

    The d-weighted integral over (a, c) equals the sum of the two half
    integrals exactly, because d has its kink at the midpoint; all three
    are computed through separate passes so the identity is a real check.
    """
    if problem.side != "both":
        raise ValueError("the splitting identity concerns the distance weight")
    nodes = _quad_nodes(problem, panels, refine_levels)
    fx = np.asarray(f.deriv(0)(nodes))
    dn_ends = tuple(np.asarray(f.deriv(problem.n)(nodes[[0, -1]])))
    widths = np.diff(nodes)
    full = _trapezoid(_weighted_integrand(problem, nodes, fx, dn_ends), widths)
    # split at the middle node, which linspace may round off (a + c) / 2: a
    # split beside it would drop the panel between them from both halves
    m = int(np.argmin(np.abs(nodes - 0.5 * (problem.a + problem.c))))
    left = IntervalProblem(problem.n, problem.a, problem.c, "left")
    right = IntervalProblem(problem.n, problem.a, problem.c, "right")
    lo, hi = slice(None, m + 1), slice(m, None)
    left_val = _trapezoid(_weighted_integrand(left, nodes[lo], fx[lo], dn_ends), widths[:m])
    right_val = _trapezoid(_weighted_integrand(right, nodes[hi], fx[hi], dn_ends), widths[m:])
    return full, left_val, right_val


VectorInput = Union[GridFunction, Sequence[AnalyticFunction]]


def vector_birman_ratio(n: int, f: VectorInput,
                        grid: Optional[LogGrid] = None) -> RatioReport:
    """Half-line ratio for vector values: componentwise squared norms summed.

    Accepts a tuple of analytic component closures (preferred) or a
    vector-valued GridFunction, in which case the n-th derivative falls
    back to finite differences with degraded accuracy.
    """
    constant = float(birman_constant(n).c)
    if isinstance(f, GridFunction):
        values = f.values if f.is_vector else f.values[:, None]
        if values.shape[1] > MAX_COMPONENTS:
            raise ValueError(f"at most {MAX_COMPONENTS} components supported")
        numerator = 0.0
        denominator = 0.0
        for col in range(values.shape[1]):
            comp = GridFunction(f.grid, values[:, col])
            numerator += norm_sq(differentiate(comp, n))
            denominator += norm_sq(comp, -2.0 * n)
        return _build_report(n, numerator, denominator, constant,
                             m=values.shape[1])
    components = list(f)
    if not components:
        raise TrivialFunctionError("empty component list")
    if len(components) > MAX_COMPONENTS:
        raise ValueError(f"at most {MAX_COMPONENTS} components supported")
    grid = grid or LogGrid.default()
    numerator = 0.0
    denominator = 0.0
    for comp in components:
        if comp.order < n:
            raise ValueError(f"every component needs {n} derivative closures")
        numerator += norm_sq(GridFunction.from_callable(grid, comp.deriv(n)))
        denominator += norm_sq(GridFunction.from_callable(grid, comp.deriv(0)), -2.0 * n)
    return _build_report(n, numerator, denominator, constant, m=len(components))
