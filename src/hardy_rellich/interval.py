"""Finite-interval inequalities with boundary-distance weights, and vectors.

On (a, c) the weight is the distance to whichever boundary the test
function vanishes at: (x - a) for left-vanishing, (c - x) for
right-vanishing, and d(x) = min(x - a, c - x) when it vanishes at both.
d has its kink at the midpoint.  The nodes are uniform, with an even
number of panels so that the midpoint is a node: no panel straddles the
kink, and the d-weighted trapezoid sum is exactly the sum of its (x - a)-
and (c - x)-weighted halves.  Each closure is sampled once: f and f^(n)
on all nodes (and f^(j), 0 < j < n, once for the vanishing check), and the
removable 0/0 at a vanishing end is read from the f^(n) samples there.
The refusals every ratio route shares (non-finite sums, a vanishing
denominator, a ratio at or below the constant) are those of
functional._build_report; interval_ratio refuses all but analytic closures.
The vector-valued ratio on the half line, vector_birman_ratio, is
functional.birman_ratio of a list of scalar components, analytic or
sampled, through the same core (functional._halfline_ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import AnalyticFunction
from .constants import SIDES, _check_index, _float_constant
from .functional import RatioReport, _build_report, _halfline_ratio
from .grid import GridFunction, LogGrid

__all__ = [
    "IntervalProblem",
    "interval_ratio",
    "vector_birman_ratio",
]


@dataclass(frozen=True)
class IntervalProblem:
    """Index n, interval (a, c), and which boundary the function vanishes at."""

    n: int
    a: float
    c: float
    side: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "n", _check_index(self.n))
        if not (0 <= self.a < self.c < math.inf):
            raise ValueError(f"need 0 <= a < c < inf, got ({self.a}, {self.c})")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")


def _quad_nodes(problem: IntervalProblem, panels: int) -> np.ndarray:
    """Uniform nodes on [a, c]; an odd panel count gains one, keeping the midpoint a node."""
    if panels < 2:
        raise ValueError(f"need at least 2 panels, got {panels}")
    return np.linspace(problem.a, problem.c, panels + panels % 2 + 1)


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """|v|^2, with no complex cast for real samples."""
    return np.abs(values) ** 2 if np.iscomplexobj(values) else values * values


def _max_abs(values: np.ndarray) -> float:
    """max |v|, with no temporary array for real samples."""
    if np.iscomplexobj(values):
        return float(np.max(np.abs(values)))
    return max(float(np.max(values)), -float(np.min(values)))


def _trapezoid(values: np.ndarray, h: float) -> float:
    """Trapezoid sum of node values over uniform panels of width h."""
    return h * (float(np.sum(values)) - 0.5 * float(values[0] + values[-1]))


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
                   panels: int = 4096) -> RatioReport:
    """Finite-interval ratio of derivative energy to distance-weighted mass.

    A plain trapezoid rule on _quad_nodes.  Any f but an AnalyticFunction,
    and a mismatch between the declared vanishing and the closures, raise
    ValueError; the refusals of _build_report follow: non-finite sums raise
    InvalidDataError, a numerically zero f TrivialFunctionError, and a
    ratio at or below c_n, which the inequality rules out, ConvergenceError
    with the ratio as last_estimate.
    """
    n = problem.n
    if not isinstance(f, AnalyticFunction):
        raise ValueError("interval ratios need a scalar analytic test function")
    if f.order < n:
        raise ValueError(f"ratio of order {n} needs {n} derivative closures")
    constant = _float_constant("c_n", n)
    nodes = _quad_nodes(problem, panels)
    h = (problem.c - problem.a) / (len(nodes) - 1)
    # unwarned, as GridFunction.from_callable samples: non-finite sums are refused
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.asarray(f.deriv(0)(nodes))
        _boundary_consistency(problem, f, nodes, fx)
        dn = np.asarray(f.deriv(n)(nodes))
        numerator = _trapezoid(_abs_sq(dn), h)
        denominator = _trapezoid(_weighted_integrand(problem, nodes, fx, (dn[0], dn[-1])), h)
    return _build_report(n, numerator, denominator, constant,
                         side=problem.side, a=problem.a, c=problem.c)


def vector_birman_ratio(n: int, f: Sequence[Union[AnalyticFunction, GridFunction]],
                        grid: Optional[LogGrid] = None) -> RatioReport:
    """Half-line ratio for vector values: birman_ratio(n, f, grid) of a list f, bit for bit.

    The components are analytic closures (preferred), sampled data, or a
    mix; a scalar raises ValueError.
    """
    if not isinstance(f, (list, tuple)):
        raise ValueError(f"a vector is a list of components, got {type(f).__name__}")
    n = _check_index(n)
    return _halfline_ratio(n, 0.0, f, grid, _float_constant("c_n", n))
