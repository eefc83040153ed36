"""Finite-interval inequalities with boundary-distance weights, and vectors.

On (a, c) the weight is the distance to whichever boundary the test
function vanishes at: (x - a) for left-vanishing, (c - x) for
right-vanishing, and d(x) = min(x - a, c - x) when it vanishes at both.
The d-weighted integral splits exactly at the midpoint, where d has its
kink; the quadrature keeps the midpoint on a node so no panel straddles
the kink.  The vector-valued ratio replaces |f|^2 by the pointwise squared
Euclidean norm componentwise and inherits strict positivity of the slack.
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
    inverse-power weight without an adaptive mesh.
    """
    if panels < 2:
        raise ValueError(f"need at least 2 panels, got {panels}")
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be >= 0, got {refine_levels}")
    if panels % 2:
        panels += 1  # keep the midpoint on a node
    nodes = np.linspace(problem.a, problem.c, panels + 1)
    h = (problem.c - problem.a) / panels
    extras = []
    if problem.side in ("left", "both"):
        extras += [problem.a + h / 2**k for k in range(1, refine_levels + 1)]
    if problem.side in ("right", "both"):
        extras += [problem.c - h / 2**k for k in range(1, refine_levels + 1)]
    if extras:
        nodes = np.unique(np.concatenate((nodes, extras)))
    return nodes


def _boundary_consistency(problem: IntervalProblem, f: AnalyticFunction,
                          nodes: np.ndarray) -> None:
    """Spot-check that the declared boundary vanishing matches the closures."""
    n = problem.n
    checks = []
    if problem.side in ("left", "both"):
        checks.append(problem.a)
    if problem.side in ("right", "both"):
        checks.append(problem.c)
    for j in range(n):
        deriv = f.deriv(j)
        scale = float(np.max(np.abs(deriv(nodes)))) + 1e-300
        for point in checks:
            if abs(complex(np.asarray(deriv(point), dtype=complex).item())) > 1e-6 * scale:
                raise ValueError(
                    f"function does not vanish to order {n} at x = {point} "
                    f"(derivative {j} is nonzero)")


def _weighted_integrand(problem: IntervalProblem, f: AnalyticFunction,
                        nodes: np.ndarray) -> np.ndarray:
    """|f|^2 / weight^(2n) with the removable 0/0 at the boundaries filled in."""
    n, a, c = problem.n, problem.a, problem.c
    fx = np.asarray(f.deriv(0)(nodes), dtype=complex)
    if problem.side == "left":
        weight = nodes - a
    elif problem.side == "right":
        weight = c - nodes
    else:
        weight = np.minimum(nodes - a, c - nodes)
    out = np.empty(len(nodes))
    inner = weight > 0
    out[inner] = np.abs(fx[inner]) ** 2 / weight[inner] ** (2 * n)
    # limit at a vanishing boundary: |f^(n)(b)|^2 / (n!)^2
    top = f.deriv(n)
    for i in np.nonzero(~inner)[0]:
        lim = abs(complex(np.asarray(top(nodes[i]), dtype=complex).item())) / math.factorial(n)
        out[i] = lim**2
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
    _boundary_consistency(problem, f, nodes)
    dn = np.asarray(f.deriv(n)(nodes), dtype=complex)
    numerator = float(np.trapezoid(np.abs(dn) ** 2, nodes))
    denominator = float(np.trapezoid(_weighted_integrand(problem, f, nodes), nodes))
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
    full = float(np.trapezoid(_weighted_integrand(problem, f, nodes), nodes))
    # split at the middle node, which linspace may round off (a + c) / 2: a
    # split beside it would drop the panel between them from both halves
    mid = nodes[np.argmin(np.abs(nodes - 0.5 * (problem.a + problem.c)))]
    left = IntervalProblem(problem.n, problem.a, problem.c, "left")
    right = IntervalProblem(problem.n, problem.a, problem.c, "right")
    lo = nodes[nodes <= mid]
    hi = nodes[nodes >= mid]
    left_val = float(np.trapezoid(_weighted_integrand(left, f, nodes)[nodes <= mid], lo))
    right_val = float(np.trapezoid(_weighted_integrand(right, f, nodes)[nodes >= mid], hi))
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
