"""Finite-interval ratios: the midpoint splitting identity and strict slack."""

import math

import numpy as np
import pytest

from hardy_rellich.analytic import monomial
from hardy_rellich.cli import parse_function
from hardy_rellich.constants import SIDES
from hardy_rellich.interval import (
    IntervalProblem,
    _quad_nodes,
    interval_denominator_pieces,
    interval_ratio,
)

# on (0.1, 0.7) linspace puts the middle node 5.6e-17 above (a + c) / 2
INTERVALS = [(0.0, 1.0), (0.5, 2.0), (0.1, 0.7), (0.3, 1.9), (2.0, 2.5)]


def _bridge(n, a, c, degree):
    return parse_function(f"bridge:degree={degree}", n, bounds=(a, c))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a,c", INTERVALS)
@pytest.mark.parametrize("panels", [256, 1000])
def test_denominator_splits_at_the_midpoint(n, a, c, panels):
    for degree in (0, 2):
        problem = IntervalProblem(n, a, c, "both")
        full, left, right = interval_denominator_pieces(problem, _bridge(n, a, c, degree),
                                                        panels=panels)
        assert full == pytest.approx(left + right, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a,c", INTERVALS)
@pytest.mark.parametrize("side", SIDES)
def test_bridge_ratio_exceeds_the_constant(n, a, c, side):
    for degree in (0, 1, 2):
        report = interval_ratio(IntervalProblem(n, a, c, side), _bridge(n, a, c, degree))
        assert report.slack > 0 and report.ratio > report.constant


@pytest.mark.parametrize("kwargs", [{"panels": 1}, {"panels": 0}, {"panels": -5},
                                    {"refine_levels": -1}])
def test_quadrature_arguments_are_validated(kwargs):
    problem = IntervalProblem(1, 0.0, 1.0, "both")
    f = _bridge(1, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        interval_ratio(problem, f, **kwargs)
    with pytest.raises(ValueError):
        interval_denominator_pieces(problem, f, **kwargs)


def _sorted_unique_nodes(problem, panels, refine_levels):
    """The node set built as a sorted union of uniform and cluster nodes."""
    panels += panels % 2
    nodes = np.linspace(problem.a, problem.c, panels + 1)
    h = (problem.c - problem.a) / panels
    extras = []
    if problem.side in ("left", "both"):
        extras += [problem.a + h / 2**k for k in range(1, refine_levels + 1)]
    if problem.side in ("right", "both"):
        extras += [problem.c - h / 2**k for k in range(1, refine_levels + 1)]
    return np.unique(np.concatenate((nodes, extras))) if extras else nodes


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("a,c", [(0.0, 1.0), (0.1, 0.7), (2.0, 2.5)])
@pytest.mark.parametrize("panels", [2, 7, 64, 1001, 4096])
def test_nodes_are_the_sorted_union(side, a, c, panels):
    problem = IntervalProblem(1, a, c, side)
    for refine_levels in range(4):
        nodes = _quad_nodes(problem, panels, refine_levels)
        expected = _sorted_unique_nodes(problem, panels, refine_levels)
        assert nodes.tobytes() == expected.tobytes()


def _ratio_by_term_sums(problem, f, panels):
    """The ratio with every closure sampled per use and |f|^2 by complex cast."""
    n, a, c = problem.n, problem.a, problem.c
    nodes = _quad_nodes(problem, panels, 3)
    dn = np.asarray(f.deriv(n)(nodes), dtype=complex)
    numerator = np.trapezoid(np.abs(dn) ** 2, nodes)
    fx = np.asarray(f.deriv(0)(nodes), dtype=complex)
    weight = {"left": nodes - a, "right": c - nodes,
              "both": np.minimum(nodes - a, c - nodes)}[problem.side]
    inner = weight > 0
    integrand = np.empty(len(nodes))
    integrand[inner] = np.abs(fx[inner]) ** 2 / weight[inner] ** (2 * n)
    for i in np.nonzero(~inner)[0]:
        top = complex(np.asarray(f.deriv(n)(nodes[i]), dtype=complex).item())
        integrand[i] = (abs(top) / math.factorial(n)) ** 2
    return numerator / np.trapezoid(integrand, nodes)


# the spans the benchmark times: (a, c - a) with n = 1, and with n = 2 where
# a <= c - a (beyond that the expanded bridge cancels near its ends)
TIMED_CASES = [(n, a, a + length) for n in (1, 2) for a in (0.0, 0.5, 1.0, 2.0)
               for length in (0.5, 1.0, 2.0) if n == 1 or a <= length]


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("n,a,c", TIMED_CASES)
def test_single_pass_ratio_matches_the_per_use_formula(n, a, c, side):
    problem = IntervalProblem(n, a, c, side)
    for degree in (0, 1, 2):
        f = _bridge(n, a, c, degree)
        for panels in (64, 4096):
            expected = _ratio_by_term_sums(problem, f, panels)
            assert interval_ratio(problem, f, panels=panels).ratio == pytest.approx(
                expected, rel=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_ratio_refuses_a_function_that_does_not_vanish(side):
    problem = IntervalProblem(2, 0.5, 1.5, side)
    with pytest.raises(ValueError, match="does not vanish"):
        interval_ratio(problem, monomial(1.0) + monomial(2.0))
    # vanishing to order 1 only fails the derivative-1 check
    with pytest.raises(ValueError, match="derivative 1"):
        interval_ratio(problem, _bridge(1, 0.5, 1.5, 0))
