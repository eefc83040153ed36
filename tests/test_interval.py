"""Finite-interval ratios: the midpoint splitting identity and strict slack."""

import math
import warnings

import numpy as np
import pytest

from hardy_rellich.analytic import PowerExp, gamma_class, polynomial_times_exp
from hardy_rellich.cli import parse_function
from hardy_rellich.constants import SIDES
from hardy_rellich.errors import ConvergenceError, InvalidDataError, TrivialFunctionError
from hardy_rellich.functional import ProbeSpec
from hardy_rellich.grid import GridFunction, LogGrid
from hardy_rellich.interval import (
    IntervalProblem,
    _quad_nodes,
    _trapezoid,
    _weighted_integrand,
    interval_ratio,
    vector_birman_ratio,
)

# on (0.1, 0.7) linspace puts the middle node 5.6e-17 above (a + c) / 2
INTERVALS = [(0.0, 1.0), (0.5, 2.0), (0.1, 0.7), (0.3, 1.9), (2.0, 2.5)]


def _bridge(n, a, c, degree):
    return parse_function(f"bridge:degree={degree}", n, bounds=(a, c))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a,c", INTERVALS)
@pytest.mark.parametrize("panels", [256, 1000])
def test_denominator_splits_at_the_midpoint(n, a, c, panels):
    # the d-weighted sum over interval_ratio's nodes equals its (x - a)- and
    # (c - x)-weighted halves, split at the middle node, which linspace may
    # round off (a + c) / 2: a split beside it would drop a panel from both
    for degree in (0, 2):
        problem = IntervalProblem(n, a, c, "both")
        f = _bridge(n, a, c, degree)
        nodes = _quad_nodes(problem, panels)
        fx = np.asarray(f.deriv(0)(nodes))
        dn_ends = tuple(np.asarray(f.deriv(n)(nodes[[0, -1]])))
        h = (c - a) / (len(nodes) - 1)
        full = _trapezoid(_weighted_integrand(problem, nodes, fx, dn_ends), h)
        m = int(np.argmin(np.abs(nodes - 0.5 * (a + c))))
        lo, hi = slice(None, m + 1), slice(m, None)
        left = _trapezoid(_weighted_integrand(IntervalProblem(n, a, c, "left"), nodes[lo],
                                              fx[lo], dn_ends), h)
        right = _trapezoid(_weighted_integrand(IntervalProblem(n, a, c, "right"), nodes[hi],
                                               fx[hi], dn_ends), h)
        assert full == pytest.approx(left + right, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("a,c", INTERVALS)
@pytest.mark.parametrize("side", SIDES)
def test_bridge_ratio_exceeds_the_constant(n, a, c, side):
    for degree in (0, 1, 2):
        report = interval_ratio(IntervalProblem(n, a, c, side), _bridge(n, a, c, degree))
        assert report.slack > 0 and report.ratio > report.constant


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("panels", [64, 4096])
def test_bridges_never_give_a_false_counterexample(n, panels):
    # cancelling monomial expansions may read a ratio at or below c_n from
    # n = 4 on; every such ratio must be refused, never reported as slack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, c in ((0.0, 1.0), (0.5, 1.0), (2.0, 2.5), (1.0, 3.0)):
            for degree in (0, 1, 2):
                for side in SIDES:
                    try:
                        report = interval_ratio(IntervalProblem(n, a, c, side),
                                                _bridge(n, a, c, degree), panels=panels)
                    except ConvergenceError:
                        continue
                    assert report.slack > 0


def test_ratio_at_or_below_the_constant_is_no_counterexample():
    # the monomial-expanded bridge x^5 (1 - x)^5 cancels near x = 1, and on
    # 16384 panels the quadrature reads a ratio of 0.3145 against
    # c_5 = 945^2 / 2^10 = 872.09 (exact 7203.52); the theorem rules such a
    # ratio out for an admissible f
    with pytest.raises(ConvergenceError, match="not above c_5") as err:
        interval_ratio(IntervalProblem(5, 0.0, 1.0, "both"), _bridge(5, 0.0, 1.0, 0),
                       panels=16384)
    assert err.value.last_estimate <= 872.0947265625


def test_cancelling_n3_bridge_is_resolved_on_uniform_nodes():
    # x^3 (1 - x)^3 expanded in monomials: exact ratio 2304/127
    report = interval_ratio(IntervalProblem(3, 0.0, 1.0, "both"), _bridge(3, 0.0, 1.0, 0),
                            panels=65536)
    assert report.ratio == pytest.approx(18.141732283464567, rel=1e-8)


def test_samples_past_the_float_range_raise_the_typed_error():
    # x^400 overflows from x = 5.9 on: the sums are not finite, which is
    # neither a trivial function nor a ratio below c_1, and numpy stays quiet
    # (the suite turns RuntimeWarning into an error)
    with pytest.raises(InvalidDataError, match="float range"):
        interval_ratio(IntervalProblem(1, 0.0, 10.0, "left"), gamma_class(400.0))


@pytest.mark.parametrize("kwargs", [{"panels": 1}, {"panels": 0}, {"panels": -5}])
def test_quadrature_arguments_are_validated(kwargs):
    problem = IntervalProblem(1, 0.0, 1.0, "both")
    f = _bridge(1, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        interval_ratio(problem, f, **kwargs)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("a,c", [(0.0, 1.0), (0.1, 0.7), (2.0, 2.5)])
@pytest.mark.parametrize("panels", [2, 7, 64, 1001, 4096])
def test_nodes_are_the_sorted_union(side, a, c, panels):
    # the nodes are the uniform linspace itself, sorted with no union to
    # take, and an even panel count keeps the midpoint a node
    problem = IntervalProblem(1, a, c, side)
    nodes = _quad_nodes(problem, panels)
    expected = np.linspace(a, c, panels + panels % 2 + 1)
    assert nodes.tobytes() == expected.tobytes()


def _ratio_by_term_sums(problem, f, panels):
    """The ratio with every closure sampled per use and |f|^2 by complex cast."""
    n, a, c = problem.n, problem.a, problem.c
    nodes = _quad_nodes(problem, panels)
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
        interval_ratio(problem, PowerExp([(1.0, 1.0), (1.0, 2.0)]))
    # vanishing to order 1 only fails the derivative-1 check
    with pytest.raises(ValueError, match="derivative 1"):
        interval_ratio(problem, _bridge(1, 0.5, 1.5, 0))


def test_vector_ratio_takes_sampled_and_analytic_components():
    # gamma_class(2.5) and x^3 e^(-2x), as closures and sampled on a log grid
    comps = [gamma_class(2.5), polynomial_times_exp([0, 0, 0, 1.0], rate=2.0)]
    grid = LogGrid(1e-4, 60.0, 2048)
    sampled = [GridFunction.from_callable(grid, c.deriv(0)) for c in comps]
    exact = vector_birman_ratio(1, comps, grid)
    # one finite-difference warning per ratio, however many components are sampled
    with pytest.warns(UserWarning, match="numerically from samples") as whole_warned:
        whole = vector_birman_ratio(1, sampled)
    with pytest.warns(UserWarning, match="numerically from samples") as mixed_warned:
        mixed = vector_birman_ratio(1, [sampled[0], comps[1]], grid)
    assert len(whole_warned) == len(mixed_warned) == 1
    assert whole.m == mixed.m == exact.m == 2
    # finite differences of second order on 2048 nodes
    assert whole.ratio == pytest.approx(exact.ratio, rel=1e-4)
    assert mixed.ratio == pytest.approx(exact.ratio, rel=1e-4)


def test_vector_ratio_refuses_other_components():
    with pytest.raises(ValueError, match="vector components"):
        vector_birman_ratio(1, [gamma_class(2.5), ProbeSpec(n=1, sigma=0.0)])
    with pytest.raises(TrivialFunctionError):
        vector_birman_ratio(1, [])
