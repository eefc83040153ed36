"""Finite-interval ratios: the midpoint splitting identity and strict slack."""

import pytest

from hardy_rellich.cli import parse_function
from hardy_rellich.constants import SIDES
from hardy_rellich.interval import (
    IntervalProblem,
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
