"""Derivative-closure consistency for the analytic test functions."""

import math

import numpy as np
import pytest

from hardy_rellich.analytic import (
    LogGaussian,
    PowerExp,
    Reflected,
    consistency_check,
    gamma_class,
    monomial,
    polynomial_times_exp,
    zero_function,
)


class TestPowerExp:
    def test_monomial_values_and_derivatives(self):
        f = monomial(1.5)
        x = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(f.deriv(0)(x), x**1.5)
        np.testing.assert_allclose(f.deriv(1)(x), 1.5 * x**0.5)
        np.testing.assert_allclose(f.deriv(2)(x), 0.75 * x**-0.5)

    def test_gamma_class_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.Symbol("x", positive=True)
        expr = xs**2.5 * sympy.exp(-3 * xs)
        f = gamma_class(2.5, 3.0)
        points = np.array([0.2, 0.9, 1.7, 3.3])
        for order in range(4):
            exact = sympy.lambdify(xs, sympy.diff(expr, xs, order))(points)
            np.testing.assert_allclose(f.deriv(order)(points), exact, rtol=1e-12)

    def test_poly_exp_derivative_stays_in_class(self):
        f = polynomial_times_exp([0.0, 0.0, 1.0], rate=2.0)  # x^2 e^{-2x}
        d = f._deriv_cache
        _ = f.deriv(3)
        assert all(isinstance(v, PowerExp) for v in d.values())

    def test_vanishing_order(self):
        assert polynomial_times_exp([0, 0, 0, 1.0], rate=1.0).vanishing_order == 3
        assert monomial(2.5).vanishing_order == 2.5
        assert zero_function().vanishing_order == np.inf

    def test_addition_and_scaling(self):
        f = monomial(2.0) + monomial(3.0)
        g = 2.0 * f
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(g.deriv(0)(x), 2 * (x**2 + x**3))

    def test_zero_function(self):
        z = zero_function()
        assert np.all(z.deriv(0)(np.array([0.1, 1.0])) == 0)
        assert np.all(z.deriv(5)(np.array([0.1, 1.0])) == 0)


class TestLogGaussian:
    def test_first_derivative_consistent(self):
        assert consistency_check(LogGaussian(0.0, 1.0))
        assert consistency_check(LogGaussian(1.0, 0.5, power=-0.5))

    def test_second_derivative_by_differences(self):
        f = LogGaussian(0.3, 1.2, power=1.0)
        x = np.array([0.7, 1.1, 2.2])
        h = 1e-5
        numeric = (f.deriv(1)(x + h) - f.deriv(1)(x - h)) / (2 * h)
        np.testing.assert_allclose(f.deriv(2)(x), numeric, rtol=1e-5)

    def test_order_limit(self):
        with pytest.raises(ValueError):
            LogGaussian().deriv(3)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_width_must_be_positive_and_finite(self, s):
        with pytest.raises(ValueError):
            LogGaussian(0.0, s)


class TestReflected:
    def test_alternating_signs(self):
        f = polynomial_times_exp([0.0, 1.0, 1.0], rate=0.0)  # x + x^2
        g = Reflected(f, 1.0)  # (1-x) + (1-x)^2
        x = np.array([0.2, 0.8])
        np.testing.assert_allclose(g.deriv(0)(x), (1 - x) + (1 - x) ** 2)
        np.testing.assert_allclose(g.deriv(1)(x), -(1 + 2 * (1 - x)))
        np.testing.assert_allclose(g.deriv(2)(x), 2.0)


class TestConsistencyCheck:
    def test_detects_broken_closure(self):
        class Broken(PowerExp):
            def deriv(self, j):
                base = super().deriv(j)
                if j == 1:
                    return lambda x: 2.0 * base(x)  # wrong by a factor
                return base

        assert consistency_check(Broken([(1.0, 2.0)], 1.0)) is False
