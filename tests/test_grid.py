"""Quadrature, cumulative integration, and differentiation on sampled grids."""

import math
import warnings

import numpy as np
import pytest

from hardy_rellich.errors import InvalidDataError, SingularityError
from hardy_rellich.grid import (
    GridFunction,
    LinearGrid,
    LogGrid,
    cumulative_integral,
    differentiate,
    integrate,
    norm_sq,
    read_csv,
    write_csv,
)


@pytest.fixture(scope="module")
def default_grid():
    return LogGrid.default()


class TestGridConstruction:
    def test_log_nodes_increasing_uniform_in_u(self, default_grid):
        assert np.all(np.diff(default_grid.x) > 0)
        du = np.diff(default_grid.u)
        np.testing.assert_allclose(du, du[0], rtol=1e-12)

    def test_default_window(self, default_grid):
        assert default_grid.x_min == 1e-6
        assert default_grid.x_max == 1e6
        assert len(default_grid) == 4096

    def test_linear_endpoints_included(self):
        grid = LinearGrid(0.0, 1.0, 11)
        assert grid.x[0] == 0.0 and grid.x[-1] == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            LogGrid(1e-3, 1e3, 7)
        with pytest.raises(ValueError):
            LinearGrid(0.0, 1.0, 4)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            LogGrid(-1.0, 1.0, 64)
        with pytest.raises(ValueError):
            LinearGrid(2.0, 1.0, 64)

    def test_values_frozen(self, default_grid):
        f = GridFunction.from_callable(default_grid, lambda x: np.exp(-x))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestIntegrate:
    def test_zero(self, default_grid):
        res = integrate(GridFunction(default_grid, np.zeros(len(default_grid))))
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_exponential_mass(self):
        grid = LogGrid(1e-6, 40.0, 4096)
        res = integrate(GridFunction.from_callable(grid, lambda x: np.exp(-x)))
        assert abs(res.value - 1.0) <= 1e-8

    def test_gamma_integral(self, default_grid):
        res = integrate(GridFunction.from_callable(default_grid,
                                                   lambda x: x * np.exp(-2 * x)))
        assert abs(res.value - 0.25) <= 1e-10

    def test_linearity_on_decaying_integrands(self, default_grid):
        f = GridFunction.from_callable(default_grid,
                                       lambda x: np.exp(-0.5 * np.log(x) ** 2))
        g = GridFunction.from_callable(default_grid, lambda x: x**2 * np.exp(-x))
        a, b = 2.7, -1.3
        combo = GridFunction(default_grid, a * f.values + b * g.values)
        lhs = integrate(combo).value
        rhs = a * integrate(f).value + b * integrate(g).value
        bound = 1e-12 * (abs(a) * norm_sq(f) ** 0.5 + abs(b) * norm_sq(g) ** 0.5)
        assert abs(lhs - rhs) <= max(bound, 1e-15)

    def test_doubling_reduces_error_on_kink(self):
        # min(x, 1/x)^3 has a kink in ln x; exact mass 1/4 + 1/2
        def err(count):
            grid = LogGrid(1e-6, 1e6, count)
            f = GridFunction.from_callable(grid, lambda x: np.minimum(x, 1 / x) ** 3)
            return abs(integrate(f).value - 0.75)

        assert err(4096) / err(8192) >= 3.0

    def test_error_estimate_finite_nonnegative(self):
        grid = LogGrid(1e-6, 1e6, 4096)
        f = GridFunction.from_callable(grid, lambda x: np.minimum(x, 1 / x) ** 3)
        res = integrate(f)
        assert math.isfinite(res.error_estimate)
        assert res.error_estimate >= 0.0

    def test_weight_power(self, default_grid):
        res = integrate(GridFunction.from_callable(default_grid,
                                                   lambda x: np.exp(-x)), 1.0)
        assert abs(res.value - 1.0) <= 1e-10  # int x e^-x = Gamma(2) = 1

    def test_non_finite_rejected(self, default_grid):
        values = np.zeros(len(default_grid))
        values[10] = np.inf
        with pytest.raises(InvalidDataError):
            integrate(GridFunction(default_grid, values))

    def test_vector_rejected(self, default_grid):
        f = GridFunction(default_grid, np.zeros((len(default_grid), 2)))
        with pytest.raises(InvalidDataError):
            integrate(f)

    def test_non_decaying_warns(self, default_grid):
        f = GridFunction(default_grid, np.ones(len(default_grid)))
        with pytest.warns(UserWarning):
            integrate(f)

    def test_linear_grid_polynomial(self):
        grid = LinearGrid(0.0, 1.0, 4097)
        res = integrate(GridFunction.from_callable(grid, lambda x: 3 * x**2))
        assert abs(res.value - 1.0) <= 1e-7


class TestNormSq:
    def test_zero(self, default_grid):
        assert norm_sq(GridFunction(default_grid, np.zeros(len(default_grid)))) == 0.0

    def test_weighted_gamma(self, default_grid):
        f = GridFunction.from_callable(default_grid, lambda x: x**1.5 * np.exp(-x))
        assert abs(norm_sq(f, -2.0) - 0.25) <= 1e-10

    def test_vector_additivity(self, default_grid):
        g = np.exp(-0.5 * np.log(default_grid.x) ** 2)
        scalar = norm_sq(GridFunction(default_grid, g))
        vector = norm_sq(GridFunction(default_grid, np.stack([g, g], axis=1)))
        assert vector == pytest.approx(2 * scalar, rel=1e-14)


class TestCumulativeIntegral:
    def test_constant(self, default_grid):
        F = cumulative_integral(GridFunction(default_grid,
                                             np.ones(len(default_grid))))
        np.testing.assert_allclose(F.values, default_grid.x, rtol=1e-10)

    def test_zero(self, default_grid):
        F = cumulative_integral(GridFunction(default_grid,
                                             np.zeros(len(default_grid))))
        assert np.all(F.values == 0)

    def test_power_law_exact(self, default_grid):
        sigma = -0.4
        F = cumulative_integral(GridFunction(default_grid, default_grid.x**sigma))
        exact = default_grid.x ** (1 + sigma) / (1 + sigma)
        np.testing.assert_allclose(F.values, exact, rtol=1e-12)

    def test_complex_power_law_exact(self, default_grid):
        gamma = 0.3 - 0.4j
        F = cumulative_integral(GridFunction(default_grid,
                                             default_grid.x.astype(complex) ** gamma))
        exact = default_grid.x ** (gamma + 1) / (gamma + 1)
        np.testing.assert_allclose(F.values, exact, rtol=1e-12)

    def test_divergent_raises(self, default_grid):
        with pytest.raises(SingularityError):
            cumulative_integral(GridFunction(default_grid, default_grid.x**-1.2))

    def test_then_differentiate_recovers(self, default_grid):
        f = GridFunction.from_callable(default_grid,
                                       lambda x: np.exp(-0.5 * np.log(x) ** 2))
        recovered = differentiate(cumulative_integral(f), 1)
        err = norm_sq(GridFunction(default_grid, recovered.values - f.values))
        assert (err / norm_sq(f)) ** 0.5 <= 1e-3

    def test_linear_grid_from_left_endpoint(self):
        grid = LinearGrid(1.0, 2.0, 257)
        F = cumulative_integral(GridFunction.from_callable(grid, lambda x: 2 * x))
        np.testing.assert_allclose(F.values, grid.x**2 - 1.0, atol=1e-10)

    def test_zero_before_support(self, default_grid):
        # f vanishes on (0, 1] and rises with a kink: no stencil reaching
        # across the edge may leak mass to the left of it
        x = default_grid.x
        F = cumulative_integral(GridFunction(default_grid,
                                             np.maximum(0.0, (x - 1.0) * (2.0 - x))))
        assert np.all(F.values[x <= 1.0] == 0.0)

    def test_fourth_order_across_sign_change(self):
        # (2.5 - x) x^1.5 e^-x changes sign at x = 2.5, where a power-law
        # fit is only second order; its antiderivative is x^2.5 e^-x
        def err(count):
            grid = LogGrid.default(count)
            x = grid.x
            F = cumulative_integral(GridFunction(grid, (2.5 - x) * x**1.5 * np.exp(-x)))
            return np.max(np.abs(F.values - x**2.5 * np.exp(-x)))

        errors = [err(2**k) for k in (10, 11, 12)]
        # fourth order: 16 per doubling
        assert 12.0 <= errors[0] / errors[1] <= 24.0
        assert 12.0 <= errors[1] / errors[2] <= 24.0
        assert errors[2] <= 2e-9

    @pytest.mark.parametrize("a", [0.5, 0.0])
    def test_linear_grid_fourth_order(self, a):
        # cos 3x changes sign three times on [a, 4]; the rule runs in x
        def err(count):
            grid = LinearGrid(a, 4.0, count)
            F = cumulative_integral(GridFunction.from_callable(grid, lambda x: np.cos(3 * x)))
            return np.max(np.abs(F.values - (np.sin(3 * grid.x) - math.sin(3 * a)) / 3))

        errors = [err(count) for count in (257, 513, 1025)]
        # fourth order: 16 per doubling
        assert 12.0 <= errors[0] / errors[1] <= 24.0
        assert 12.0 <= errors[1] / errors[2] <= 24.0


class TestDifferentiate:
    def test_identity_derivative(self, default_grid):
        # order-2 in the u spacing: h^2-scale errors
        d = differentiate(GridFunction(default_grid, default_grid.x), 1)
        np.testing.assert_allclose(d.values, 1.0, rtol=1e-4)

    def test_second_derivative_of_square(self, default_grid):
        # ends are one-sided twice over, so check the interior
        d = differentiate(GridFunction(default_grid, default_grid.x**2), 2)
        np.testing.assert_allclose(d.values[5:-5], 2.0, rtol=1e-3)

    def test_constant_goes_to_zero(self, default_grid):
        # the chain rule divides by x, so compare against the 1/x noise scale
        d = differentiate(GridFunction(default_grid,
                                       np.full(len(default_grid), 3.7)), 1)
        assert np.max(np.abs(d.values * default_grid.x)) <= 1e-9

    def test_grid_too_small(self):
        grid = LogGrid(0.1, 10.0, 8)
        with pytest.raises(ValueError):
            differentiate(GridFunction(grid, grid.x), 4)


class TestCsvRoundTrip:
    def test_scalar_log_grid(self, tmp_path, default_grid):
        f = GridFunction.from_callable(default_grid,
                                       lambda x: np.exp(-x) * (1 + 2j))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        back = read_csv(path)
        assert isinstance(back.grid, LogGrid)
        np.testing.assert_allclose(back.values, f.values, rtol=1e-12)

    def test_vector_linear_grid(self, tmp_path):
        grid = LinearGrid(0.0, 1.0, 33)
        values = np.stack([grid.x, grid.x**2], axis=1).astype(complex)
        path = tmp_path / "vec.csv"
        write_csv(GridFunction(grid, values), path)
        back = read_csv(path)
        assert isinstance(back.grid, LinearGrid)
        assert back.m == 2
        np.testing.assert_allclose(back.values, values, atol=1e-14)
