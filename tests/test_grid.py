"""Quadrature, cumulative integration, and differentiation on sampled grids."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hardy_rellich import grid as grid_module
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

    @pytest.mark.parametrize("count", [2**k for k in range(3, 21)])
    def test_spacing_within_an_ulp_of_the_window(self, count):
        # x[1] - x[0] cancels: 1.9e-12 relative at 65536 nodes
        log_grid = LogGrid(1e-6, 1e6, count)
        exact = (Fraction(log_grid.u[-1]) - Fraction(log_grid.u[0])) / (count - 1)
        assert abs(Fraction(log_grid.h) - exact) <= math.ulp(log_grid.h)
        linear = LinearGrid(0.25, 3.0, count)
        exact = (Fraction(linear.x[-1]) - Fraction(linear.x[0])) / (count - 1)
        assert abs(Fraction(linear.h) - exact) <= math.ulp(linear.h)

    def test_values_frozen(self, default_grid):
        f = GridFunction.from_callable(default_grid, lambda x: np.exp(-x))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    @pytest.mark.parametrize("dtype", [float, int, complex])
    def test_values_do_not_alias_the_callers_array(self, default_grid, dtype):
        samples = np.arange(len(default_grid)).astype(dtype)
        f = GridFunction(default_grid, samples)
        kept = f.values.copy()
        assert f.values.dtype == (complex if dtype is complex else float)
        samples[:] = 7
        assert np.array_equal(f.values, kept) and not f.values.flags.writeable

    def test_vector_values_rejected(self, default_grid):
        # a vector is a list of scalar GridFunctions, one per component
        with pytest.raises(InvalidDataError):
            GridFunction(default_grid, np.zeros((len(default_grid), 2)))


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

    def test_non_decaying_warns(self, default_grid):
        f = GridFunction(default_grid, np.ones(len(default_grid)))
        with pytest.warns(UserWarning):
            integrate(f)

    def test_linear_grid_polynomial(self):
        grid = LinearGrid(0.0, 1.0, 4097)
        res = integrate(GridFunction.from_callable(grid, lambda x: 3 * x**2))
        assert abs(res.value - 1.0) <= 1e-7

    def test_linear_grid_from_zero_refuses_a_negative_power(self):
        # f(0) x^p with p < 0 and f(0) != 0 has no value at the node x = 0
        grid = LinearGrid(0.0, 1.0, 65)
        f = GridFunction.from_callable(grid, lambda x: np.exp(-x))
        with pytest.raises(SingularityError, match="negative weight power"):
            integrate(f, -2.0)

    def test_linear_grid_from_zero_models_the_first_panel(self):
        # x^2 x^-2 = 1 has the limit 1 at x = 0, where f(0) = 0; (0, x_1) takes it
        grid = LinearGrid(0.0, 1.0, 65)
        f = GridFunction.from_callable(grid, lambda x: x**2)
        assert integrate(f, -2.0).value == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(SingularityError, match="not integrable"):
            integrate(f, -4.0)


# The windows of the command line (its default, also mellin-check's) and of
# the benchmark's cut checks, and others the tests use
PINNED_WINDOWS = [(1e-6, 1e6), (1e-5, 1e5), (1e-4, 1e4), (1e-4, 1e6), (1e-3, 1e3),
                  (1e-12, 1e3), (1e-9, 1e6), (1e-16, 1e3), (0.3, 7.1)]
PINNED_COUNTS = sorted(set(range(8, 300))
                       | {2**k + d for k in range(9, 18) for d in (-1, 0, 1)} - {2**17 + 1}
                       | set(np.random.default_rng(12).integers(300, 2**17, 40).tolist()))


@pytest.mark.parametrize("window", PINNED_WINDOWS)
def test_log_grid_nodes_are_linspace_bit_for_bit(window):
    # LogGrid builds u as lo + h k with the last node at hi, without
    # np.linspace; the nodes must not drift from linspace's
    lo, hi = math.log(window[0]), math.log(window[1])
    for count in PINNED_COUNTS:
        grid = LogGrid(window[0], window[1], count)
        u = np.linspace(lo, hi, count)
        assert grid.u.tobytes() == u.tobytes(), count
        assert grid.x.tobytes() == np.exp(u).tobytes(), count


class TestNormSq:
    def test_zero(self, default_grid):
        assert norm_sq(GridFunction(default_grid, np.zeros(len(default_grid)))) == 0.0

    def test_weighted_gamma(self, default_grid):
        f = GridFunction.from_callable(default_grid, lambda x: x**1.5 * np.exp(-x))
        assert abs(norm_sq(f, -2.0) - 0.25) <= 1e-10

    @pytest.mark.parametrize("n", [26, 40, 51])
    def test_weight_goes_in_before_squaring(self, n):
        # x^(n+1) e^-x against x^(-2n): |f|^2 underflows and x^(-2n)
        # overflows at x_min = 1e-6, their product does neither; the norm is
        # Gamma(3)/2^3 = 1/4
        grid = LogGrid.default(1024)
        f = GridFunction(grid, np.exp((n + 1) * grid.u - grid.x))
        assert norm_sq(f, -2.0 * n) == pytest.approx(0.25, rel=1e-13)
        doubled = GridFunction(grid, f.values + 1j * f.values)
        assert norm_sq(doubled, -2.0 * n) == pytest.approx(0.5, rel=1e-13)

    def test_weight_out_of_range_raises(self):
        # x^(-2n/2) itself overflows at x_min = 1e-6 from n = 52
        grid = LogGrid.default(1024)
        f = GridFunction(grid, np.exp(53 * grid.u - grid.x))
        with pytest.raises(InvalidDataError):
            norm_sq(f, -104.0)

    def test_matches_integrate_of_the_square(self, default_grid):
        x = default_grid.x
        f = GridFunction(default_grid, (1.0 - 0.5j * x) * x**1.5 * np.exp(-x))
        square = GridFunction(default_grid, np.abs(f.values) ** 2)
        assert norm_sq(f, -1.0) == pytest.approx(integrate(square, -1.0).value, rel=1e-14)

    def test_non_finite_samples_raise(self, default_grid):
        values = np.exp(-default_grid.x)
        values[7] = np.nan
        with pytest.raises(InvalidDataError):
            norm_sq(GridFunction(default_grid, values))

    def test_vector_additivity(self, default_grid):
        # |g + i g|^2 is the squared Euclidean norm of the vector (g, g)
        g = np.exp(-0.5 * np.log(default_grid.x) ** 2)
        scalar = norm_sq(GridFunction(default_grid, g))
        vector = norm_sq(GridFunction(default_grid, g + 1j * g))
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

    @pytest.mark.parametrize("value", [1e303, -1e303])
    def test_overflowing_samples_times_x_raise(self, value):
        # 1e303 x leaves the float range beyond x ~ 1.8e5
        grid = LogGrid.default(1024)
        with pytest.raises(InvalidDataError, match="float range"):
            cumulative_integral(GridFunction(grid, np.full(len(grid), value)))

    def test_overflowing_running_integral_raises(self):
        # 1e308 x^0.5 e^(-x/2), and that times x, are in range at every node;
        # its running integral, up to 1e308 Gamma(1.5) 2^1.5 ~ 2.5e308, is not
        grid = LogGrid.default(1024)
        x = grid.x
        f = GridFunction(grid, x**0.5 * np.exp(-0.5 * x) * 1e308)
        with pytest.raises(InvalidDataError, match="running integral"):
            cumulative_integral(f)

    def test_running_integral_near_the_float_limit(self):
        # 1e308 x^0.9 e^-x integrates to 1e308 Gamma(1.9) ~ 0.96e308, in range:
        # no partial sum of the panel rule may overflow on the way
        grid = LogGrid.default(1024)
        x = grid.x
        F = cumulative_integral(GridFunction(grid, x**0.9 * np.exp(-x) * 1e308))
        assert F.values[-1] == pytest.approx(1e308 * math.gamma(1.9), rel=1e-12)

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

    def test_tenth_order_across_sign_change(self):
        # (2.5 - x) x^1.5 e^-x changes sign at x = 2.5, where a power-law
        # fit is only second order; its antiderivative is x^2.5 e^-x
        def err(count):
            grid = LogGrid.default(count)
            x = grid.x
            F = cumulative_integral(GridFunction(grid, (2.5 - x) * x**1.5 * np.exp(-x)))
            return np.max(np.abs(F.values - x**2.5 * np.exp(-x)))

        errors = [err(2**k) for k in (8, 9, 10, 11)]
        # tenth order: 1024 per doubling (853 and 967 here); the eight-node
        # rule read 256
        assert 768.0 <= errors[0] / errors[1] <= 1536.0
        assert 768.0 <= errors[1] / errors[2] <= 1536.0
        assert errors[2] <= 5e-14
        # at 2048 nodes the error is at rounding level
        assert errors[3] <= 3e-15

    @staticmethod
    def _polynomial_error(coeffs, log, count):
        """Relative error of the running integral of a polynomial in the uniform coordinate.

        The polynomial is v x = P(u) on a LogGrid and v = P(x) on a
        LinearGrid, and has no zeros on the window.
        """
        grid = LogGrid(1e-2, 1e2, count) if log else LinearGrid(0.5, 3.0, count)
        t = (grid.u - grid.u[0]) if log else grid.x - grid.a
        poly = np.polynomial.Polynomial(coeffs)
        samples = poly(t)
        assert np.min(np.abs(samples)) > 0.1
        F = cumulative_integral(GridFunction(grid, samples / grid.x if log else samples))
        exact = poly.integ()(t)
        return np.max(np.abs(F.values - F.values[0] - exact)) / np.max(np.abs(exact))

    @pytest.mark.parametrize("log", [True, False])
    def test_quintic_exact_in_the_uniform_coordinate(self, log):
        coeffs = [1.0, 0.5, 0.3, -0.1, 0.02, 0.001]
        assert self._polynomial_error(coeffs, log, 97) <= 1e-13

    @pytest.mark.parametrize("count", [8, 9, 97])
    @pytest.mark.parametrize("log", [True, False])
    def test_degree_7_exact_in_the_uniform_coordinate(self, log, count):
        # exact for degree 7 on every grid: 8 and 9 nodes take the eight-node
        # rule, whose end rows cover every panel there, and 97 the ten-node one
        coeffs = [1.0, 0.5, 0.3, -0.1, 0.02, 0.001, -2e-4, 1e-5]
        assert self._polynomial_error(coeffs, log, count) <= 1e-13

    @pytest.mark.parametrize("count", [10, 11, 97])
    @pytest.mark.parametrize("log", [True, False])
    def test_degree_9_exact_in_the_uniform_coordinate(self, log, count):
        # ten nodes per stencil: exact for degree 9, also on the smallest
        # grids that take it, where the end rows meet at most two interior
        # panels.  The eight-node rule read 2.6e-14 to 6e-5 here
        coeffs = [1.0, 0.5, 0.3, -0.1, 0.02, 0.001, -2e-4, 1e-5, 1e-3, 1e-3]
        assert self._polynomial_error(coeffs, log, count) <= 1e-14

    @pytest.mark.parametrize("a", [0.5, 0.0])
    def test_linear_grid_tenth_order(self, a):
        # T_12 on [a, 4] changes sign twelve times; the rule runs in x.  The
        # polynomial's next derivatives keep the ratio near 1400 here
        def err(count):
            grid = LinearGrid(a, 4.0, count)
            poly = np.polynomial.Chebyshev.basis(12, domain=[a, 4.0])
            F = cumulative_integral(GridFunction(grid, poly(grid.x)))
            return np.max(np.abs(F.values - poly.integ(lbnd=a)(grid.x)))

        # at 513 nodes the error is at rounding level
        errors = [err(count) for count in (65, 129, 257)]
        # tenth order: 1024 per doubling
        assert 768.0 <= errors[0] / errors[1] <= 1536.0
        assert 768.0 <= errors[1] / errors[2] <= 1536.0
        assert errors[2] <= 2e-13

    @pytest.mark.parametrize("a", [0.5, 0.0])
    @pytest.mark.parametrize("degree,bound", [(10, 5e-9), (11, 5e-8)])
    def test_steep_smooth_ends_are_no_jumps(self, a, degree, bound):
        # T_10 and T_11 on [a, 4] are steepest at the ends, where the end step
        # is more than _JUMP times the one next to it but not the next two:
        # the end panels keep the Lagrange rule (as break panels they read 1e-2)
        grid = LinearGrid(a, 4.0, 65)
        poly = np.polynomial.Chebyshev.basis(degree, domain=[a, 4.0])
        q = poly(grid.x)
        assert grid_module._breaks(q).tolist() == []
        F = cumulative_integral(GridFunction(grid, q))
        assert np.max(np.abs(F.values - poly.integ(lbnd=a)(grid.x))) <= bound

    @pytest.mark.parametrize("end", [0, -1])
    def test_a_jump_onto_an_end_node_is_a_break(self, end):
        grid = LinearGrid(0.5, 4.0, 65)
        q = np.polynomial.Chebyshev.basis(10, domain=[0.5, 4.0])(grid.x)
        q[end] += 40.0
        assert grid_module._breaks(q).tolist() == [0 if end == 0 else len(q) - 2]

    def test_running_integral_below_a_jump_keeps_its_accuracy(self):
        # x^1.5 e^-x cut off at x = 10: the running integral splits at the
        # break panel across the jump, and the Lagrange rule runs on either
        # side, so below the cutoff it keeps the accuracy of a smooth input
        def err(count):
            grid = LogGrid.default(count)
            x = grid.x
            F = cumulative_integral(GridFunction(grid, np.where(x <= 10.0, x**1.5 * np.exp(-x), 0.0)))
            below = x <= 10.0 * (1 - grid.h)
            t = x[below]
            # the lower incomplete gamma function of order 5/2
            erf = np.array([math.erf(r) for r in np.sqrt(t)])
            exact = 0.75 * math.sqrt(math.pi) * erf - np.exp(-t) * np.sqrt(t) * (t + 1.5)
            return np.max(np.abs(F.values[below] - exact)) / exact[-1]

        assert err(4096) <= 1e-14
        assert err(1024) <= 2e-12

    @pytest.mark.parametrize("log, count", [(False, 65), (False, 129), (True, 257)])
    def test_each_run_is_exact_beside_a_jump(self, log, count):
        # degree-7 pieces P up to the middle node and Q after it, polynomial
        # in the uniform coordinate t: the jump between them is a break
        # panel, and the Lagrange rule on the runs either side of it is exact
        grid = LogGrid(1e-2, 1e2, count) if log else LinearGrid(0.0, 4.0, count)
        t = (grid.u - grid.u[0]) if log else grid.x
        mid = count // 2
        P = np.polynomial.Polynomial([1.0, 0.5, 0.3, -0.1, 0.02, 0.001, -2e-4, 1e-5])
        Q = np.polynomial.Polynomial([30.0, -0.7, 0.2, 0.05, -0.01, 0.002, 1e-4, -1e-5])
        q = np.where(np.arange(count) <= mid, P(t), Q(t))
        assert grid_module._breaks(q).tolist() == [mid]
        F = cumulative_integral(GridFunction(grid, q / grid.x if log else q)).values
        F = F - F[0]                             # the (0, x_min) stub
        left = P.integ(lbnd=t[0])(t[:mid + 1])
        right = Q.integ(lbnd=t[mid + 1])(t[mid + 1:])
        assert np.max(np.abs(F[:mid + 1] - left)) <= 1e-13 * np.max(np.abs(left))
        assert np.max(np.abs(F[mid + 1:] - F[mid + 1] - right)) <= 1e-13 * np.max(np.abs(right))

    @pytest.mark.parametrize("case", ["grid-end", "isolated-root"])
    def test_exact_zeros_keep_the_tenth_order(self, case):
        # sin(3(x - 0.5)) is exactly 0 at the first node, the grid's end; the
        # Chebyshev T_13 on [0.5, 4] is exactly 0 at its midpoint node 2.25,
        # between samples of opposite sign.  Neither is a support edge, so
        # the panels beside them keep the Lagrange rule
        cheb = np.polynomial.chebyshev
        t13 = [0.0] * 13 + [1.0]
        b, counts, values, exact = {
            "grid-end": (0.5 + 4 * math.pi / 3, (33, 65, 129),
                         lambda x: np.sin(3 * (x - 0.5)),
                         lambda x: (1 - np.cos(3 * (x - 0.5))) / 3),
            "isolated-root": (4.0, (65, 129, 257),
                              lambda x: cheb.chebval((x - 2.25) / 1.75, t13),
                              lambda x: 1.75 * cheb.chebval((x - 2.25) / 1.75,
                                                            cheb.chebint(t13, lbnd=-1))),
        }[case]
        errors = []
        for count in counts:
            grid = LinearGrid(0.5, b, count)
            samples = values(grid.x)
            assert np.count_nonzero(samples == 0.0) >= 1
            F = cumulative_integral(GridFunction(grid, samples))
            errors.append(np.max(np.abs(F.values - exact(grid.x))))
        # tenth order reads about 1024 per doubling (above 1300 here); a
        # second-order panel beside the zero reads about 4
        assert errors[0] / errors[1] >= 600.0
        assert errors[1] / errors[2] >= 600.0

    @pytest.mark.parametrize("coeffs", [
        [0.0, 0.0, 2.0, -3.0, 1.0],    # x^2 (x - 1)(x - 2): zeros at nodes 0, 8, 16
        [-3.0, 7.0, -5.0, 1.0],        # (x - 1)^2 (x - 3): zeros at nodes 8, 24
    ])
    def test_polynomials_with_roots_at_nodes_are_exact(self, coeffs):
        grid = LinearGrid(0.0, 4.0, 33)
        poly = np.polynomial.Polynomial(coeffs)
        samples = poly(grid.x)
        assert np.count_nonzero(samples == 0.0) >= 2
        F = cumulative_integral(GridFunction(grid, samples))
        exact = poly.integ()(grid.x)
        assert np.max(np.abs(F.values - exact)) <= 1e-13 * np.max(np.abs(exact))

    @pytest.mark.parametrize("case, most", [
        ("gamma", 2),             # the two panels beside the underflow edge beyond x ~ 745
        ("gamma-complex", 2),
        ("rational", 0),
    ])
    def test_few_panels_leave_the_lagrange_rule(self, case, most):
        # every break panel runs trapezoid and ends a Lagrange run; a smooth
        # integrand must not break its grid
        grid = LogGrid.default(4096)
        x = grid.x
        values = {"gamma": x**1.5 * np.exp(-x),
                  "gamma-complex": x**1.5 * np.exp(-(1.0 - 0.5j) * x),
                  "rational": x**1.5 / (1.0 + x**4)}[case]
        assert len(grid_module._breaks(values * x)) <= most

    @pytest.mark.parametrize("case", ["noise", "jump-onto-zeros", "short-runs",
                                      "jump-onto-last"])
    def test_one_pass_matches_the_rule_run_by_run(self, case):
        # _split_panels runs the Lagrange rule once over whole rows and
        # redoes the panels beside each break; that must give the same bits
        # as the rule on each run alone, for every row of a block
        grid = LogGrid.default(1024)
        x = grid.x
        # jumps onto nodes 21, 25, 34, 41, 121, 129 and 139: runs of 4, 9, 7,
        # 8 and 10 nodes between them
        level = np.cumsum(np.isin(np.arange(len(x)), [21, 25, 34, 41, 121, 129, 139])) % 2
        # one jump onto the last node of an input that does not decay (e^-x
        # underflows there and would hide it): the last run ends one panel early
        last = np.arange(len(x)) == len(x) - 1
        values = {"noise": np.random.default_rng(7).standard_normal(len(x)),
                  "jump-onto-zeros": np.where(x >= 1.0, x**-0.3, 0.0) * (1.0 - 0.5j),
                  "short-runs": np.exp(-x) * 40.0**level,
                  "jump-onto-last": x**-0.3 * 40.0**last}[case]
        rows = values * x ** np.arange(4)[:, None]
        breaks = grid_module._breaks(rows[0])
        if case == "jump-onto-last":
            assert breaks.tolist() == [len(x) - 2]
        else:
            assert len(breaks) >= 2
        one_pass = grid_module._split_panels(rows, grid.h, breaks)
        assert np.array_equal(one_pass, _split_run_by_run(rows, grid.h, breaks))
        for row, panels in zip(rows, one_pass):
            assert np.array_equal(grid_module._split_panels(row[None], grid.h, breaks)[0], panels)


def _split_run_by_run(q, h, breaks):
    """Reference for grid._split_panels: trapezoid on every panel, then the
    Lagrange rule on each run of eight nodes or more, on that run alone."""
    s = q * (0.5 * h)
    out = s[..., :-1] + s[..., 1:]
    for start, end in zip([0, *(breaks + 1).tolist()], [*breaks.tolist(), q.shape[-1] - 1]):
        if end - start >= 7:
            out[..., start:end] = grid_module._lagrange_panels(q[..., start:end + 1], h)
    return out


def _lagrange_weights(panel, count):
    """Exact integrals over (panel, panel + 1) of the Lagrange basis on nodes 0 .. count - 1."""
    out = []
    for i in range(count):
        coeffs = [Fraction(1)]          # prod_{j != i} (t - j), lowest power first
        for j in range(count):
            if j != i:
                coeffs = [a - j * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [0])]
        scale = math.prod(Fraction(i - j) for j in range(count) if j != i)
        out.append(sum(c * (Fraction(panel + 1) ** (k + 1) - Fraction(panel) ** (k + 1)) / (k + 1)
                       for k, c in enumerate(coeffs)) / scale)
    return out


def test_panel_weights_are_the_exact_lagrange_integrals():
    # panel 4 of ten nodes is the centre panel; panels 0-3 are the end rows.
    # The eight-node rule of short runs is in the same units of h/7257600
    centre = [w * 7257600 for w in _lagrange_weights(4, 10)]
    assert centre == list(grid_module._CENTRE[::-1] + grid_module._CENTRE)
    assert grid_module._UNIT == 7257600
    for panel, row in enumerate(grid_module._END_ROWS):
        assert [w * 7257600 for w in _lagrange_weights(panel, 10)] == row.tolist()
    assert len(grid_module._SHORT_ROWS) == 4
    for panel, row in enumerate(grid_module._SHORT_ROWS):
        assert [w * 7257600 for w in _lagrange_weights(panel, 8)] == row.tolist()


def _basis_panels_match(count):
    # every row in place: the panels of the grid, including the mirrored
    # right end, read the exact integrals of each basis sample
    exact = np.array([[float(w) for w in _lagrange_weights(panel, count)]
                      for panel in range(count - 1)])
    got = np.array([grid_module._lagrange_panels(e, 1.0) for e in np.eye(count)]).T
    np.testing.assert_allclose(got, exact, rtol=1e-15, atol=1e-17)


def test_panel_rule_on_eight_nodes_integrates_each_basis_polynomial():
    _basis_panels_match(8)


def test_panel_rule_on_ten_nodes_integrates_each_basis_polynomial():
    _basis_panels_match(10)


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
        write_csv([f], path)
        (back,) = read_csv(path)
        assert isinstance(back.grid, LogGrid)
        assert path.read_text().splitlines()[0] == "x,re,im"
        np.testing.assert_allclose(back.values, f.values, rtol=1e-12)

    def test_vector_linear_grid(self, tmp_path):
        grid = LinearGrid(0.0, 1.0, 33)
        components = [GridFunction(grid, grid.x), GridFunction(grid, grid.x**2 * (1 - 1j))]
        path = tmp_path / "vec.csv"
        write_csv(components, path)
        back = read_csv(path)
        assert path.read_text().splitlines()[0] == "x,re_1,im_1,re_2,im_2"
        assert len(back) == 2 and all(isinstance(c.grid, LinearGrid) for c in back)
        for got, want in zip(back, components):
            np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize("columns", [1, 2, 4])
    def test_unpaired_columns_rejected(self, tmp_path, columns):
        # x alone, x and re, or a re with no im: no column may be read twice
        grid = LinearGrid(0.0, 1.0, 33)
        path = tmp_path / "vec.csv"
        write_csv([GridFunction(grid, grid.x)] * 2, path)
        path.write_text("".join(",".join(row.split(",")[:columns]) + "\n"
                                for row in path.read_text().splitlines()))
        with pytest.raises(InvalidDataError, match="re/im column pairs"):
            read_csv(path)

    def test_components_on_different_grids_rejected(self, tmp_path):
        first, second = LinearGrid(0.0, 1.0, 33), LinearGrid(0.0, 2.0, 33)
        with pytest.raises(InvalidDataError):
            write_csv([GridFunction(first, first.x), GridFunction(second, second.x)],
                      tmp_path / "vec.csv")
