"""Averaging operators, inverses, the analytic family, pairs, and norms."""

import functools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardy_rellich import operators as ops
from hardy_rellich.analytic import (AnalyticFunction, LogGaussian, gamma_class, monomial,
                                    polynomial_times_exp)
from hardy_rellich.constants import cesaro_norm
from hardy_rellich.errors import ConvergenceError, InvalidDataError, SingularityError
from hardy_rellich.functional import ProbeFunction, ProbeSpec
from hardy_rellich.grid import (DEFAULT_WINDOW, GridFunction, LinearGrid, LogGrid,
                                cumulative_integral)

EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def grid():
    return LogGrid.default()


@pytest.fixture(scope="module")
def bump(grid):
    return GridFunction.from_callable(
        grid, lambda x: np.exp(-0.5 * (np.log(x) / 2.0) ** 2))


def _rel_max(diff, reference):
    """max |diff| over max |reference|, as the round-trip checks score them.

    A residual at rounding level has no power law or decay for norm_sq's
    stub and decay tests to read, so its size is measured pointwise.
    """
    return np.max(np.abs(diff)) / np.max(np.abs(reference.values))


def _falling(base, count):
    out = 1.0
    for i in range(count):
        out *= base - i
    return out


def _probe_image(spec):
    """Analytic closures for F_probe / x^n, the image of f_sigma under T_n."""
    from hardy_rellich.analytic import AnalyticFunction

    n, sigma, a = spec.n, spec.sigma, spec.a
    # F = sum_k b_k x^k beyond the cutoff: alternating monomial coefficients,
    # which cancel only mildly for the n <= 3 probes used here
    tail = [(-1) ** (n - k - 1) * a ** (n - k + sigma)
            / (math.factorial(k) * math.factorial(n - k - 1) * (n - k + sigma))
            for k in range(n)]
    lead = 1.0 / math.prod(j + sigma for j in range(1, n + 1))

    class ProbeImage(AnalyticFunction):
        order = n

        def deriv(self, j):
            def evaluate(x):
                x = np.asarray(x, dtype=float)
                below = lead * _falling(sigma, j) * x ** (sigma - j)
                above = np.zeros_like(x)
                for k in range(n):
                    above = above + tail[k] * _falling(k - n, j) * x ** (k - n - j)
                return np.where(x <= a, below, above)

            return evaluate

    return ProbeImage()


class TestApplyCesaro:
    def test_indicator_average(self, grid):
        # T_1 of the indicator of (0, a): 1 below a, a/x beyond; a sampled
        # jump carries half-panel ambiguity, but with the cutoff mid-panel
        # (as on the even default grid) the straddling panel is second-order
        a = 1.0
        f = GridFunction(grid, np.where(grid.x <= a, 1.0, 0.0))
        out = ops.apply_cesaro(1, f)
        exact = np.where(grid.x <= a, 1.0, a / grid.x)
        np.testing.assert_allclose(out.values, exact, rtol=2e-5)
        below = grid.x <= a * (1 - grid.h)
        np.testing.assert_allclose(out.values[below], 1.0, rtol=1e-12)

    def test_truncated_monomial(self, grid):
        sigma, a = -0.3, 10.0
        f = GridFunction(grid, np.where(grid.x <= a, grid.x**sigma, 0.0))
        out = ops.apply_cesaro(1, f)
        mask = grid.x <= a
        np.testing.assert_allclose(out.values[mask],
                                   grid.x[mask] ** sigma / (1 + sigma), rtol=1e-10)

    def test_zero(self, grid):
        out = ops.apply_cesaro(3, GridFunction(grid, np.zeros(len(grid))))
        assert np.all(out.values == 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_limit_at_zero_on_a_linear_grid(self, n):
        # T_n f(0) = f(0)/n!, with no division by x = 0
        lg = LinearGrid(0.0, 2.0, 65)
        f = GridFunction.from_callable(lg, lambda x: np.exp(-x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ops.apply_cesaro(n, f)
        assert out.values[0] == 1.0 / math.factorial(n)
        assert np.all(np.isfinite(out.values))
        # T_n e^-x = sum_m (-x)^m / (m + n)!; next to 0 the moments cancel
        # against x^(-n), which amplifies the panel rule's error there.  The
        # bounds are twice the eighth-order rule's relative errors at x = 1/32
        # and from x = 0.5 on, and 1e-14 where those are at rounding level
        near, far = {1: (1.6e-14, 1e-14), 2: (8e-12, 1e-14), 3: (2.7e-9, 1.1e-13)}[n]
        x = lg.x[1:]
        exact = np.array([math.fsum((-t) ** m / math.factorial(m + n) for m in range(40))
                          for t in x])
        rel = np.abs(out.values[1:] / exact - 1.0)
        assert rel[0] <= near
        assert np.max(rel[x >= 0.5]) <= far

    def test_moments_out_of_range_raise(self, grid):
        # the second moment's samples 1e300 x times x leave the float range
        with pytest.raises(InvalidDataError, match="float range"):
            ops.apply_cesaro(2, GridFunction(grid, np.full(len(grid), 1e300)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomial_eigenrelation(self, grid, n):
        sigma, a = -0.3, 10.0
        f = GridFunction(grid, np.where(grid.x <= a, grid.x**sigma, 0.0))
        out = ops.apply_cesaro(n, f)
        prod = math.prod(j + sigma for j in range(1, n + 1))
        mask = grid.x <= a
        np.testing.assert_allclose(out.values[mask],
                                   grid.x[mask] ** sigma / prod, rtol=1e-8)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("sigma", [-0.3, 0.7, 2.5])
    def test_untruncated_power_eigenrelation(self, n, sigma):
        # T_n x^sigma = x^sigma / prod_{j=1..n} (sigma + j) at every node.  The
        # binomial moments of x^sigma cancel against x^(-n) at the left window
        # edge, where the Lagrange rule's error in each moment is amplified;
        # at 1024 nodes the worst node reads 7.3e-8 (x^2.5, n = 6)
        lg = LogGrid.default(1024)
        out = ops.apply_cesaro(n, GridFunction(lg, lg.x**sigma))
        exact = lg.x**sigma / math.prod(sigma + j for j in range(1, n + 1))
        np.testing.assert_allclose(out.values, exact, rtol=2e-7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_probe_antiderivative(self, grid, n):
        # T_n applied to the probe generator recovers its n-fold
        # antiderivative divided by x^n (closed piecewise forms)
        spec = ProbeSpec(n=n, sigma=-0.2, a=10.0)
        f = GridFunction(grid, np.where(grid.x <= spec.a,
                                        grid.x**spec.sigma, 0.0))
        out = ops.apply_cesaro(n, f)
        reconstructed = out.values * grid.x ** float(n)
        mask = grid.x <= spec.a * 0.999
        np.testing.assert_allclose(reconstructed[mask],
                                   ProbeFunction(spec).deriv(0)(grid.x[mask]),
                                   rtol=1e-8)


class TestNestedOracle:
    def test_double_average_of_one(self, grid):
        f = GridFunction(grid, np.ones(len(grid)))
        out = ops.apply_cesaro_nested(2, f)
        np.testing.assert_allclose(out.values, 0.5, rtol=1e-10)

    def test_n1_same_algorithm(self, bump, grid):
        kernel = ops.apply_cesaro(1, bump)
        nested = ops.apply_cesaro_nested(1, bump)
        assert np.max(np.abs(kernel.values - nested.values)) <= 1e-10

    def test_zero(self, grid):
        out = ops.apply_cesaro_nested(4, GridFunction(grid, np.zeros(len(grid))))
        assert np.all(out.values == 0)

    def test_linear_grid_from_zero(self):
        # at x = 0 the oracle takes the limit f(0)/n! that apply_cesaro takes,
        # with no 0 * inf on the way
        lg = LinearGrid(0.0, 2.0, 1025)
        f = GridFunction(lg, np.exp(-lg.x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nested, kernel = ops.apply_cesaro_nested(2, f), ops.apply_cesaro(2, f)
        assert nested.values[0] == kernel.values[0] == 0.5
        assert np.max(np.abs(nested.values - kernel.values)) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_equivalence(self, grid, bump, n):
        kernel = ops.apply_cesaro(n, bump)
        nested = ops.apply_cesaro_nested(n, bump)
        assert _rel_max(kernel.values - nested.values, bump) <= 1e-12


def _per_moment_cesaro(n, f):
    """apply_cesaro with a full cumulative_integral, and split of the grid, per moment.

    The moment samples f x^j and the powers x^(-1-j) are the running products
    apply_cesaro forms, so the two routes differ only in sharing the split.
    """
    x = f.grid.x
    recip = 1.0 / x
    values, power, acc = f.values, recip, 0.0
    for j in range(n):
        moment = cumulative_integral(GridFunction(f.grid, values)).values
        acc = acc + math.comb(n - 1, j) * (-1.0) ** j / math.factorial(n - 1) * power * moment
        values, power = values * x, power * recip
    return acc


def _max_rel(values, reference):
    return np.max(np.abs(values - reference)) / np.max(np.abs(reference))


def _truncated_power_image(n, sigma, x):
    """T_n of x^sigma 1{x >= 1} at x, in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    if x < 1.0:
        return 0.0
    with mpmath.workdps(50):
        X, s = mpmath.mpf(x), mpmath.mpf(sigma)
        total = sum(mpmath.binomial(n - 1, j) * (-1) ** j * X ** (n - 1 - j)
                    * (X ** (s + j + 1) - 1) / (s + j + 1) for j in range(n))
        return float(total / mpmath.factorial(n - 1) / X**n)


def _exp_inverse_image(n, x):
    """T_n of e^(-1/x) at x: int_0^x t^j e^(-1/t) dt = Gamma(-j-1, 1/x)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        X = mpmath.mpf(x)
        total = sum(mpmath.binomial(n - 1, j) * (-1) ** j * X ** (-1 - j)
                    * mpmath.gammainc(-j - 1, 1 / X) for j in range(n))
        return float(total / mpmath.factorial(n - 1))


class TestSharedMomentAnalysis:
    # apply_cesaro decides its break panels once, from f, for all n moments;
    # x^j adds no jump or support edge, so it must match the route that
    # decides the breaks of every moment afresh.  The moments go in blocks
    # of 8192 samples: 32 rows at 256 nodes, 2 at 4096, 1 from 8192 on
    @pytest.mark.parametrize("N", [256, 1024, 4096, 8192, 16384])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_smooth_inputs_match_the_per_moment_route(self, n, N):
        lg = LogGrid.default(N)
        x = lg.x
        inputs = [scale * ops.apply_inverse_cesaro(n, f)(x)
                  for f, _ in TestRoundTripsAtReferenceSize.FUNCTIONS
                  for scale in (1.0, 0.6 - 0.8j)]
        inputs.append(np.where(x >= 1.0, x**-0.3, 0.0))         # a jump onto zeros
        inputs.append(np.maximum(x - 1.0, 0.0) * np.exp(-x))    # a support edge, no jump
        for values in inputs:
            sampled = GridFunction(lg, values)
            shared, reference = ops.apply_cesaro(n, sampled).values, _per_moment_cesaro(n, sampled)
            if n == 1:  # one moment is cumulative_integral, bit for bit
                assert np.array_equal(shared, reference)
            assert _max_rel(shared, reference) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("case", ["jump", "jump-steep", "underflow"])
    def test_jumps_and_zeros_lose_no_accuracy(self, n, case):
        # a sampled jump at x = 1 (mid-panel on the even grid), and e^(-1/x),
        # which is exactly zero below x ~ 1/745 and whose higher moments
        # underflow on panels where f x does not
        lg = LogGrid.default(1024)
        x = lg.x
        if case == "underflow":
            values, exact = np.exp(-1.0 / x), functools.partial(_exp_inverse_image, n)
        else:
            sigma = -0.3 if case == "jump" else -1.5
            values = np.where(x >= 1.0, x**sigma, 0.0)
            exact = functools.partial(_truncated_power_image, n, sigma)
        f = GridFunction(lg, values)
        nodes = np.arange(0, len(lg), 8)
        reference = np.array([exact(float(x[i])) for i in nodes])
        shared = _max_rel(ops.apply_cesaro(n, f).values[nodes], reference)
        per_moment = _max_rel(_per_moment_cesaro(n, f)[nodes], reference)
        assert shared <= per_moment + 1e-13

    def test_linear_grid_from_zero(self):
        # x^j vanishes at x = 0 where f does not; analysing each moment
        # afresh read that zero as data and left T_3 of e^-x at 8e-2 error
        lg = LinearGrid(0.0, 2.0, 1025)
        f = GridFunction(lg, np.exp(-lg.x))
        x = lg.x[1:]
        t2, t3 = (ops.apply_cesaro(n, f).values[1:] for n in (2, 3))
        assert np.max(np.abs(t2 - (x - 1.0 + np.exp(-x)) / x**2)) <= 1e-8
        assert np.max(np.abs(t3 - (0.5 * x**2 - x + 1.0 - np.exp(-x)) / x**3)) <= 1e-5

    @pytest.mark.parametrize("N", [256, 4096])
    @pytest.mark.parametrize("case", ["stub-before-overflow", "f x^3", "f x"])
    def test_the_first_error_of_the_moment_order_wins(self, case, N):
        # the checks run as if the moments went one at a time: moment j's
        # stub and running integral before f x^(j+2); at 256 nodes all three
        # moments share a block, at 4096 the third starts the second block
        lg = LogGrid.default(N)
        error, message, values = {
            "stub-before-overflow": (SingularityError, r"x\^-1\.200 near 0", lg.x**-1.2 * 1e300),
            "f x^3": (InvalidDataError, r"^f x\^3 leaves the float range$", np.full(N, 1e296)),
            "f x": (InvalidDataError, r"^f x leaves the float range$", np.full(N, 1e303)),
        }[case]
        with pytest.raises(error, match=message):
            ops.apply_cesaro(3, GridFunction(lg, values))

    def test_typed_errors(self, grid):
        with pytest.raises(SingularityError):
            ops.apply_cesaro(3, GridFunction(grid, grid.x**-1.2))  # moment-0 stub diverges
        with pytest.raises(InvalidDataError):
            ops.apply_cesaro(2, GridFunction(grid, np.stack([grid.x, grid.x], axis=1)))
        values = np.exp(-grid.x)
        values[100] = np.nan
        with pytest.raises(InvalidDataError):
            ops.apply_cesaro(2, GridFunction(grid, values))


class TestInverse:
    def test_t1_inverse_of_identity(self):
        inv = ops.apply_inverse_cesaro(1, monomial(1.0))
        x = np.array([0.3, 1.7, 4.0])
        np.testing.assert_allclose(inv(x), 2 * x)  # (x * x)' = 2x

    def test_t1_inverse_of_monomial(self):
        sigma = 0.7
        inv = ops.apply_inverse_cesaro(1, monomial(sigma))
        x = np.array([0.5, 2.5])
        np.testing.assert_allclose(inv(x), (1 + sigma) * x**sigma)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_on_probe_tails(self, grid, n):
        # T_n(T_n^{-1} g) = g for g = F_{probe}/x^n (the image of the probe
        # generator under T_n); a = 1 sits mid-panel on the even grid, so
        # the sampled jump costs only an h^2-scale error beyond the cutoff
        spec = ProbeSpec(n=n, sigma=0.25, a=1.0)
        g = _probe_image(spec)
        inverse = ops.apply_inverse_cesaro(n, g)
        sampled = GridFunction(grid, np.asarray(inverse(grid.x)))
        # the inverse must reproduce the generating truncated monomial ...
        mask = grid.x <= spec.a
        np.testing.assert_allclose(sampled.values[mask],
                                   grid.x[mask] ** spec.sigma, rtol=1e-9)
        assert np.max(np.abs(sampled.values[~mask])) <= 1e-9
        # ... and averaging again closes the loop: exact below the cutoff,
        # half-panel-limited beyond it
        back = ops.apply_cesaro(n, sampled)
        expected = g.deriv(0)(grid.x)
        np.testing.assert_allclose(back.values, expected, rtol=3e-5)
        below = grid.x <= spec.a * (1 - grid.h)
        np.testing.assert_allclose(back.values[below], expected[below], rtol=1e-10)

    def test_missing_closures_rejected(self):
        with pytest.raises(ValueError):
            ops.apply_inverse_cesaro(3, LogGaussian())  # carries 2 closures


class _ShiftedT1Inverse(AnalyticFunction):
    """(T_1^{-1} + k) g = (x g)' + k g, with derivative closures inherited.

    The j-th derivative is x g^(j+1) + (j+1+k) g^(j), so one closure order
    is consumed per factor.
    """

    def __init__(self, g: AnalyticFunction, k: int):
        self.g = g
        self.k = k
        self.order = g.order - 1

    def deriv(self, j: int):
        if j > self.order:
            raise ValueError(f"derivative order {j} exceeds available closures")
        lower = self.g.deriv(j)
        upper = self.g.deriv(j + 1)
        shift = j + 1 + self.k
        return lambda x: np.asarray(x, dtype=float) * upper(x) + shift * lower(x)


def compose_p_n_of_inverse_T1(n: int, f: AnalyticFunction):
    """Apply prod_{k=0..n-1} (T_1^{-1} + k) factor by factor.

    The route independent of ops.apply_inverse_cesaro's Leibniz expansion:
    the two must agree pointwise.  Each factor consumes one closure order.
    """
    g = f
    for k in range(n - 1, -1, -1):
        g = _ShiftedT1Inverse(g, k)
    return g.deriv(0)


class TestOperatorPolynomial:
    def test_n1_is_plain_inverse(self):
        f = gamma_class(2.5, 1.0)
        direct = ops.apply_inverse_cesaro(1, f)
        composed = compose_p_n_of_inverse_T1(1, f)
        x = np.linspace(0.1, 8.0, 50)
        np.testing.assert_allclose(composed(x), direct(x), rtol=1e-12)

    def test_square_monomial_example(self):
        # (x^2 * x^2)'' = 12 x^2 and the factor route gives 9x^2 + 3x^2
        composed = compose_p_n_of_inverse_T1(2, monomial(2.0))
        x = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(composed(x), 12 * x**2)

    def test_monomial_eigenrelation_n3(self):
        m = 1.5
        composed = compose_p_n_of_inverse_T1(3, monomial(m))
        direct = ops.apply_inverse_cesaro(3, monomial(m))
        x = np.array([0.2, 1.1, 6.0])
        factor = math.prod(m + 1 + k for k in range(3))
        np.testing.assert_allclose(composed(x), factor * x**m, rtol=1e-12)
        np.testing.assert_allclose(direct(x), factor * x**m, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_leibniz_expansion(self, n):
        for f in (monomial(2.5), gamma_class(1.5, 1.0), gamma_class(3.5, 2.0)):
            direct = ops.apply_inverse_cesaro(n, f)
            composed = compose_p_n_of_inverse_T1(n, f)
            x = np.linspace(0.05, 12.0, 101)
            d, c = direct(x), composed(x)
            scale = np.max(np.abs(d)) + 1e-300
            assert np.max(np.abs(d - c)) <= 1e-10 * scale


class TestAnalyticFamily:
    def test_z_zero_is_plain_average(self, grid, bump):
        family = ops._apply_T1z(0.0, bump)
        plain = ops.apply_cesaro(1, bump)
        np.testing.assert_allclose(family.values, plain.values, rtol=1e-12)

    def test_monomial_action(self, grid):
        sigma, a, z = 0.4, 10.0, 0.3 - 0.8j
        f = GridFunction(grid, np.where(grid.x <= a, grid.x**sigma, 0.0))
        out = ops._apply_T1z(z, f)
        mask = grid.x <= a
        expected = grid.x[mask] ** sigma / (sigma + 1 - z)
        np.testing.assert_allclose(out.values[mask], expected, rtol=1e-10)

    def test_zero_function(self, grid):
        out = ops._apply_T1z(0.2, GridFunction(grid, np.zeros(len(grid))))
        assert np.all(out.values == 0)

    def test_half_plane_restriction(self, grid, bump):
        with pytest.raises(ValueError):
            ops._apply_T1z(0.5, bump)

    def test_singularity_propagates(self, grid):
        g = GridFunction(grid, grid.x ** (-0.8))
        with pytest.raises(SingularityError):
            ops._apply_T1z(0.4, g)  # integrand ~ x^{-1.2} at the origin


class TestRoundTripsAtReferenceSize:
    # the default 4096-node grid; every input changes sign after the
    # inverse, (x^n f)^(n) having n sign changes
    FUNCTIONS = [
        (gamma_class(1.5, 1.0), lambda x: x**1.5 * np.exp(-x)),
        (polynomial_times_exp([0.0, 0.5, -0.8, 0.3], 1.0),
         lambda x: (0.5 * x - 0.8 * x**2 + 0.3 * x**3) * np.exp(-x)),
    ]

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(2))
    def test_cesaro_of_inverse(self, grid, n, k):
        f, exact = self.FUNCTIONS[k]
        sampled = GridFunction.from_callable(grid, ops.apply_inverse_cesaro(n, f))
        back = ops.apply_cesaro(n, sampled)
        expected = exact(grid.x)
        assert np.max(np.abs(back.values - expected)) <= 1e-7 * np.max(np.abs(expected))

    @pytest.mark.parametrize("z", [3.0, -1.0, 1.0 + 2.0j])
    @pytest.mark.parametrize("k", range(2))
    def test_resolvent_residual(self, grid, z, k):
        f = GridFunction.from_callable(grid, self.FUNCTIONS[k][0].deriv(0))
        g = ops.resolvent_T1(z, f)
        residual = ops.apply_cesaro(1, g).values - z * g.values - f.values
        assert np.max(np.abs(residual)) <= 1e-8 * np.max(np.abs(f.values))


class TestRoundTripsAtTheirRung:
    # the first 2^k grid on which the round trips reach 1e-7: at 512 nodes
    # for T_2 and T_3 (largest error 5.7e-8), at 256 for the resolvent (3.3e-8).
    # A sixth-order panel rule misses both by 4-12x and needs one rung more
    FUNCTIONS = [
        (polynomial_times_exp([0.0, 0.3, -0.5, 0.7], 1.0),
         lambda x: (0.3 * x - 0.5 * x**2 + 0.7 * x**3) * np.exp(-x)),
        (gamma_class(3, 2), lambda x: x**3 * np.exp(-2.0 * x)),
    ]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", range(2))
    def test_cesaro_of_inverse_at_512_nodes(self, n, k):
        f, exact = self.FUNCTIONS[k]
        lg = LogGrid.default(512)
        back = ops.apply_cesaro(n, GridFunction.from_callable(lg, ops.apply_inverse_cesaro(n, f)))
        expected = exact(lg.x)
        assert np.max(np.abs(back.values - expected)) <= 1e-7 * np.max(np.abs(expected))

    @pytest.mark.parametrize("z", [3.1, -2.0, 1.0 + 2.0j])
    @pytest.mark.parametrize("k", range(2))
    def test_resolvent_at_256_nodes(self, z, k):
        f, exact = self.FUNCTIONS[k]
        lg = LogGrid.default(256)
        g = ops.resolvent_T1(z, GridFunction.from_callable(lg, f.deriv(0)))
        back = ops.apply_cesaro(1, g).values - z * g.values
        expected = exact(lg.x)
        assert np.max(np.abs(back - expected)) <= 1e-7 * np.max(np.abs(expected))


class TestResolvent:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            ops.ResolventPoint(1.0 + 1.0j)  # on the spectrum circle
        with pytest.raises(ValueError):
            ops.ResolventPoint(0.5)  # inside
        ops.ResolventPoint(3.0)  # exterior: fine

    @pytest.mark.parametrize("z", [3.0, -1.0, 1.0 + 2.0j])
    def test_residual(self, grid, z):
        f = GridFunction.from_callable(
            grid, lambda x: np.exp(-0.5 * (np.log(x) / 2.0) ** 2))
        g = ops.resolvent_T1(z, f)
        t1g = ops.apply_cesaro(1, GridFunction(grid, g.values))
        residual = t1g.values - z * g.values - f.values
        assert _rel_max(residual, f) <= 1e-12

    def test_zero_function(self, grid):
        out = ops.resolvent_T1(3.0, GridFunction(grid, np.zeros(len(grid))))
        assert np.all(out.values == 0)


class TestWeightedPair:
    def test_k_values(self):
        assert ops.power_weight_pair(0).K == 1.0
        assert ops.power_weight_pair(1).K == pytest.approx(1.0 / 3.0)

    def test_discrete_adjoint_exact(self, grid):
        # the linear cut discretization is an exact weighted transpose
        spec = ops.power_weight_pair(0)
        op = ops.DiscreteWeightedPair(spec, grid, "A", power=0, boundary="cut")
        rng = np.random.default_rng(3)
        v = rng.standard_normal(len(grid))
        w = rng.standard_normal(len(grid))
        q = op.quad_weights
        lhs = float(np.sum(q * op.apply(v) * w))
        rhs = float(np.sum(q * v * op.adjoint_apply(w)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestNormEstimation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cesaro_norm_wrap(self, grid, n):
        est = ops.estimate_operator_norm(ops.DiscreteCesaro(n, grid), grid)
        target = float(cesaro_norm(n))
        assert abs(est - target) <= 2 * n * EPS * target

    def test_cesaro_norm_cut_biased_low(self, grid):
        # the hard window cut loses a few percent: documented behaviour
        est = ops.estimate_operator_norm(
            ops.DiscreteCesaro(1, grid, boundary="cut"), grid)
        assert 1.9 < est < 2.0

    def test_pair_norm(self, grid):
        spec = ops.power_weight_pair(0)
        est = ops.estimate_operator_norm(
            ops.DiscreteWeightedPair(spec, grid, "A", power=0), grid)
        assert abs(est - 2.0) <= 2 * EPS * 2.0  # 2K = 2

    def test_adjoint_consistency_wrap(self, grid):
        op = ops.DiscreteCesaro(2, grid)
        rng = np.random.default_rng(11)
        v = rng.standard_normal(len(grid))
        w = rng.standard_normal(len(grid))
        q = op.quad_weights
        lhs = float(np.sum(q * op.apply(v) * w))
        rhs = float(np.sum(q * v * op.adjoint_apply(w)))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_non_convergence_raises_with_estimate(self, grid):
        with pytest.raises(ConvergenceError) as err:
            ops.estimate_operator_norm(ops.DiscreteCesaro(1, grid, boundary="cut"), grid,
                                       max_iter=1, tol=1e-16)
        assert err.value.last_estimate is not None

    def test_deterministic_given_seed(self, grid):
        op = ops.DiscreteCesaro(2, grid)
        a = ops.estimate_operator_norm(op, grid, seed=7)
        b = ops.estimate_operator_norm(op, grid, seed=7)
        assert a == b


def _rates(family, index):
    """T_n is the chain of rates 1/2, ..., n - 1/2; pair j is the single rate j + 1/2."""
    return [j + 0.5 for j in range(index)] if family == "cesaro" else [index + 0.5]


def _hat_panels(rate, N, h):
    """Per panel d, [d h, (d+1) h]: e^(-rate tau) against the hat falling from 1
    at d h, and against the hat rising to 1 at (d+1) h (12-point Gauss-Legendre)."""
    x, w = np.polynomial.legendre.leggauss(12)
    x, w = 0.5 * (x + 1.0), 0.5 * h * w
    values = np.exp(-rate * h * (np.arange(N)[:, None] + x)) * w
    return values @ (1.0 - x), values @ x


def _single_rate_reference(rate, boundary, N, h):
    """Entry (i, k) integrates e^(-rate (u_i - s)) against the hat of node k
    (the piecewise-linear interpolant of phi), over the circle for wrap and
    over s in [u_0, u_i] for cut.  The wrap kernel is periodized: the images
    e^(-rate (tau + m N h)), m >= 0, add up to 1/(1 - e^(-rate N h)) times
    the kernel on one period."""
    falling, rising = _hat_panels(rate, N, h)
    i, k = np.indices((N, N))
    if boundary == "wrap":
        m = (i - k) % N
        return (falling[m] + rising[(m - 1) % N]) / -math.expm1(-rate * N * h)
    d = i - k
    return (np.where((k >= 1) & (d >= 0), falling[d % N], 0.0)
            + np.where(d >= 1, rising[(d - 1) % N], 0.0))


def _reference_phi(family, index, side, boundary, lg):
    """Discretization in phi = x^(1/2) v coordinates, entry by entry: the
    product of the single-rate references, the first rate applied first."""
    dense = np.eye(len(lg))
    for rate in _rates(family, index):
        dense = _single_rate_reference(rate, boundary, len(lg), lg.h) @ dense
    return dense[::-1, ::-1] if side == "A" else dense


def _discrete(family, index, side, boundary, lg):
    if family == "cesaro":
        return ops.DiscreteCesaro(index, lg, boundary)
    return ops.DiscreteWeightedPair(ops.power_weight_pair(index), lg, side, power=index,
                                    boundary=boundary)


def _dense_phi(op, lg):
    """(apply, adjoint_apply, u-weights) as matrices in phi coordinates."""
    root = np.sqrt(lg.x)
    basis = np.eye(len(lg)) / root
    forward = np.stack([op.apply(col) for col in basis.T], axis=1) * root[:, None]
    backward = np.stack([op.adjoint_apply(col) for col in basis.T], axis=1) * root[:, None]
    return forward, backward, op.quad_weights / lg.x


DISCRETE_CASES = [("cesaro", n, "B") for n in range(1, 5)] + [
    ("pair", j, side) for j in range(3) for side in "AB"]


@pytest.mark.parametrize("boundary", ["wrap", "cut"])
@pytest.mark.parametrize("family,index,side", DISCRETE_CASES)
class TestDiscretizationReference:
    grid64 = LogGrid.default(64)

    def test_matches_definition(self, family, index, side, boundary):
        lg = self.grid64
        forward, _, _ = _dense_phi(_discrete(family, index, side, boundary, lg), lg)
        reference = _reference_phi(family, index, side, boundary, lg)
        assert np.max(np.abs(forward - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_adjoint_is_weighted_transpose(self, family, index, side, boundary):
        lg = self.grid64
        forward, backward, weights = _dense_phi(_discrete(family, index, side, boundary, lg), lg)
        t = np.full(len(lg), lg.h)
        if boundary == "cut":
            t[0] = t[-1] = lg.h / 2
        np.testing.assert_allclose(weights, t, rtol=1e-14)
        transpose = forward.T * t[None, :] / t[:, None]
        assert np.max(np.abs(backward - transpose)) <= 1e-12 * np.max(np.abs(transpose))

    def test_norm_matches_dense(self, family, index, side, boundary):
        lg = self.grid64
        op = _discrete(family, index, side, boundary, lg)
        forward, _, t = _dense_phi(op, lg)
        dense = np.linalg.norm(np.sqrt(t)[:, None] * forward / np.sqrt(t)[None, :], 2)
        estimate = ops.estimate_operator_norm(op, lg, tol=1e-14)
        assert estimate == pytest.approx(dense, rel=1e-9)


@pytest.mark.parametrize("boundary", ["wrap", "cut"])
def test_pair_power_must_match_spec(grid, boundary):
    # the kernel rate comes from `power`, so a spec for another j is refused
    for side in "AB":
        with pytest.raises(ValueError, match="power 0 does not match the pair's power 1"):
            ops.DiscreteWeightedPair(ops.power_weight_pair(1), grid, side, boundary=boundary)
        op = ops.DiscreteWeightedPair(ops.power_weight_pair(1), grid, side, power=1,
                                      boundary=boundary)
        assert ops.estimate_operator_norm(op, grid) == pytest.approx(2.0 / 3.0, rel=0.01)


def test_high_power_cut_pair_stays_in_range(grid):
    # the cut scalings e^(+-(j+1/2) s) reach e^(+-278) on the default window
    op = ops.DiscreteWeightedPair(ops.power_weight_pair(40), grid, "A", power=40,
                                  boundary="cut")
    assert ops.estimate_operator_norm(op, grid) == pytest.approx(2.0 / 81.0, rel=0.01)


@pytest.mark.parametrize("n", [45, 60, 80])
def test_cesaro_wrap_stays_accurate_for_large_n(grid, n):
    # the alternating exponential sum for kappa_n cancels near tau = 0; the
    # wrap kernel must not lose digits to it as n grows
    op = ops.DiscreteCesaro(n, grid)
    # phi = 1 is an eigenvector of the circulant, with the zero-frequency multiplier
    eigen = op.apply(grid.x**-0.5) * np.sqrt(grid.x)
    np.testing.assert_allclose(eigen, float(cesaro_norm(n)), rtol=1e-14)
    assert ops.estimate_operator_norm(op, grid) == pytest.approx(float(cesaro_norm(n)),
                                                                 rel=2 * n * EPS)


def test_high_power_pair_builds_without_overflow_warnings():
    # x^60 and x^(-61) leave float range on the default window; the
    # discretization never samples them, so nothing warns
    lg = LogGrid.default(1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = ops.DiscreteWeightedPair(ops.power_weight_pair(60), lg, "A", power=60)
        estimate = ops.estimate_operator_norm(op, lg)
    assert estimate == pytest.approx(2.0 / 121.0, rel=2 * EPS)


def _window_norm(rate, length):
    """Norm of phi -> int_0^u e^(-rate (u-s)) phi(s) ds on L^2(0, length).

    1/sqrt(omega^2 + rate^2), with omega the root in (pi/2L, pi/L) of
    omega cos(omega L) + rate sin(omega L), found by bisection.
    """
    lo, hi = math.pi / (2.0 * length), math.pi / length
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * math.cos(mid * length) + rate * math.sin(mid * length) > 0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    return 1.0 / math.sqrt(omega * omega + rate * rate)


CUT_FIRST_RUNG = [("cesaro", 1, "B")] + [("pair", j, side) for j in range(3) for side in "AB"]


@pytest.mark.parametrize("window", [(1e-4, 1e4), DEFAULT_WINDOW])
@pytest.mark.parametrize("family,index,side", CUT_FIRST_RUNG)
def test_cut_norm_at_1024_nodes(window, family, index, side):
    # exact panel weights leave a bias of ~7.5e-7 whatever the rate; the
    # trapezoid weights left (rh)^2/12, 3.8e-4 for j = 2
    lg = LogGrid(*window, 1024)
    estimate = ops.estimate_operator_norm(_discrete(family, index, side, "cut", lg), lg, tol=1e-8)
    exact = _window_norm(index + 0.5 if family == "pair" else 0.5, lg.u[-1] - lg.u[0])
    assert abs(estimate - exact) <= 1e-6 * exact


@pytest.mark.parametrize("family,index,side",
                         [("pair", j, side) for j in range(3) for side in "AB"]
                         + [("cesaro", n, "B") for n in range(1, 5)])
def test_wrap_norm_at_1024_nodes(family, index, side):
    # the norm is read from the periodized kernel's zero-frequency
    # multiplier, 2K or b_n to rounding (within 0.94 ulp on every case)
    lg = LogGrid.default(1024)
    estimate = ops.estimate_operator_norm(_discrete(family, index, side, "wrap", lg), lg,
                                          tol=1e-7)
    exact = 2.0 / (2 * index + 1) if family == "pair" else float(cesaro_norm(index))
    assert abs(estimate - exact) <= 2 * (index + 1) * EPS * exact


@pytest.mark.parametrize("N", [1024, 4096])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_periodized_wrap_norm_is_b_n(n, N):
    # the largest multiplier is the zero-frequency one, b_n to rounding, and
    # the norm is read from it
    lg = LogGrid.default(N)
    op = ops.DiscreteCesaro(n, lg)
    exact = float(cesaro_norm(n))
    assert np.max(np.abs(op._multiplier)) == pytest.approx(exact, rel=2e-15)
    assert ops.estimate_operator_norm(op, lg, tol=1e-12) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n", [100, 150, 170])
def test_wrap_norms_whose_squares_underflow_keep_their_digits(n):
    # b_n^2 is subnormal from n = 100 on; GKL on the grid rescales the vector
    # norms and B^T B, and reaches the exact read
    lg = LogGrid.default(1024)
    op = ops.DiscreteCesaro(n, lg)
    for estimate in (ops.estimate_operator_norm(op, lg, tol=1e-12),
                     ops.estimate_operator_norm(_Forwarding(op), lg, tol=1e-12)):
        assert estimate == pytest.approx(float(cesaro_norm(n)), rel=1e-14)


@pytest.mark.parametrize("side", "AB")
@pytest.mark.parametrize("j", range(3))
def test_periodized_wrap_pair_norm_is_2k(j, side):
    lg = LogGrid.default(1024)
    op = ops.DiscreteWeightedPair(ops.power_weight_pair(j), lg, side, power=j)
    estimate = ops.estimate_operator_norm(op, lg, tol=1e-12)
    assert estimate == pytest.approx(2.0 / (2 * j + 1), rel=2 * EPS)


@pytest.mark.parametrize("N", [1024, 4096])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 20, 45, 60, 80])
def test_wrap_zero_frequency_is_the_window_integral(n, N):
    # phi = 1 is an eigenvector of each circulant step, with eigenvalue the
    # periodized kernel's integral over one period, which is that of
    # e^(-r tau) over (0, inf): 1/r for rate r, and b_n for the chain
    lg = LogGrid.default(N)
    exact = math.prod(1.0 / (j + 0.5) for j in range(n))
    eigen = ops.DiscreteCesaro(n, lg).apply(lg.x**-0.5) * np.sqrt(lg.x)
    np.testing.assert_allclose(eigen, exact, rtol=1e-13)


@pytest.mark.parametrize("N", [64, 1024])
@pytest.mark.parametrize("rate", [0.5, 1.5, 2.5])
def test_exact_panel_weights_are_the_hat_integrals(rate, N):
    lg = LogGrid.default(N)
    left, right = ops._exact_panel(rate, lg.h)
    decay = np.exp(-rate * lg.h * np.arange(N))
    falling, rising = _hat_panels(rate, N, lg.h)
    np.testing.assert_allclose(right * decay, falling, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(left * decay * math.exp(-rate * lg.h), rising,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rate", [0.5, 1.5, 10.5, 50.5])
@pytest.mark.parametrize("rho", np.logspace(-9.0, 0.0, 10))
def test_exact_panel_weights_keep_their_digits(rate, rho):
    # the closed forms cancel like eps/rho: 7.8e-12 relative at rate 1/2 on 2^20 nodes
    mpmath = pytest.importorskip("mpmath")
    h = rho / rate
    left, right = ops._exact_panel(rate, h)
    with mpmath.workdps(40):
        r = mpmath.mpf(rate)
        p = r * mpmath.mpf(h)
        exact = ((mpmath.expm1(p) - p) / (p * r), (1 + mpmath.expm1(-p) / p) / r)
        errors = [abs(mpmath.mpf(got) / want - 1) for got, want in zip((left, right), exact)]
    assert max(errors) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", range(1, 5))
def test_cut_norms_rise_below_b_n_on_growing_windows(n):
    # no nontrivial equality case, in operator form: the norm of T_n cut to
    # (1/R, R) rises toward b_n with R and never reaches it
    estimates = []
    for k in (2, 4, 6, 8):
        lg = LogGrid(10.0**-k, 10.0**k, 4096)
        estimates.append(ops.estimate_operator_norm(ops.DiscreteCesaro(n, lg, "cut"), lg,
                                                    tol=1e-8))
    assert np.all(np.diff(estimates) > 0)
    assert estimates[-1] < float(cesaro_norm(n))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 40])
def test_cut_cesaro_converges_at_second_order(n):
    # the chain ties to kappa_n through its norms: the bias drops fourfold per
    # doubling (entrywise the distance to kappa_n shrinks only at first order,
    # from the kernel's kink at tau = 0).  n = 40 guards against cancellation:
    # kappa_40 summed as alternating binomial terms loses ~1e-6 relative,
    # which breaks the ladder (ratio -1.65)
    grids = [LogGrid.default(N) for N in (1024, 2048, 4096, 8192)]
    estimates = [ops.estimate_operator_norm(ops.DiscreteCesaro(n, lg, "cut"), lg, tol=1e-10)
                 for lg in grids]
    steps = np.diff(estimates)
    ratios = steps[:-1] / steps[1:]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5))


@functools.lru_cache(maxsize=None)
def _dense_cut_pair_norm(side):
    lg = LogGrid.default(1024)
    forward, _, t = _dense_phi(_discrete("pair", 2, side, "cut", lg), lg)
    return float(np.linalg.norm(np.sqrt(t)[:, None] * forward / np.sqrt(t)[None, :], 2))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("side", "AB")
def test_stopping_rule_is_honest(side, tol):
    # the estimate stops within 10 tol of the discretization's own norm
    # (power iteration stopped 84 tol short here)
    lg = LogGrid.default(1024)
    estimate = ops.estimate_operator_norm(_discrete("pair", 2, side, "cut", lg), lg, tol=tol)
    dense = _dense_cut_pair_norm(side)
    assert abs(estimate - dense) <= 10 * tol * dense


class _Diagonal:
    """Multiplication by d in any inner product, counting applies."""

    def __init__(self, d, lg):
        self.d = d
        self.quad_weights = lg.h * lg.x
        self.applies = 0

    def apply(self, v):
        self.applies += 1
        return self.d * v

    def adjoint_apply(self, v):
        return self.d * v


def test_cost_stays_bounded_without_convergence():
    # d = 1 - (i/N)^2 clusters the top singular values (gap 1/N^2) beyond
    # what 3000 steps resolve to tol 1e-10; without restarts the bidiagonal
    # SVDs alone would take minutes
    lg = LogGrid.default(1024)
    op = _Diagonal(1.0 - (np.arange(1024) / 1024.0) ** 2, lg)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as err:
        ops.estimate_operator_norm(op, lg, max_iter=3000, tol=1e-10)
    assert time.perf_counter() - start < 10.0
    assert op.applies >= 3000
    assert math.isfinite(err.value.last_estimate) and 0.9999 < err.value.last_estimate <= 1.0


def test_restarts_converge_to_the_top_value():
    # equispaced singular values need several restart cycles
    lg = LogGrid.default(1024)
    op = _Diagonal(1.0 - np.arange(1024) / 1024.0, lg)
    estimate = ops.estimate_operator_norm(op, lg, tol=1e-12)
    assert op.applies > 2 * ops._RESTART
    assert abs(estimate - 1.0) <= 1e-10


class _Forwarding:
    """Exposes only quad_weights, apply and adjoint_apply of an operator, so
    estimate_operator_norm runs it on the grid."""

    def __init__(self, op):
        self._op = op
        self.quad_weights = op.quad_weights

    def apply(self, v):
        return self._op.apply(v)

    def adjoint_apply(self, v):
        return self._op.adjoint_apply(v)


def _fewest_steps(op, lg, tol):
    """The smallest max_iter that does not raise ConvergenceError, by bisection."""
    lo, hi = 0, 1000
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            ops.estimate_operator_norm(op, lg, max_iter=mid, tol=tol)
            hi = mid
        except ConvergenceError:
            lo = mid
    return hi


def _assert_converges_to_exact(estimate, exact, tol):
    """A GKL estimate rises toward the exact norm: at most 4 ulp above it, and
    within 20 tol below (15.4 tol is the widest measured, pair j = 8)."""
    assert estimate <= exact * (1.0 + 4.0 * EPS)
    assert exact - estimate <= 20.0 * tol * exact


@pytest.mark.parametrize("N", [1023, 1024])
@pytest.mark.parametrize("family,index,side", DISCRETE_CASES)
def test_wrap_half_spectrum_matches_the_grid(family, index, side, N):
    # the wrap boundary reads its largest multiplier; a forwarding proxy runs
    # GKL on the grid and converges to it (odd N has no Nyquist bin)
    lg = LogGrid.default(N)
    op = _discrete(family, index, side, "wrap", lg)
    proxy = _Forwarding(op)
    for tol in (1e-7, 1e-12):
        exact = ops.estimate_operator_norm(op, lg, tol=tol)
        _assert_converges_to_exact(ops.estimate_operator_norm(proxy, lg, tol=tol), exact, tol)


def test_wrap_half_spectrum_replays_restarts():
    # the cut pair j = 8 takes 182 steps at tol 1e-12, more than one cycle, so
    # the Ritz vector is rebuilt from a replay in the engine's frame and the grid's
    lg = LogGrid.default(1024)
    op = _discrete("pair", 8, "A", "cut", lg)
    proxy = _Forwarding(op)
    steps = _fewest_steps(op, lg, 1e-12)
    assert steps > ops._RESTART
    assert steps == _fewest_steps(proxy, lg, 1e-12)
    estimate = ops.estimate_operator_norm(op, lg, tol=1e-12)
    assert estimate == pytest.approx(ops.estimate_operator_norm(proxy, lg, tol=1e-12),
                                     rel=1e-13)


def test_wrap_norm_does_not_iterate(monkeypatch):
    # one step and tol 0 would raise ConvergenceError if GKL ran
    lg = LogGrid.default(256)
    op = ops.DiscreteCesaro(2, lg)

    def refuse(*args, **kwargs):
        raise AssertionError("the wrap norm applied the operator")

    monkeypatch.setattr(op, "_apply", refuse)
    estimate = ops.estimate_operator_norm(op, lg, max_iter=1, tol=0.0)
    assert estimate == float(np.max(np.abs(op._multiplier)))


def test_zero_operator_ends_on_an_invariant_krylov_space():
    # alpha = 0 after the first apply: the estimate is exact, whatever tol
    lg = LogGrid.default(256)
    op = _Diagonal(np.zeros(len(lg)), lg)
    assert ops.estimate_operator_norm(op, lg, tol=0.0) == 0.0
    assert op.applies == 1


def _reference_norm(op, lg, tol, max_iter=10000, seed=1729):
    """(estimate, steps) of Golub-Kahan-Lanczos in the quad_weights inner
    product on the grid, with the full SVD of the bidiagonal at every step:
    the algorithm estimate_operator_norm runs, in the weighted frame."""
    q = op.quad_weights

    def q_norm(v):
        return math.sqrt(float(q @ (v * v)))

    def golub_kahan(v):
        u, beta = np.zeros_like(v), 0.0
        while True:
            image = op.apply(v) - beta * u
            alpha = q_norm(image)
            yield v, alpha, beta
            if alpha == 0.0:
                return
            u = image / alpha
            w = op.adjoint_apply(u) - alpha * v
            beta = q_norm(w)
            if beta == 0.0:
                return
            v = w / beta

    start = np.random.default_rng(seed).random(len(lg)) + 0.5
    steps = 0
    while True:
        start = start / q_norm(start)
        bidiagonal, previous = np.zeros((ops._RESTART, ops._RESTART)), math.inf
        for k, (_, alpha, beta) in enumerate(golub_kahan(start)):
            steps += 1
            bidiagonal[k, k] = alpha
            if k:
                bidiagonal[k - 1, k] = beta
            estimate = float(np.linalg.svd(bidiagonal[:k + 1, :k + 1], compute_uv=False)[0])
            if abs(estimate - previous) <= tol * estimate:
                return estimate, steps
            assert steps < max_iter
            previous = estimate
            if k + 1 == ops._RESTART:
                break
        else:
            return estimate, steps
        coeffs = np.linalg.svd(bidiagonal)[2][0]
        ritz = np.zeros_like(start)
        for c, (v, _, _) in zip(coeffs, golub_kahan(start)):
            ritz += c * v
        start = ritz


def _assert_matches_reference(op, lg, tol):
    """Equal step counts, and estimates within 1e-13, against _reference_norm."""
    reference, steps = _reference_norm(op, lg, tol)
    estimate = ops.estimate_operator_norm(op, lg, tol=tol, max_iter=steps)
    assert estimate == pytest.approx(reference, rel=1e-13)
    if steps > 1:
        with pytest.raises(ConvergenceError):
            ops.estimate_operator_norm(op, lg, tol=tol, max_iter=steps - 1)


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
@pytest.mark.parametrize("N", [1023, 1024])
@pytest.mark.parametrize("boundary", ["wrap", "cut"])
@pytest.mark.parametrize("family,index,side", DISCRETE_CASES + [("pair", 8, "A")])
def test_unit_frame_matches_the_weighted_svd_reference(family, index, side, boundary, N, tol):
    # pair j = 8 restarts at tol 1e-12 on the cut boundary
    # (test_wrap_half_spectrum_replays_restarts)
    lg = LogGrid.default(N)
    op = _discrete(family, index, side, boundary, lg)
    if boundary == "cut":
        _assert_matches_reference(op, lg, tol)
    else:
        # the wrap boundary reads its norm exactly, and the reference rises toward it
        exact = ops.estimate_operator_norm(op, lg, tol=tol)
        _assert_converges_to_exact(_reference_norm(op, lg, tol)[0], exact, tol)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.sampled_from([64, 255, 256]),
       power=st.floats(0.25, 4.0), tol=st.sampled_from([1e-7, 1e-12]))
def test_generic_frame_matches_the_weighted_svd_reference(seed, N, power, tol):
    # an op the engine does not know is conjugated by sqrt(quad_weights)
    rng = np.random.default_rng(seed)
    lg = LogGrid.default(N)
    d = rng.random(N) ** power * rng.choice([-1.0, 1.0], N)
    _assert_matches_reference(_Diagonal(d, lg), lg, tol)


def _loop_multiplier(rates, lg):
    """The wrap multiplier built one rate at a time, one rfft each."""
    N, h = len(lg), lg.h
    tau = h * np.arange(N)
    multiplier = 1.0
    for r in rates:
        left, right = ops._exact_panel(r, h)
        hats = (left + right) * np.exp(-r * tau)
        hats[0] = right + left * math.exp(-r * N * h)
        hats /= -math.expm1(-r * N * h)
        multiplier = multiplier * np.fft.rfft(hats)
    return multiplier


@pytest.mark.parametrize("N", [1023, 1024, 4096])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_stacked_wrap_multiplier_equals_the_per_rate_loop(n, N):
    lg = LogGrid.default(N)
    assert np.array_equal(ops.DiscreteCesaro(n, lg)._multiplier,
                          _loop_multiplier(_rates("cesaro", n), lg))


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -3}, {"tol": -1e-6},
                                    {"tol": math.nan}, {"tol": math.inf}])
def test_norm_arguments_are_validated(grid, kwargs):
    with pytest.raises(ValueError):
        ops.estimate_operator_norm(ops.DiscreteCesaro(1, grid), grid, **kwargs)


def test_overflowing_discretization_fails_fast(grid):
    # e^((j+1/2) s) overflows for j = 60 on the default window; the estimate
    # stops at the first non-finite value instead of running out of steps
    with np.errstate(over="ignore", invalid="ignore"):
        op = ops.DiscreteWeightedPair(ops.power_weight_pair(60), grid, "A", power=60,
                                      boundary="cut")
        with pytest.raises(ConvergenceError, match="non-finite"):
            ops.estimate_operator_norm(op, grid)
