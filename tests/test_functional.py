"""The optimality probe: closed forms against exact integrals, and sweeps."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardy_rellich.analytic import LogGaussian, PowerExp, gamma_class
from hardy_rellich.constants import birman_constant
from hardy_rellich.errors import ConvergenceError, HardyRellichError, InvalidDataError
from hardy_rellich.functional import (ProbeFunction, ProbeSpec, birman_ratio, glazman_ratio,
                                      probe_ratio_closed_form, random_polynomial_probe,
                                      sharpness_sweep)
from hardy_rellich.grid import GridFunction, LogGrid, integrate, norm_sq
from hardy_rellich.interval import vector_birman_ratio
from hardy_rellich.spectral import mellin_forward, verify_diagonalization


def _exact_probe_parts(n, sigma, a):
    """(numerator, denominator) of the probe ratio, integrated by sympy.

    F is the n-fold antiderivative of x^sigma on (0, a), from Cauchy's
    formula for repeated integration, so the tail above a is computed
    without the package's tail coefficients.
    """
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t", positive=True)
    sigma, a = sympy.Rational(sigma), sympy.Rational(a)
    # expanded into monomials first: sympy integrates those much faster
    integrand = sympy.expand((x - t) ** (n - 1) / sympy.factorial(n - 1) * t**sigma)
    below = sympy.integrate(integrand, (t, 0, x))
    tail = sympy.integrate(integrand, (t, 0, a))
    numerator = sympy.integrate(x ** (2 * sigma), (x, 0, a))
    denominator = sympy.integrate(sympy.expand(below**2 / x ** (2 * n)), (x, 0, a)) + sum(
        sympy.integrate(term, (x, a, sympy.oo))
        for term in sympy.Add.make_args(sympy.expand(tail**2 / x ** (2 * n))))
    return float(sympy.N(numerator, 30)), float(sympy.N(denominator, 30))


# a^sigma is rational for each pair, which keeps sympy's integrals fast
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma,a", [(Fraction(0), 10), (Fraction(1, 3), 8),
                                     (Fraction(-1, 4), 16), (Fraction(3, 2), Fraction(9, 4))])
def test_probe_closed_form_matches_exact_integrals(n, sigma, a):
    got = probe_ratio_closed_form(ProbeSpec(n=n, sigma=float(sigma), a=float(a)))
    exact = _exact_probe_parts(n, sigma, a)
    assert got == pytest.approx(exact, rel=1e-12)


def _exact_probe_derivative(n, sigma, a, j, x, mpmath):
    """F^(j)(x) of the probe's n-fold antiderivative F, from Cauchy's formula.

    Below the cutoff F^(j) = x^(n+sigma-j) Gamma(sigma+1)/Gamma(n+sigma-j+1);
    above it F^(j) = int_0^a (x-t)^m t^sigma dt / m! with m = n-1-j, expanded
    by the binomial theorem (0 for j = n); F vanishes at x <= 0.
    """
    sigma, a, x = mpmath.mpf(sigma), mpmath.mpf(a), mpmath.mpf(x)
    if x <= 0:
        return mpmath.mpf(0)
    if x <= a:
        return x ** (n + sigma - j) * mpmath.gamma(sigma + 1) / mpmath.gamma(n + sigma - j + 1)
    m = n - 1 - j
    if m < 0:
        return mpmath.mpf(0)
    return sum(mpmath.binomial(m, i) * x ** (m - i) * (-1) ** i * a ** (sigma + i + 1)
               / (sigma + i + 1) for i in range(m + 1)) / mpmath.factorial(m)


# n = 30: just past the cutoff the reference binomial sum cancels about 41
# digits, hence 80-digit arithmetic
@pytest.mark.parametrize("n", [1, 2, 4, 6, 30])
@pytest.mark.parametrize("sigma", [-0.25, 0.0, 1.5])
@pytest.mark.parametrize("a", [1.0, 10.0])
def test_probe_closures_are_the_piecewise_closed_forms(n, sigma, a):
    mpmath = pytest.importorskip("mpmath")
    f = ProbeFunction(ProbeSpec(n, sigma, a))
    # x = a belongs to the power piece: F^(n)(a) = a^sigma, not the tail's 0
    x = np.array([-1.0, 0.0, 1e-3 * a, 0.5 * a, a, np.nextafter(a, np.inf),
                  1.05 * a, 2 * a, 10 * a, 1e3 * a])
    with mpmath.workdps(80):
        for j in range(n + 1):
            got = f.deriv(j)(x)
            for value, point in zip(got, x):
                exact = _exact_probe_derivative(n, sigma, a, j, point, mpmath)
                if exact == 0:
                    assert value == 0, (j, point)
                else:
                    assert abs(value - exact) <= 1e-12 * abs(exact), (j, point)
    assert np.ndim(f.deriv(0)(a)) == 0
    with pytest.raises(ValueError, match="up to order"):
        f.deriv(n + 1)


class TestProbeTail:
    """Beyond the cutoff the probe's antiderivative is a polynomial."""

    def test_unit_probe(self):
        # n = 1, sigma = 0, a = 1: F(x) = min(x, 1)
        assert ProbeFunction(ProbeSpec(1, 0.0, 1.0))(np.array([2.0, 5.0])).tolist() == [1.0, 1.0]

    def test_first_order_closed_form(self):
        for sigma, a in ((0.25, 2.0), (-0.3, 5.0), (1.5, 0.7)):
            f = ProbeFunction(ProbeSpec(1, sigma, a))
            assert f(3 * a) == pytest.approx(a ** (1 + sigma) / (1 + sigma), rel=1e-15)

    def test_second_order_by_symbolic_integration(self):
        # double antiderivative of the unit-cutoff probe, sampled on its tail
        sympy = pytest.importorskip("sympy")
        t, s = sympy.symbols("t s", positive=True)
        inner = sympy.integrate(sympy.Piecewise((1, t < 1), (0, True)), (t, 0, s))
        exact = [float(sympy.integrate(inner, (s, 0, x0))) for x0 in (2, 3)]
        f = ProbeFunction(ProbeSpec(2, 0.0, 1.0))
        assert f(np.array([2.0, 3.0])).tolist() == exact == [1.5, 2.5]

    def test_rejects_non_square_integrable(self):
        for sigma in (-0.5, -0.7, math.nan):
            with pytest.raises(ValueError, match="sigma > -1/2"):
                ProbeSpec(2, sigma, 1.0)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_nonpositive_cutoff(self, a):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            ProbeSpec(2, 0.0, a)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_an_index_below_one(self, n):
        with pytest.raises(ValueError, match="index n must be a positive integer"):
            ProbeSpec(n, 0.0, 1.0)


@pytest.mark.parametrize("spec", [ProbeSpec(50, 1.5), ProbeSpec(52, 0.0)])
def test_probe_closures_evaluate_each_piece_on_its_own_points(spec):
    # the power piece overflows at x = 1e6, beyond the cutoff, where it is
    # not used; a RuntimeWarning is an error under the suite's filter
    f = ProbeFunction(spec)
    x = LogGrid.default().x
    for j in (0, 1, spec.n):
        assert np.isfinite(f.deriv(j)(x)).all()


def _exact_probe_ratio(n, sigma):
    """The probe ratio in exact arithmetic, for rational sigma > -1/2.

    Written with the monomial tail F = sum_k b_k x^k beyond the cutoff,
    b_k = (-1)^(n-1-k) a^(n-k+sigma) / (k! (n-1-k)! (n-k+sigma)), whose
    cancellation exact rationals do not feel; a^(1+2 sigma) divides out.
    """
    prod = math.prod(j + sigma for j in range(1, n + 1))
    b = [Fraction((-1) ** (n - 1 - k), math.factorial(k) * math.factorial(n - 1 - k))
         / (n - k + sigma) for k in range(n)]
    tail = sum(b[k] * b[m] / (2 * n - 1 - k - m) for k in range(n) for m in range(n))
    head = 1 / (1 + 2 * sigma)
    return head / (head / prod**2 + tail)


# the CLI's default offsets, sigma = -1/2 + eps
DEFAULT_EPS = ("0.5", "0.25", "0.1", "0.05", "0.01", "0.001")


@pytest.mark.parametrize("n", [34, 60, 98])
def test_sharpness_sweep_matches_the_exact_ratios(n):
    # at these n a tail written in powers of x cancels every digit
    exact = [float(_exact_probe_ratio(n, Fraction(e) - Fraction(1, 2))) for e in DEFAULT_EPS]
    for a in (2.0, 10.0, 50.0):
        sweep = sharpness_sweep(n, [float(e) for e in DEFAULT_EPS], a)
        assert [r.ratio for r in sweep.reports] == pytest.approx(exact, rel=1e-12)
        assert all(r.slack > 0 for r in sweep.reports)


def test_probe_ratio_keeps_its_digits_where_the_denominator_is_subnormal():
    report = birman_ratio(98, ProbeSpec(98, 2.0, 0.01))
    assert 0 < report.denominator < np.finfo(float).tiny
    assert report.ratio == pytest.approx(2.3361339956807865e306, rel=1e-12)   # exact


# sigma = -1/2 + 10^t: offsets near -1/2, where the slack is smallest, are
# drawn as often as the ones far from it
@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=98),
       st.floats(min_value=-16.0, max_value=1.0).map(lambda t: -0.5 + 10.0**t),
       st.floats(min_value=1e-2, max_value=1e3))
def test_probe_ratio_sits_above_the_constant_whatever_the_cutoff(n, sigma, a):
    try:
        report = birman_ratio(n, ProbeSpec(n, sigma, a))
    except ValueError:
        # refused only where the slack, about (1 + 2 sigma) c_n, is below
        # the closed form's rounding error
        assert 1 + 2 * sigma < 1e-12
        return
    assert report.slack > 0
    unit = birman_ratio(n, ProbeSpec(n, sigma, 1.0))
    assert report.ratio == pytest.approx(unit.ratio, rel=1e-12)


@pytest.mark.parametrize("spec", [ProbeSpec(n, -0.5 + 1e-16) for n in (1, 2, 60, 98)]
                         + [ProbeSpec(98, 200.0, 1.0)])
def test_unresolved_probe_slack_is_refused(spec):
    # a slack below the closed form's rounding error, or an infinite ratio
    with pytest.raises(ValueError, match="not resolved"):
        birman_ratio(spec.n, spec)


# glazman_ratio(n, 0, ProbeSpec(n, 0)) on LogGrid.default(size) for size =
# 1024, 4096, 16384
PROBE_GRID_RATIOS = {
    1: (0.49662631013600594, 0.4991590588428641, 0.4997916781426674),
    3: (7.607942245253737, 7.646796532248489, 7.656491257971285),
    7: (2468343.957411775, 2480949.9562816247, 2484095.3423664668),
}


@pytest.mark.parametrize("n", sorted(PROBE_GRID_RATIOS))
def test_probe_grid_ratio_converges_at_first_order(n):
    spec = ProbeSpec(n, 0.0)
    numerator, denominator = probe_ratio_closed_form(spec)
    exact = numerator / denominator
    errors = []
    for size, pinned in zip((1024, 4096, 16384), PROBE_GRID_RATIOS[n]):
        # the tail of |F|^2 x^(-2n) decays only like x^(-2): the end test warns
        with pytest.warns(UserWarning, match="does not decay"):
            ratio = glazman_ratio(n, 0.0, spec, LogGrid.default(size)).ratio
        assert ratio == pytest.approx(pinned, rel=1e-12)
        errors.append(ratio - exact)
    # f^(n) jumps from 1 to 0 at the cutoff: the error falls 4x per 4x nodes
    assert all(error < 0 for error in errors)
    assert all(3.5 < coarse / fine < 4.5 for coarse, fine in zip(errors, errors[1:]))


@pytest.mark.parametrize("n", range(1, 7))
def test_sharpness_sweep_descends_toward_the_constant(n):
    eps = (0.5, 0.25, 0.1, 0.05, 0.01, 0.001)
    sweep = sharpness_sweep(n, eps)
    constant = float(birman_constant(n).c)
    assert sweep.constant == constant
    ratios = [report.ratio for report in sweep.reports]
    assert all(ratio > constant for ratio in ratios)
    assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))


def _exact_gamma_ratio(n, p):
    """Birman ratio of x^p e^-x for a whole power p, as a Fraction.

    f^(n) = e^-x sum_k a_k x^(p-k) with a_k = C(n,k) p!/(p-k)! (-1)^(n-k), and
    int_0^inf x^s e^(-2x) dx = s!/2^(s+1).
    """
    def moment(s):
        return Fraction(math.factorial(s), 2 ** (s + 1))

    a = [math.comb(n, k) * math.perm(p, k) * (-1) ** (n - k) for k in range(n + 1)]
    numerator = sum(a[k] * a[m] * moment(2 * p - k - m)
                    for k in range(n + 1) for m in range(n + 1))
    return numerator / moment(2 * p - 2 * n)


# the weight x^(-2n) alone overflows at x_min = 1e-6 from n = 26; taken
# before squaring it does not.  The error left is the cancellation in the
# closure of f^(n): 3.9e-11 at n = 26 and 1.8e-10 at n = 30
@pytest.mark.parametrize("n,rel", [(26, 1e-10), (30, 1e-9)])
def test_birman_ratio_for_large_n(n, rel):
    report = birman_ratio(n, gamma_class(n + 1.0), LogGrid.default(256))
    assert report.ratio == pytest.approx(float(_exact_gamma_ratio(n, n + 1)), rel=rel)


def test_non_finite_samples_raise_the_typed_error():
    # x^53 overflows at x = 1e6 where e^(-x) is 0; sampling must not warn
    # (RuntimeWarning is an error under the test suite's filter)
    with pytest.raises(InvalidDataError, match="non-finite"):
        birman_ratio(52, gamma_class(53), LogGrid.default(256))


def _sampled_exp():
    grid = LogGrid.default(1024)
    return GridFunction(grid, np.exp(-grid.x))


# e^(-x) and x e^(-x) do not vanish to order n at 0, so they are not
# admissible, and the grid reads a ratio far below the constant
@pytest.mark.parametrize("call,constant,message", [
    (lambda: birman_ratio(1, gamma_class(0.0)), 0.25, "not above c_1"),
    (lambda: glazman_ratio(2, 0.5, gamma_class(1.0)), 0.09765625,
     "not above 0.0976562, the weighted constant of n = 2 and alpha = 0.5"),
    (lambda: vector_birman_ratio(1, [gamma_class(1.5), gamma_class(0.0)]), 0.25, "not above c_1"),
    (lambda: birman_ratio(1, _sampled_exp()), 0.25, "not above c_1"),
])
def test_ratio_at_or_below_the_constant_is_refused_on_every_route(call, constant, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError, match=message) as err:
            call()
    assert err.value.last_estimate < constant


@pytest.mark.parametrize("call", [lambda: birman_ratio(99, gamma_class(99.5)),
                                  lambda: sharpness_sweep(99, [0.5])])
def test_n_past_the_float_range_of_c_n_is_refused(call):
    with pytest.raises(ValueError, match="largest n it fits for is 98"):
        call()


# The ratio functionals sample every closure into one stacked array and
# integrate all rows at once; the references here integrate each closure on
# its own, by norm_sq, as the functionals did before they were stacked.

def _reference_parts(n, fs, grid, alpha=0.0):
    """(numerator, denominator) summed over fs, one norm_sq per integrand."""
    numerator = denominator = 0.0
    for f in fs:
        numerator += norm_sq(GridFunction.from_callable(grid, f.deriv(n)), alpha)
        denominator += norm_sq(GridFunction.from_callable(grid, f.deriv(0)), alpha - 2.0 * n)
    return numerator, denominator


def _assert_parts(report, reference):
    assert (report.numerator, report.denominator) == reference
    assert report.ratio == reference[0] / reference[1]


@pytest.mark.parametrize("count", [256, 1024])
def test_stacked_birman_ratio_is_the_per_integrand_one(count):
    grid = LogGrid.default(count)
    for n in range(1, 31):
        for f in (gamma_class(n + 0.5, 2.0), gamma_class(n + 1.0, 0.5),
                  PowerExp([(1 + 2j, n + 0.5), (0.5 - 1j, n + 2.0)], 1.0)):
            _assert_parts(birman_ratio(n, f, grid), _reference_parts(n, [f], grid))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0])
def test_stacked_glazman_ratio_is_the_per_integrand_one(alpha):
    grid = LogGrid.default(512)
    for n in range(1, 13):
        for f in (gamma_class(n + 0.5, 1.0), gamma_class(n + 1.0, 3.0)):
            _assert_parts(glazman_ratio(n, alpha, f, grid), _reference_parts(n, [f], grid, alpha))


def test_stacked_ratio_of_random_polynomial_probes():
    rng = np.random.default_rng(20171019)
    grid = LogGrid.default(256)
    for n in range(1, 26):
        f = random_polynomial_probe(n, rng)
        _assert_parts(birman_ratio(n, f, grid), _reference_parts(n, [f], grid))


@pytest.mark.parametrize("n", range(1, 26))
@pytest.mark.filterwarnings("ignore:integrand does not decay:UserWarning")
def test_random_polynomial_probes_never_give_a_false_counterexample(n):
    # the seeded adversary over random_polynomial_probe: twelve draws per n,
    # the Birman ratio at 256 and 4096 nodes and the Glazman ratios at
    # alpha = -1/2, 1 and 2 on 1024 nodes.  Every case must read slack > 0
    # or be refused with a typed error, never report a ratio at or below
    # its constant.  All 1500 read slack > 0; 19 of the alpha = -1/2 cases
    # also warn that their integrand does not decay at the window ends
    rng = np.random.default_rng(1710 + n)
    grids = {N: LogGrid.default(N) for N in (256, 1024, 4096)}
    cases = [lambda f, N=N: birman_ratio(n, f, grids[N]) for N in (256, 4096)] + \
        [lambda f, alpha=alpha: glazman_ratio(n, alpha, f, grids[1024]) for alpha in (-0.5, 1.0, 2.0)]
    for _ in range(12):
        f = random_polynomial_probe(n, rng)
        for case in cases:
            try:
                report = case(f)
            except HardyRellichError:
                continue
            assert report.slack > 0 and report.ratio > report.constant


@pytest.mark.parametrize("m", [2, 3, 4])
def test_stacked_vector_ratio_is_the_per_integrand_one(m):
    rng = np.random.default_rng(m)
    grid = LogGrid.default(256)
    for n in range(1, 9):
        fs = [gamma_class(n + 0.5 * (k + 1), 1.0 + k) if k % 2 else random_polynomial_probe(n, rng)
              for k in range(m)]
        _assert_parts(vector_birman_ratio(n, fs, grid), _reference_parts(n, fs, grid))


@pytest.mark.parametrize("call", [
    lambda grid: birman_ratio(52, gamma_class(53), grid),
    lambda grid: glazman_ratio(52, 0.0, gamma_class(53), grid),
    lambda grid: vector_birman_ratio(52, [gamma_class(53), gamma_class(54)], grid),
])
def test_weight_out_of_range_raises_without_numpy_warnings(call):
    # x^(-52) overflows at x_min = 1e-6 even taken before squaring
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidDataError, match="non-finite"):
            call(LogGrid.default(256))
    assert caught == []


def test_non_decaying_integrand_warns_once():
    # x^(-1/2) |f''|^2 and x^(-9/2) |f|^2 both go like 4 x^(-1/2) at 0: in u
    # that is 4 x^(1/2), still 4e-3 at x_min = 1e-6.  Both rows fail the
    # decay test, and one warning covers them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        glazman_ratio(2, -0.5, gamma_class(2, 1))
    assert [str(w.message) for w in caught] == [
        "integrand does not decay at the window ends; truncation error may dominate"]


SAMPLED = "computing an order-1 derivative numerically from samples; expect degraded accuracy"
DECAY = "integrand does not decay at the window ends; truncation error may dominate"
STUB = "stub model diverges; using flat fallback"
TRANSFORM = "samples do not decay at the window ends; the windowed transform will be inaccurate"


def _refused(ratio, *args):
    with pytest.raises(ConvergenceError):
        ratio(*args)


# calls on f = x^2.5 e^-x sampled, and the warnings each gives, in order; the
# ratio of x^0.4 (not admissible for n = 1) is refused
WARNING_CALLS = [
    (lambda f: birman_ratio(1, f), [SAMPLED]),
    (lambda f: vector_birman_ratio(1, [f, f]), [SAMPLED]),
    (lambda f: vector_birman_ratio(1, [f, gamma_class(2.5)]), [SAMPLED]),
    (lambda f: glazman_ratio(2, 0.0, ProbeSpec(2, 0.0)), [DECAY]),
    (lambda f: _refused(birman_ratio, 1, gamma_class(0.4)), [DECAY, STUB, STUB]),
    (lambda f: verify_diagonalization(LogGaussian(0, 30), count=1024),
     [DECAY, TRANSFORM, TRANSFORM]),
    (lambda f: norm_sq(GridFunction(f.grid, np.ones(len(f.grid)))), [DECAY]),
    (lambda f: integrate(GridFunction(f.grid, np.ones(len(f.grid)))), [DECAY]),
    (lambda f: mellin_forward(GridFunction(f.grid, np.ones(len(f.grid)))), [TRANSFORM]),
]


@pytest.mark.parametrize("call", [call for call, _ in WARNING_CALLS])
def test_sampled_ratio_warns_once_at_the_caller(call):
    # finite differences warn once per ratio, on every route, and every
    # warning names the line that made the call, however deep in the
    # package it was raised
    grid = LogGrid(1e-4, 60.0, 2048)
    f = GridFunction(grid, grid.x**2.5 * np.exp(-grid.x))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(f)
    assert [str(w.message) for w in caught] == dict(WARNING_CALLS)[call]
    assert {w.filename for w in caught} == {__file__}
