"""Derivative-closure consistency for the analytic test functions."""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from hardy_rellich.analytic import (
    LogGaussian,
    PowerExp,
    gamma_class,
    monomial,
    polynomial_times_exp,
    zero_function,
)
from hardy_rellich.constants import DEFAULT_WINDOW


class TestPowerExp:
    def test_monomial_values_and_derivatives(self):
        f = monomial(1.5)
        x = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(f.deriv(0)(x), x**1.5)
        np.testing.assert_allclose(f.deriv(1)(x), 1.5 * x**0.5)
        np.testing.assert_allclose(f.deriv(2)(x), 0.75 * x**-0.5)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_is_refused(self, power):
        with pytest.raises(ValueError, match=f"power {power} is not a finite number"):
            PowerExp([(1.0, 2.0), (1.0, power)])

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
        _ = f.deriv(3)
        d = {j: f._derivative(j) for j in range(4)}
        assert all(isinstance(v, PowerExp) for v in d.values())

    def test_zero_function(self):
        z = zero_function()
        assert np.all(z.deriv(0)(np.array([0.1, 1.0])) == 0)
        assert np.all(z.deriv(5)(np.array([0.1, 1.0])) == 0)


EPS = np.finfo(float).eps
POINTS = np.geomspace(1e-6, 1e6, 49)


def _mp(value, mpmath):
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpc(value)


def _mp_sum(terms, rate, x, mpmath):
    """(sum c x^p e^(-rate x), sum |c| x^p e^(-rate x)) at high precision."""
    decay = mpmath.exp(-_mp(rate, mpmath).real * x)
    powers = [mpmath.power(x, _mp(p, mpmath).real) for p, _ in terms]
    value = sum(_mp(c, mpmath) * xp for (_, c), xp in zip(terms, powers))
    size = sum(abs(_mp(c, mpmath)) * xp for (_, c), xp in zip(terms, powers))
    return value * decay, size * decay


def _assert_close_to_terms(got, terms, rate, points, rtol):
    """|got - f| <= rtol * sum |c_k x^p_k| e^(-rate x), the Horner bound."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for value, x in zip(np.atleast_1d(got), points):
            exact, size = _mp_sum(terms, rate, mpmath.mpf(float(x)), mpmath)
            error = abs(mpmath.mpc(complex(value)) - exact)
            assert error <= rtol * size + np.finfo(float).tiny, (x, value, exact)


def _gamma_derivative_terms(p: Fraction, rate: int, j: int):
    """Exact (power, coef) terms of d^j/dx^j [x^p e^(-rate x)] / e^(-rate x)."""
    terms, falling = [], Fraction(1)
    for i in range(j + 1):
        terms.append((p - i, math.comb(j, i) * falling * Fraction(-rate) ** (j - i)))
        falling *= p - i
    return [(power, coef) for power, coef in terms if coef != 0]


def _term_sum(f: PowerExp, x):
    """The term-by-term sum, with the x <= 0 limits of fractional powers."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    with np.errstate(all="ignore"):
        for p, c in f.terms:
            if p == int(p) and p >= 0:
                out += c * x ** int(p)
            else:
                out += np.where(x > 0, c * np.power(x, p), 0.0 if p > 0 else np.nan)
        return out * np.exp(-f.rate * x)


class TestHornerEvaluation:
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("rate", [1, 2])
    def test_gamma_class_derivatives_against_exact_sum(self, half, rate):
        for j in range(26):
            p = j + (Fraction(1, 2) if half else 1)
            f = gamma_class(float(p), float(rate))
            terms = _gamma_derivative_terms(p, rate, j)
            _assert_close_to_terms(f.deriv(j)(POINTS), terms, rate, POINTS,
                                   rtol=2 * (j + 2) * EPS)

    def test_one_group_per_fractional_class(self):
        f = PowerExp([(1.0, 0.5), (1.0, 1.25), (1.0, 3.0)])
        for j in range(4):
            values = f.deriv(j)(POINTS)
            _assert_close_to_terms(values, f._derivative(j).terms, 0.0, POINTS, rtol=16 * EPS)
        assert sorted(group.p0 for group in f._plan) == [0.5, 1.25, 3.0]
        # 0.3 - (0.3 - 1 - 1) rounds to 2 but is not 2: that term stays apart
        g = PowerExp([(1.0, 0.3), (1.0, 0.3 - 1), (1.0, 0.3 - 1 - 1)])
        g.deriv(0)(POINTS)
        assert sorted(len(group.coefs) for group in g._plan) == [1, 2]

    def test_gap_takes_one_step(self):
        f = PowerExp([(1.0, 0.5), (1.0, 60.5)])
        points = POINTS[POINTS <= 1e5]     # x^60.5 overflows beyond
        _assert_close_to_terms(f.deriv(0)(points), f.terms, 0.0, points, rtol=16 * EPS)
        (group,) = f._plan
        assert group.gaps == (60,)

    def test_complex_coefficients(self):
        f = PowerExp([(1 + 2j, 1.5), (0.5 - 1j, 3), (2.0, 0.5)], rate=1.0)
        for j in range(3):
            values = f.deriv(j)(POINTS)
            assert values.dtype == complex
            _assert_close_to_terms(values, f._derivative(j).terms, 1.0, POINTS, rtol=16 * EPS)

    def test_scalar_in_scalar_out(self):
        for f in (gamma_class(2.5, 1.0), polynomial_times_exp([1.0, 2.0], 1.0),
                  PowerExp([(1j, 1.5)]), zero_function()):
            value = f.deriv(1)(1.3)
            assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
        grid = np.array([[0.5, 1.0], [2.0, 4.0]])
        assert gamma_class(1.5).deriv(2)(grid).shape == (2, 2)

    def test_limits_at_zero(self):
        f = gamma_class(2.5, 1.0)
        assert [f.deriv(j)(0.0) for j in range(3)] == [0.0, 0.0, 0.0]
        assert np.isnan(f.deriv(3)(0.0))                  # x^(-1/2) term
        assert polynomial_times_exp([1.0, 2.0, 3.0], 1.0).deriv(0)(0.0) == 1.0
        np.testing.assert_array_equal(monomial(-1.0).deriv(0)(np.array([0.0, -1.0, 2.0])),
                                      [np.nan, np.nan, 0.5])
        np.testing.assert_array_equal(monomial(1.5).deriv(0)(np.array([-1.0, 0.0])), 0.0)

    @pytest.mark.parametrize("make,j", [
        (lambda: gamma_class(25.5, 1.0), 25),
        (lambda: gamma_class(1.5, 2.0), 25),
        (lambda: gamma_class(0.5, 1.0), 60),
        (lambda: PowerExp([(1.0, 0.5), (1.0, 60.5)]), 0),
        (lambda: polynomial_times_exp([1.0] * 40, 1.0), 3),
        (lambda: PowerExp([(1.0, -40.5), (1.0, 20.5)], 0.5), 2),
    ])
    def test_finite_wherever_the_term_sum_is(self, make, j):
        f = make()
        lo, hi = DEFAULT_WINDOW
        x = np.array([lo, 2 * lo, 1.0, hi / 2, hi, 1e-30, 1e30])
        with np.errstate(all="ignore"):
            got = f.deriv(j)(x)
        finite = np.isfinite(_term_sum(f._derivative(j), x))
        assert np.all(np.isfinite(got)[finite])


def _exact_leibniz(terms, rate, j):
    """{power: (coef, size)} of the j-th derivative over e^(-rate x), exactly.

    Each (power, coef) term contributes C(j,k) p(p-1)...(p-k+1) (-rate)^(j-k)
    c to the power p - k; size sums the moduli of the contributions, the
    scale of the rounding error of any float evaluation of the sum.
    """
    rate = Fraction(rate)
    out = {}
    for p, c in terms:
        p, c = Fraction(p), complex(c)
        c_re, c_im = Fraction(c.real), Fraction(c.imag)
        falling = Fraction(1)
        for k in range(j + 1):
            scale = math.comb(j, k) * falling * (-rate) ** (j - k)
            re, im, size = out.get(p - k, (0, 0, 0))
            out[p - k] = (re + scale * c_re, im + scale * c_im, size + abs(scale) * abs(c))
            falling *= p - k
    return {p: (complex(float(re), float(im)), float(size))
            for p, (re, im, size) in out.items()}


class TestLeibnizDerivatives:
    """deriv(j) in one Leibniz step against exact rational sums, j <= 60."""

    @pytest.mark.parametrize("f", [
        polynomial_times_exp([1.0, -2.0, 0.5, 3.0], rate=1.5),   # whole powers
        polynomial_times_exp([1.0, -2.0, 0.5, 3.0], rate=0.0),   # ... at rate 0
        PowerExp([(1.0, 2.5), (1.0, -0.75)]),                    # fractional, rate 0
        PowerExp([(1 + 2j, 1.5), (0.5 - 1j, 3), (2.0, 0.5)], rate=1.0),
        PowerExp([(1.0, 0.5), (-0.5, 1.25), (2.0, 3.0), (0.25, 2.5)], rate=0.75),
    ], ids=["whole", "whole-rate0", "rate0", "complex", "mixed-groups"])
    def test_terms_match_exact_sums(self, f):
        for j in range(61):
            exact = _exact_leibniz(f.terms, f.rate, j)
            got = dict(f._derivative(j).terms)
            assert set(got) <= set(exact)
            for power, (coef, size) in exact.items():
                error = abs(complex(got.get(power, 0.0)) - coef)
                assert error <= (j + 8) * EPS * size, (j, power)

    def test_whole_powers_terminate(self):
        f = polynomial_times_exp([1.0, -2.0, 0.5, 3.0], rate=0.0)
        assert f._derivative(3).terms == ((0, 18.0),)
        assert all(f._derivative(j).terms == () for j in (4, 5, 60))
        g = polynomial_times_exp([1.0, -2.0, 0.5, 3.0], rate=1.5)
        assert all(len(g._derivative(j).terms) == 4 for j in (1, 30, 60))
        assert monomial(0.0)._derivative(1).terms == ()

    def test_rate_zero_keeps_one_term_per_power(self):
        f = monomial(2.5)
        assert f._derivative(3).terms == ((-0.5, 2.5 * 1.5 * 0.5),)

    def test_derivatives_are_cached_per_order(self):
        f = gamma_class(3.5, 2.0)
        assert f._derivative(0) is f
        assert f._derivative(7) is f._derivative(7)
        assert f.deriv(7).__self__ is f._derivative(7)

    def test_dropped_function_needs_no_cyclic_collector(self):
        f = polynomial_times_exp([0.0, 1.0, 2.0], rate=1.0)
        for j in range(5):
            f.deriv(j)(POINTS)
        ref = weakref.ref(f)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del f
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestDerivedHornerGroups:
    """A derivative's Horner groups where the forward sum would leave the range."""

    def test_points_beyond_safe(self):
        # x^0.5 + x^60.5: the forward Horner sum of its derivatives would
        # leave the float range at large x, which the backward sum avoids
        f = PowerExp([(1.0, 0.5), (3.0, 60.5), (-2.0, 120.5)], rate=0.5)
        x = np.geomspace(1e-6, 1e6, 193)
        for j in (1, 3, 8):
            derived = f._derivative(j)
            assert any(max(-x.min(), x.max()) > group.safe for group in derived._horner())
            with np.errstate(all="ignore"):
                got = f.deriv(j)(x)
            finite = np.isfinite(_term_sum(derived, x))
            assert np.all(np.isfinite(got)[finite])
            _assert_close_to_terms(got[finite], derived.terms, f.rate, x[finite],
                                   rtol=16 * EPS)


class TestLogGaussian:
    def test_first_derivative_consistent(self):
        # against central differences
        x = np.array([0.31, 0.77, 1.3, 2.9, 6.1])
        h = 1e-6 * np.maximum(x, 1.0)
        for f in (LogGaussian(0.0, 1.0), LogGaussian(1.0, 0.5)):
            numeric = (f.deriv(0)(x + h) - f.deriv(0)(x - h)) / (2 * h)
            np.testing.assert_allclose(f.deriv(1)(x), numeric, rtol=1e-5)

    def test_second_derivative_by_differences(self):
        f = LogGaussian(0.3, 1.2)
        x = np.array([0.7, 1.1, 2.2])
        h = 1e-5
        numeric = (f.deriv(1)(x + h) - f.deriv(1)(x - h)) / (2 * h)
        np.testing.assert_allclose(f.deriv(2)(x), numeric, rtol=1e-5)

    def test_order_limit(self):
        with pytest.raises(ValueError):
            LogGaussian().deriv(3)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf, 1e300, 1e-300])
    def test_width_must_be_positive_and_finite(self, s):
        # 1e300 and 1e-300 are finite, but their squares overflow or underflow
        with pytest.raises(ValueError):
            LogGaussian(0.0, s)

