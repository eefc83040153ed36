"""The optimality probe: closed forms against exact integrals, and sweeps."""

import math
from fractions import Fraction

import pytest

from hardy_rellich.analytic import gamma_class
from hardy_rellich.constants import birman_constant
from hardy_rellich.errors import InvalidDataError
from hardy_rellich.functional import (ProbeSpec, birman_ratio, probe_ratio_closed_form,
                                      sharpness_sweep)
from hardy_rellich.grid import LogGrid


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


@pytest.mark.parametrize("call", [lambda: birman_ratio(99, gamma_class(99.5)),
                                  lambda: sharpness_sweep(99, [0.5])])
def test_n_past_the_float_range_of_c_n_is_refused(call):
    with pytest.raises(ValueError, match="largest n it fits for is 98"):
        call()
