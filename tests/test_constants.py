"""Exact-arithmetic tests for the closed-form constants and coefficients."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hardy_rellich.constants import (
    _FLOAT_LIMITS,
    _float_constant,
    _float_weighted_constant,
    birman_constant,
    cesaro_norm,
    double_factorial_odd,
    glazman_constant,
    leibniz_coeffs,
)


class TestSharpConstant:
    def test_hardy_value(self):
        assert birman_constant(1).c == Fraction(1, 4)

    def test_rellich_value(self):
        assert birman_constant(2).c == Fraction(9, 16)

    def test_n3_by_brute_force_product(self):
        # (5*3*1)^2 / 2^6 computed with plain integer arithmetic
        assert birman_constant(3).c == Fraction((5 * 3 * 1) ** 2, 2**6) == Fraction(225, 64)

    def test_reciprocal_root_identity_exact(self):
        for n in range(1, 33):
            sharp = birman_constant(n)
            assert sharp.c * sharp.b**2 == 1

    def test_recurrence(self):
        for n in range(1, 32):
            ratio = birman_constant(n + 1).c / birman_constant(n).c
            assert ratio == Fraction((2 * n + 1) ** 2, 4)

    def test_overflow_free_at_64(self):
        sharp = birman_constant(64)
        assert sharp.c.numerator > 2**64  # exceeds machine integers, still exact
        assert sharp.c * sharp.b**2 == 1

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            birman_constant(0)


class TestCesaroNorm:
    def test_known_values(self):
        assert cesaro_norm(1) == 2
        assert cesaro_norm(2) == Fraction(4, 3)
        assert cesaro_norm(3) == Fraction(8, 15)

    def test_double_factorial(self):
        assert [double_factorial_odd(n) for n in (1, 2, 3, 4)] == [1, 3, 15, 105]

    def test_matches_reciprocal_root(self):
        for n in range(1, 33):
            assert cesaro_norm(n) == birman_constant(n).b

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError):
            cesaro_norm(0)


class TestGlazmanConstant:
    def test_reduces_to_hardy(self):
        assert glazman_constant(1, 0) == Fraction(1, 4)

    def test_degenerate_weight_is_zero(self):
        assert glazman_constant(1, 1) == 0
        assert glazman_constant(2, 1) == 0

    def test_half_weight_value(self):
        # ((2.5)(0.5))^2 / 16, with 0.5 exact in binary
        assert glazman_constant(2, 0.5) == Fraction(25, 256)

    def test_agrees_with_unweighted(self):
        for n in range(1, 33):
            assert glazman_constant(n, 0) == birman_constant(n).c

    @given(st.integers(min_value=1, max_value=12),
           st.fractions(min_value=-4, max_value=4))
    def test_matches_direct_product(self, n, alpha):
        prod = Fraction(1)
        for j in range(1, n + 1):
            prod *= 2 * n + 1 - 2 * j - alpha
        assert glazman_constant(n, alpha) == prod * prod / 4**n


def _falling(m, k):
    out = 1
    for i in range(k):
        out *= m - i
    return out


class TestLeibnizCoeffs:
    def test_top_coefficient_is_one(self):
        for n in range(1, 8):
            for k in range(n + 1):
                assert leibniz_coeffs(n, k).a[k] == 1

    def test_product_rule_example(self):
        # (x^2 f)' = 2 x f + x^2 f'
        table = leibniz_coeffs(2, 1)
        assert table.a == (2, 1)

    def test_full_order_constant_is_factorial(self):
        for n in range(1, 10):
            assert leibniz_coeffs(n, n).a[0] == math.factorial(n)

    def test_monomial_oracle(self):
        # applying the table to f = x^m must reproduce d^k/dx^k x^(n+m)
        # computed independently by the falling-factorial formula
        for n in range(1, 17):
            for k in range(n + 1):
                table = leibniz_coeffs(n, k).a
                for m in (0, 1, 2, 5):
                    total = sum(table[j] * _falling(m, j) for j in range(k + 1))
                    assert total == _falling(n + m, k)

    def test_sympy_product_rule_oracle(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        f = sympy.Function("f")
        for n, k in ((2, 1), (3, 2), (4, 4)):
            expanded = sympy.diff(x**n * f(x), x, k).expand()
            table = leibniz_coeffs(n, k).a
            rebuilt = sum(
                table[j] * x ** (n - k + j) * sympy.diff(f(x), x, j)
                for j in range(k + 1)
            ).expand()
            assert sympy.simplify(expanded - rebuilt) == 0

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            leibniz_coeffs(2, 3)


def test_float_limits_are_the_last_n_that_fit():
    for name, limit in _FLOAT_LIMITS.items():
        assert _float_constant(name, limit) > 0 and math.isfinite(_float_constant(name, limit))
        with pytest.raises(ValueError, match=f"is {limit}"):
            _float_constant(name, limit + 1)
    # past the limits the exact constants leave the float range
    with pytest.raises(OverflowError):
        float(birman_constant(_FLOAT_LIMITS["c_n"] + 1).c)
    assert float(birman_constant(_FLOAT_LIMITS["b_n"] + 1).b) == 0.0


@pytest.mark.parametrize("alpha,limit", [(-3, 97), (-3.0, 97), (0.0, 98), (-0.5, 98),
                                         (0.5, 99), (Fraction(-7, 2), 96), (-20.0, 91),
                                         (1e3, 57)])
def test_weighted_float_limit_is_the_last_n_that_fits(alpha, limit):
    assert math.isfinite(_float_weighted_constant(limit, alpha))
    assert _float_weighted_constant(limit, alpha) == float(glazman_constant(limit, alpha))
    with pytest.raises(ValueError, match=f"largest n it fits for is {limit}$"):
        _float_weighted_constant(limit + 1, alpha)
    with pytest.raises(OverflowError):
        float(glazman_constant(limit + 1, alpha))


def test_weighted_constant_at_alpha_zero_is_c_n():
    for n in (1, 8, 98):
        assert _float_weighted_constant(n, 0.0) == _float_constant("c_n", n)
