"""Exact arithmetic for the closed-form constants of the inequality family.

Everything here is computed with arbitrary-precision integer rationals
(`fractions.Fraction`); conversion to floating point is left to callers.
The central objects are

* the sharp constant  c_n = [(2n-1)!!]^2 / 2^(2n)  of the n-th
  Hardy--Rellich-type inequality (n = 1 is Hardy, n = 2 is Rellich),
* its reciprocal square root  b_n = 2^n / (2n-1)!!, which is the operator
  norm of the n-th generalized Cesaro average,
* the weighted (Glazman) constant  [prod_{j=1..n} (2n+1-2j-alpha)]^2 / 2^(2n), and
* the coefficients a_j(n,k) in the Leibniz expansion of (x^n f)^(k).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SharpConstant",
    "LeibnizTable",
    "double_factorial_odd",
    "birman_constant",
    "cesaro_norm",
    "glazman_constant",
    "leibniz_coeffs",
]

# Defaults of the grids and of the command-line parser.  They live here, with
# no numpy import, so that the parser can be built without importing numpy.
DEFAULT_WINDOW = (1e-6, 1e6)
DEFAULT_POINTS = 4096
SIDES = ("left", "right", "both")


def double_factorial_odd(n: int) -> int:
    """(2n-1)!! = (2n-1)(2n-3)...3*1, with the empty product equal to 1."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


@dataclass(frozen=True)
class SharpConstant:
    """Sharp constant c_n and reciprocal-root norm b_n for index n.

    Invariant: c * b**2 == 1 exactly.
    """

    n: int
    c: Fraction
    b: Fraction


@dataclass(frozen=True)
class LeibnizTable:
    """Integer coefficients a_j(n,k) of (x^n f)^(k) = sum_j a_j x^(n-k+j) f^(j)."""

    n: int
    k: int
    a: tuple  # a[j] multiplies x^(n-k+j) f^(j), 0 <= j <= k


def _check_index(n) -> int:
    """n as a plain int: any positive integer, numpy's included, but not a bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"index n must be a positive integer, got {n!r}")
    return int(n)


def birman_constant(n: int) -> SharpConstant:
    """Exact sharp constant of the n-th inequality and its reciprocal root.

    c_n = [(2n-1)!!]^2 / 2^(2n) and b_n = 2^n / (2n-1)!!.  Arbitrary-precision
    integers keep this overflow-free for any n (the numerator exceeds 64-bit
    range already near n = 17).
    """
    n = _check_index(n)
    dfac = double_factorial_odd(n)
    c = Fraction(dfac * dfac, 4**n)
    b = Fraction(2**n, dfac)
    return SharpConstant(n=n, c=c, b=b)


# The largest n whose constant is a finite, nonzero float: float(c_n)
# overflows from n = 99 on, and b_n = 1/sqrt(c_n) underflows to 0 from 179.
_FLOAT_LIMITS = {"c_n": 98, "b_n": 178}


@functools.lru_cache(maxsize=None)    # at most 2 x 178 entries
def _float_constant(name: str, n: int) -> float:
    """float(c_n) or float(b_n); an n past the float range raises ValueError."""
    if n > _FLOAT_LIMITS[name]:
        raise ValueError(f"{name} does not fit in a float for n = {n}; "
                         f"the largest n it fits for is {_FLOAT_LIMITS[name]}")
    sharp = birman_constant(n)
    return float(sharp.c if name == "c_n" else sharp.b)


@functools.lru_cache(maxsize=1024)
def _float_weighted_constant(n: int, alpha) -> float:
    """float(glazman_constant(n, alpha)), c_n's float for alpha = 0.

    The rule of _float_constant: an n whose constant overflows a float
    raises ValueError naming the largest n that fits for this alpha, the
    n before the first one that overflows, found in exact arithmetic from
    the product prod_{k<m} (2k + 1 - alpha) grown one factor at a time.
    """
    if alpha == 0:
        return _float_constant("c_n", n)
    try:
        return float(glazman_constant(n, alpha))
    except OverflowError:
        a, prod, limit = Fraction(alpha), Fraction(1), 0
        while True:     # prod_{k <= limit} (2k + 1 - alpha): the constant of n = limit + 1
            prod *= 2 * limit + 1 - a
            try:
                float(prod * prod / 4 ** (limit + 1))
            except OverflowError:
                break
            limit += 1
        raise ValueError(f"the weighted constant (alpha = {float(alpha):g}) does not fit "
                         f"in a float for n = {n}; the largest n it fits for is {limit}") from None


def cesaro_norm(n: int) -> Fraction:
    """Operator norm 2^n / (2n-1)!! of the n-th generalized Cesaro average."""
    return birman_constant(n).b


def glazman_constant(n: int, alpha) -> Fraction:
    """Sharp constant of the power-weighted inequality with weight x^alpha.

    Returns [prod_{j=1..n} (2n+1-2j-alpha)]^2 / 2^(2n) as an exact rational
    (float alpha is converted exactly in binary).  Reduces to the unweighted
    sharp constant at alpha = 0.  A zero value (alpha hitting 2n+1-2j) is a
    valid degenerate constant, not an error.
    """
    n = _check_index(n)
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise ValueError(f"the weight power alpha must be finite, got {alpha}")
    a = Fraction(alpha)
    prod = Fraction(1)
    for j in range(1, n + 1):
        prod *= 2 * n + 1 - 2 * j - a
    return prod * prod / 4**n


def leibniz_coeffs(n: int, k: int) -> LeibnizTable:
    """Coefficients of the k-th derivative of x^n f by the product rule.

    a_j(n,k) = binom(k,j) * prod_{l=0..k-j-1} (n-l); the top coefficient
    a_k is always 1 (empty product) and a_0(n,n) = n!.
    """
    if not isinstance(n, int) or not isinstance(k, int) or k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative integers")
    if k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k} > n={n}")
    coeffs = []
    for j in range(k + 1):
        prod = 1
        for ell in range(k - j):
            prod *= n - ell
        coeffs.append(math.comb(k, j) * prod)
    return LeibnizTable(n=n, k=k, a=tuple(coeffs))
