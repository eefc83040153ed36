"""Exact answers the benchmark checks the package against.

Every oracle here is computed independently of the package: rational
arithmetic (`fractions.Fraction`) wherever the answer is rational, and a
bracketed root or a single irrational factor in double precision where it
is not.  Inputs are restricted to families where that is possible:

* ``powerexp_norm_sq``: weighted L^2 norms of derivatives of
  sum_i c_i x^(p_i) e^(-rate x) with 2 p_i and 2 alpha integers, as Gamma
  integrals over the exactly differentiated terms;
* ``bridge_ratio``: the finite-interval ratio of (x-a)^n (c-x)^n x^d, as
  polynomial integrals split at the midpoint;
* ``birman_c`` and ``glazman_c``: the sharp constants, exactly;
* ``probe_ratio``: the closed-form ratio of the optimality probe for
  rational sigma (it does not depend on the cutoff a);
* ``cesaro_norm`` and ``pair_norm``: b_n = 2^n/(2n-1)!! and 2K = 2/(2j+1);
* ``cut_window_norm``: the norm of the hard-window discretizations with an
  exponential kernel e^(-r tau), 1/sqrt(omega^2 + r^2) with omega the root
  in (pi/2L, pi/L) of omega cos(omega L) + r sin(omega L) = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "powerexp_derivative",
    "powerexp_norm_sq",
    "powerexp_ratio",
    "bridge_ratio",
    "probe_ratio",
    "cesaro_norm",
    "pair_norm",
    "cut_window_norm",
    "birman_c",
    "glazman_c",
]


def birman_c(n: int) -> Fraction:
    """c_n = [(2n-1)!!]^2 / 4^n."""
    dfac = math.prod(range(1, 2 * n, 2))
    return Fraction(dfac * dfac, 4**n)


def glazman_c(n: int, alpha) -> Fraction:
    """[prod_{j=1..n} (2n+1-2j-alpha)]^2 / 4^n for the weight x^alpha."""
    prod = Fraction(1)
    for j in range(1, n + 1):
        prod *= 2 * n + 1 - 2 * j - Fraction(alpha)
    return prod * prod / 4**n


def cesaro_norm(n: int) -> Fraction:
    """b_n = 2^n / (2n-1)!!, the norm of T_n."""
    return Fraction(2**n, math.prod(range(1, 2 * n, 2)))


def pair_norm(j: int) -> Fraction:
    """2K = 2/(2j+1) for the pair phi = x^j, psi = x^(-j-1)."""
    return Fraction(2, 2 * j + 1)


# ---------------------------------------------------------------------------
# PowerExp families: Gamma integrals
# ---------------------------------------------------------------------------


def powerexp_derivative(terms, rate, order: int) -> dict:
    """Exact terms {power: coef} of the order-th derivative of
    sum c x^p e^(-rate x), by the Leibniz rule, every entry a Fraction:
    (x^p e^(-rx))^(n) = sum_k C(n,k) p(p-1)...(p-k+1) (-r)^(n-k) x^(p-k) e^(-rx)."""
    rate = Fraction(rate)
    out = {}
    for coef, power in terms:
        coef, power = Fraction(coef), Fraction(power)
        falling = Fraction(1)
        for k in range(order + 1):
            if k:
                falling *= power - (k - 1)
            term = coef * math.comb(order, k) * falling * (-rate) ** (order - k)
            if term:
                out[power - k] = out.get(power - k, Fraction(0)) + term
    return {p: c for p, c in out.items() if c}


def _gamma_moment(s: Fraction, beta: Fraction) -> tuple:
    """int_0^inf x^s e^(-beta x) dx as (rational part, half) for 2s integer.

    The integral equals the rational part times sqrt(pi/beta) when half is
    True (s + 1 a half-integer) and the rational part alone otherwise.
    """
    if not s > -1:
        raise ValueError(f"x^{s} is not integrable at 0")
    k = s + 1
    if k.denominator == 1:
        k = int(k)
        return Fraction(math.factorial(k - 1)) / beta**k, False
    if k.denominator != 2:
        raise ValueError(f"exponent {s} is not a multiple of 1/2")
    m = int(k - Fraction(1, 2))  # Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!)
    gam = Fraction(math.factorial(2 * m), 4**m * math.factorial(m))
    return gam / beta**m, True


def powerexp_norm_sq(terms, rate, order: int, weight_power=0) -> float:
    """int_0^inf x^weight |f^(order)(x)|^2 dx for real f = sum c x^p e^(-rate x).

    Every pairwise product of derivative terms shares the fractional part
    of its exponent, so the sum is one rational times one irrational
    factor and the cancellation between terms is exact.
    """
    rate = Fraction(rate)
    if not rate > 0:
        raise ValueError("the Gamma-integral oracle needs a positive rate")
    beta = 2 * rate
    deriv = list(powerexp_derivative(terms, rate, order).items())
    # integer numerators over a common denominator keep the m^2 products cheap
    scale = math.lcm(*(c.denominator for _, c in deriv)) if deriv else 1
    if any((2 * p).denominator != 1 for p, _ in deriv):
        raise ValueError("powers must be multiples of 1/2")
    scaled = [(int(2 * p), c.numerator * (scale // c.denominator)) for p, c in deriv]
    by_twice_exponent = {}
    for pi, ci in scaled:
        for pj, cj in scaled:
            by_twice_exponent[pi + pj] = by_twice_exponent.get(pi + pj, 0) + ci * cj
    total = Fraction(0)
    half_flag = None
    for twice, weight in by_twice_exponent.items():
        value, half = _gamma_moment(Fraction(twice, 2) + Fraction(weight_power), beta)
        if half_flag is None:
            half_flag = half
        elif half != half_flag:
            raise ValueError("term exponents must share their fractional part")
        total += weight * value
    total /= scale * scale
    if half_flag:
        return float(total) * math.sqrt(math.pi / float(beta))
    return float(total)


def powerexp_ratio(n: int, components, alpha=0) -> float:
    """Half-line (weighted) ratio summed over components.

    components: iterable of (terms, rate); the ratio is
    sum int x^alpha |f^(n)|^2 / sum int x^(alpha-2n) |f|^2.
    """
    num = den = 0.0
    for terms, rate in components:
        num += powerexp_norm_sq(terms, rate, n, alpha)
        den += powerexp_norm_sq(terms, rate, 0, Fraction(alpha) - 2 * n)
    return num / den


# ---------------------------------------------------------------------------
# bridges on a finite interval: polynomial integrals
# ---------------------------------------------------------------------------


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ppow(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _pderiv(p, k):
    for _ in range(k):
        p = [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]
    return p


def _pint(p, lo, hi):
    return sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(p))


def bridge_ratio(n: int, a, c, side: str, degree: int = 0) -> Fraction:
    """Exact interval ratio of f = (x-a)^n (c-x)^n x^degree on (a, c).

    The numerator is int |f^(n)|^2; the denominator is int f^2 / w^(2n)
    with w = x - a (left), c - x (right) or min of both (both), and
    f^2 / w^(2n) is itself a polynomial on each side of the midpoint.
    """
    a, c = Fraction(a), Fraction(c)
    left = _ppow([-a, Fraction(1)], n)    # (x - a)^n
    right = _ppow([c, Fraction(-1)], n)   # (c - x)^n
    xd = [Fraction(0)] * degree + [Fraction(1)]
    f = _pmul(_pmul(left, right), xd)
    fn = _pderiv(f, n)
    numerator = _pint(_pmul(fn, fn), a, c)
    over_left = _pmul(_pmul(right, right), _pmul(xd, xd))   # f^2/(x-a)^(2n)
    over_right = _pmul(_pmul(left, left), _pmul(xd, xd))    # f^2/(c-x)^(2n)
    mid = (a + c) / 2
    if side == "left":
        denominator = _pint(over_left, a, c)
    elif side == "right":
        denominator = _pint(over_right, a, c)
    elif side == "both":
        denominator = _pint(over_left, a, mid) + _pint(over_right, mid, c)
    else:
        raise ValueError(f"unknown side {side!r}")
    return numerator / denominator


# ---------------------------------------------------------------------------
# the optimality probe
# ---------------------------------------------------------------------------


def probe_ratio(n: int, sigma) -> Fraction:
    """Exact probe ratio for rational sigma > -1/2.

    The n-fold antiderivative of x^sigma on (0, a) is x^(n+sigma)/P below a
    and sum_k beta_k a^(n-k+sigma) x^k above it, with P = prod (j+sigma) and
    beta_k = (-1)^(n-1-k) / (k! (n-1-k)! (n-k+sigma)).  Numerator and both
    denominator pieces carry the same factor a^(1+2 sigma), so the ratio is
    independent of a.
    """
    sigma = Fraction(sigma)
    if not sigma > Fraction(-1, 2):
        raise ValueError("probe needs sigma > -1/2")
    prod = Fraction(1)
    for j in range(1, n + 1):
        prod *= j + sigma
    beta = [Fraction((-1) ** (n - 1 - k),
                     math.factorial(k) * math.factorial(n - 1 - k)) / (n - k + sigma)
            for k in range(n)]
    tail = sum(beta[k] * beta[m] / (2 * n - 1 - k - m)
               for k in range(n) for m in range(n))
    numerator = 1 / (1 + 2 * sigma)
    return numerator / (numerator / prod**2 + tail)


# ---------------------------------------------------------------------------
# hard-window (cut) norms
# ---------------------------------------------------------------------------


def cut_window_norm(rate: float, length: float) -> float:
    """Norm of phi -> int_0^u e^(-rate (u-s)) phi(s) ds on L^2(0, length).

    The top singular value is 1/sqrt(omega^2 + rate^2), where omega is the
    root in (pi/2L, pi/L) of g(omega) = omega cos(omega L) + rate sin(omega L);
    g > 0 at the left end and < 0 at the right end, so bisection brackets it.
    """
    lo = math.pi / (2.0 * length)
    hi = math.pi / length

    def g(w):
        return w * math.cos(w * length) + rate * math.sin(w * length)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    return 1.0 / math.sqrt(omega * omega + rate * rate)
