"""Generalized continuous Cesaro averaging operators and relatives.

The n-th average T_n divides the n-fold antiderivative by x^n.  It factors
as T_n = A_{n-1} ... A_0, where A_j f = x^(-(j+1)) int_0^x t^j f is the B side
of the power-weight pair j: after the unitary substitution phi = x^(1/2) f,
A_j is causal convolution in u = ln x with e^(-(j+1/2) tau), and the Laplace
symbol of T_n's kernel is prod_{j<n} 1/(s+j+1/2).  For norm estimation
one log-grid engine discretizes T_n and the pairs alike as chains of such
single-rate steps, each exponential integrated exactly against the
piecewise-linear interpolant of phi: a real FFT for the periodic ("wrap")
boundary, whose kernel is periodized (the images of the exponential in
every later period are summed in closed form, so no kernel mass is lost to
the window), rescaled cumulative panel sums for the hard window ("cut").
Its adjoint is the transpose with respect to the quadrature weights (the
unweighted transpose converges to the wrong value on log grids).  The wrap
boundary is a circulant, whose norm is its largest multiplier modulus;
estimate_operator_norm reads it there, and runs Golub-Kahan-Lanczos on the
cut boundary and on any other operator, in coordinates scaled by the square
roots of the weights, where the adjoint is the plain transpose and where its
seeded start is drawn, so that every node weighs alike.  Each step reads the
top eigenvalue of the tridiagonal B^T B of the Golub-Kahan bidiagonal B.

On sampled functions apply_cesaro expands the repeated-integration form
(T_n f)(x) = x^{-n}/(n-1)! * integral_0^x (x-t)^(n-1) f(t) dt into n
binomial moments int_0^x t^j f(t) dt, each a cumulative integral.  The
literal nested form, apply_cesaro_nested, is the tests' oracle for it and a
row of the benchmark's scaling table.  The moments share one split
of the grid, that of f: x^j adds no jump or support edge to f, so the break
panels where the running integrals split are f's for every moment.
grid._running_moments yields their running integrals in order, from
blocks of rows, a pass of numpy calls per block rather than per moment,
and each comes out as it would alone.  The moments and the analytic family T_{1,z} behind the resolvent
take their accuracy from the grid's cumulative rule, the ten-node
Lagrange rule on each run between breaks, which is tenth order also where
the integrand changes sign; that matters here, since (x^n f)^(n) has n sign
changes.  Inverses act on analytic closures only: (T_n^{-1} f)(x) =
(x^n f)^(n), by one of two routes chosen by the type of f.  For a PowerExp,
x^n f is again a PowerExp, with the same rate and every power shifted by n,
so the inverse is that function's n-th derivative closure: one Horner plan
and one exp per call.  Any other AnalyticFunction goes through the Leibniz
sum sum_j a_j(n,n) x^j f^(j), which needs its derivative closures up to
order n, each sampled at every point.  The tests check the PowerExp route
against an exact sum and against the operator polynomial
prod_{k=0..n-1}(T_1^{-1} + k) applied factor by factor, and the Leibniz
route against the PowerExp route.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .analytic import AnalyticFunction, PowerExp
from .constants import _check_index, leibniz_coeffs
from .errors import ConvergenceError
from .grid import GridFunction, LogGrid, _require_finite, _running_moments, cumulative_integral

__all__ = [
    "WeightedPairSpec",
    "ResolventPoint",
    "apply_cesaro",
    "apply_cesaro_nested",
    "apply_inverse_cesaro",
    "resolvent_T1",
    "power_weight_pair",
    "DiscreteCesaro",
    "DiscreteWeightedPair",
    "estimate_operator_norm",
    "RESOLVENT_MARGIN",
]

RESOLVENT_MARGIN = 0.05

_OUT_OF_RANGE = "T_{n} f: x^-{n} times the running integrals leaves the float range"


def apply_cesaro(n: int, f: GridFunction) -> GridFunction:
    """Apply T_n through the binomial-moment expansion of the Cauchy kernel.

    The n moments int_0^x t^j f share one split of the grid, that of f:
    its break panels are decided once, from f's samples.  The moments come
    in blocks of rows (see grid._running_moments), so their samples f x^j,
    panel masses and running integrals take one pass of numpy calls per
    block; the rows of each block are then combined with the powers
    x^(-1-j), in moment order.  The samples f x^j and the powers are
    running products, so the result is the same bits as one moment at a
    time.  The chain A_{n-1} ... A_0 of cumulative integrals equals the
    nested oracle to rounding and decides n splits for the one here; on
    the round trips the two agree: T_5 of (x^5 f)^(5), f = x^1.5 e^-x, at
    4096 nodes reads 1.5e-14 relative here and 4.9e-15 nested.  At a node
    x = 0 (a LinearGrid from 0) T_n f takes its limit f(0)/n!.  Where the
    powers or their products with the moments leave the float range (x^-52
    at x = 1e-6), InvalidDataError is raised, and numpy warns of nothing.
    """
    n = _check_index(n)
    x = f.grid.x
    origin = x[0] == 0.0                           # only the first node can be 0
    recip = np.divide(1.0, x, out=np.zeros_like(x), where=x > 0) if origin else 1.0 / x
    power, acc = recip, 0.0
    fact = math.factorial(n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, moment in enumerate(_running_moments(f, n)):
            coeff = math.comb(n - 1, j) * (-1.0) ** j / fact
            acc = acc + coeff * power * moment
            power = power * recip
    if origin:
        acc[0] = f.values[0] / math.factorial(n)
    _require_finite(acc, _OUT_OF_RANGE.format(n=n))
    return GridFunction(f.grid, acc)


def apply_cesaro_nested(n: int, f: GridFunction) -> GridFunction:
    """Oracle for apply_cesaro: n literal cumulative integrations, then /x^n.

    At a node x = 0 (a LinearGrid from 0) T_n f takes its limit f(0)/n!.
    Out of the float range it raises as apply_cesaro does.
    """
    n = _check_index(n)
    g = f
    for _ in range(n):
        g = cumulative_integral(g)
    x = f.grid.x
    origin = int(x[0] == 0.0)                      # only the first node can be 0
    values = g.values.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        values[origin:] *= x[origin:] ** (-float(n))
    if origin:
        values[0] = f.values[0] / math.factorial(n)
    _require_finite(values, _OUT_OF_RANGE.format(n=n))
    return GridFunction(f.grid, values)


def apply_inverse_cesaro(n: int, f: AnalyticFunction) -> Callable:
    """(T_n^{-1} f)(x) = (x^n f)^(n) = sum_j a_j(n,n) x^j f^(j)(x).

    Returns a vectorized callable.  A PowerExp f takes the closed route:
    x^n f is the PowerExp with f's rate and powers p + n, and its n-th
    derivative closure is the inverse, so a call samples one closure where
    the Leibniz sum samples n + 1 closures and n powers of x.  Both routes
    sum terms of the monomial basis and lose digits to their cancellation
    as n grows, the closed one up to a few times more (n = 8, x^9.5 e^-2x:
    1.7e-12 of the peak against 1.0e-12).  Any other AnalyticFunction takes
    the Leibniz sum and needs derivative closures up to order n.
    """
    n = _check_index(n)
    if isinstance(f, PowerExp):
        return PowerExp([(c, p + n) for p, c in f.terms], f.rate).deriv(n)
    if f.order < n:
        raise ValueError(
            f"inverse of order {n} needs {n} derivative closures, function has {f.order}")
    table = leibniz_coeffs(n, n).a
    derivs = [f.deriv(j) for j in range(n + 1)]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        out = table[0] * derivs[0](x)
        for j in range(1, n + 1):
            out = out + table[j] * x**j * derivs[j](x)
        return out

    return evaluate


def _apply_T1z(z: complex, f: GridFunction) -> GridFunction:
    """Member of the analytic family: x^(z-1) * integral_0^x u^(-z) f(u) du.

    Defined for Re z < 1/2; non-integrability of u^(-z) f at 0 surfaces as a
    SingularityError from the cumulative integral.
    """
    z = complex(z)
    if not z.real < 0.5:
        raise ValueError(f"family parameter needs Re z < 1/2, got {z}")
    x = f.grid.x
    weighted = GridFunction(f.grid, f.values * x ** (-z))
    inner = cumulative_integral(weighted)
    return GridFunction(f.grid, x ** (z - 1.0) * inner.values)


@dataclass(frozen=True)
class ResolventPoint:
    """Spectral parameter for (T_1 - z)^{-1}, kept clear of the spectrum circle.

    The spectrum of T_1 is the circle |z - 1| = 1; points within
    RESOLVENT_MARGIN of it are rejected as ill-conditioned, and the
    implementation additionally restricts to the exterior |z - 1| > 1, where
    Re(1/z) < 1/2 makes the family member T_{1,1/z} well defined.  z must
    be finite.
    """

    z: complex

    def __post_init__(self):
        if not cmath.isfinite(complex(self.z)):
            raise ValueError(f"resolvent parameter must be finite, got {self.z}")
        dist = abs(complex(self.z) - 1.0) - 1.0
        if dist <= RESOLVENT_MARGIN:
            raise ValueError(
                f"resolvent parameter {self.z} is within {RESOLVENT_MARGIN} of the "
                "spectrum circle |z-1| = 1 (or inside it)")


def resolvent_T1(z, f: GridFunction) -> GridFunction:
    """g = (T_1 - z)^{-1} f = -f/z - T_{1,1/z} f / z^2.

    Accepts a complex number or a ResolventPoint; (T_1 - z) g reproduces f
    up to quadrature error.
    """
    point = z if isinstance(z, ResolventPoint) else ResolventPoint(complex(z))
    zz = complex(point.z)
    family = _apply_T1z(1.0 / zz, f)
    return GridFunction(f.grid, -f.values / zz - family.values / zz**2)


@dataclass(frozen=True)
class WeightedPairSpec:
    """The power-weight dual pair of index j: phi = x^j, psi = x^(-j-1), w = 1.

    (A f)(x) = x^j int_x^inf t^(-j-1) f(t) dt   and
    (B f)(x) = x^(-j-1) int_0^x t^j f(t) dt
    are mutual adjoints in L^2(0, inf) with shared norm 2K, K = 1/(2j+1):
    the (phi, psi, w) weighted pairs of Chisholm, Everitt and Littlejohn
    have K = sup_x (int_0^x phi^2 w)^(1/2) (int_x^inf psi^2 w)^(1/2), which
    for this pair is the same at every x.
    """

    power: int

    def __post_init__(self):
        if not isinstance(self.power, Integral):
            raise ValueError(f"power index must be an integer, got {self.power!r}")
        if self.power < 0:
            raise ValueError("power index must be nonnegative")

    @property
    def K(self) -> float:
        """The pair's constant 1/(2j+1), half its norm."""
        return 1.0 / (2 * self.power + 1)


def power_weight_pair(j: int) -> WeightedPairSpec:
    """The pair phi = x^j, psi = x^(-j-1), w = 1 on (0, inf); K = 1/(2j+1).

    j = 0 reproduces the Cesaro average as the B side with norm 2.
    """
    return WeightedPairSpec(power=j)


# ---------------------------------------------------------------------------
# linear discretizations for norm estimation
# ---------------------------------------------------------------------------


def _cumtrap_u(g: np.ndarray, left: float, right: float) -> np.ndarray:
    out = np.zeros(len(g), dtype=g.dtype)
    out[1:] = np.cumsum(left * g[:-1] + right * g[1:])
    return out


def _cumtrap_u_transpose(v: np.ndarray, left: float, right: float) -> np.ndarray:
    suffix = np.zeros(len(v), dtype=v.dtype)
    suffix[:-1] = np.cumsum(v[::-1])[::-1][1:]
    out = (left + right) * suffix + right * v
    out[0] = left * suffix[0]
    return out


# Taylor coefficients 1/(k+2)! of (e^rho - 1 - rho)/rho^2: below rho = 1 the
# panel weights sum them, where their closed forms lose digits like eps/rho
_PANEL_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(18))


def _exact_panel(rate: float, h: float) -> tuple:
    """Panel weights of e^(-rate tau) against the linear interpolant, rescaled.

    int_0^h e^(-rate (h - s)) phi(s) ds for linear phi is
    e^(-rho) left phi(0) + right phi(h), rho = rate h; with the rescaled
    samples e^(rate s) phi the factor e^(-rho) is already applied.  Both
    weights tend to the trapezoid h/2 as rho -> 0: left = (e^rho - 1 - rho)
    / (rho rate) and right = (1 - (1 - e^(-rho))/rho) / rate are h times
    the series sum_k (+-rho)^k / (k+2)!.
    """
    rho = rate * h
    if rho < 1.0:
        left = right = 0.0
        for c in reversed(_PANEL_SERIES):
            left = c + rho * left
            right = c - rho * right
        return h * left, h * right
    try:
        return (math.expm1(rho) - rho) / (rho * rate), (1.0 + math.expm1(-rho) / rho) / rate
    except OverflowError:
        raise ValueError(f"r*h = {rho:.6g} (rate {rate:g} times the log-grid step {h:.6g}): "
                         "e^(r*h) leaves the float range; use more points or a narrower "
                         "window") from None


class _LogConvolution:
    """Chain of causal single-rate convolutions in u = ln x.

    With phi = x^(1/2) v, the step of rate r is (K_r phi)(u) =
    int_{u' <= u} e^(-r (u - u')) phi(u') du', and the L^2(dx) inner product
    becomes sum t_i phi_i psi_i with weights t in u.  ``rates`` r, r+1, ...
    give one step each, applied in that order.  Each step integrates its
    exponential exactly against the piecewise-linear interpolant of phi
    (`_exact_panel`), so the only bias is that of the interpolant and, on
    the hard window, of the window, the same for every rate.
    ``boundary="wrap"`` closes the window periodically (t = h): each step
    is circulant, with the hat integrals of the periodized kernel
    sum_{m >= 0} e^(-r (tau + m L)), L = N h, as its kernel, which is
    e^(-r tau) on one period divided by 1 - e^(-r L); one real FFT applies
    the product of the multipliers.  A step's zero-frequency multiplier is
    then 1/r exactly, the kernel's integral over (0, inf).
    ``boundary="cut"`` keeps the hard window (t trapezoid): each step is a
    rescaled cumulative panel sum e^(-r s) cumsum(e^(r s) phi), s centred on
    the window so both factors stay in floating-point range; as the rates
    step by one, the rescaling between two steps folds into the single
    factor e^s.  The chain acts on w = sqrt(t) phi = sqrt(quad_weights) v,
    where adjoint_apply is the plain transpose, the transposed steps in
    reverse order: the circulant needs no scaling there, and the hard
    window's scalings carry sqrt(t).  apply and adjoint_apply conjugate by
    sqrt(quad_weights); estimate_operator_norm runs GKL on w itself (see
    `_unit_frame`) on the hard window, and on the wrap boundary reads the
    circulant's norm, its largest multiplier modulus.  ``reverse`` mirrors
    the grid, making the kernel anti-causal; t is mirror-symmetric, so the
    mirror is exact.
    """

    def __init__(self, grid: LogGrid, rates, boundary: str, reverse: bool = False):
        if not isinstance(grid, LogGrid):
            raise ValueError("norm estimation is set up on log grids")
        if boundary not in ("wrap", "cut"):
            raise ValueError(f"boundary must be 'wrap' or 'cut', got {boundary!r}")
        self.grid = grid
        self.boundary = boundary
        N, h = len(grid), grid.h
        self._panels = [_exact_panel(r, h) for r in rates]
        self._flip = slice(None, None, -1 if reverse else 1)
        if boundary == "wrap":
            # one row of hats per rate; the images e^(-r (tau + m N h)),
            # m >= 0, sum to the factor 1/(1 - e^(-r N h)) of each row
            tau = h * np.arange(N)
            left, right = np.array(self._panels).T
            hats = (left + right)[:, None] * np.exp(-np.array(rates)[:, None] * tau)
            hats[:, 0] = right + left * np.array([math.exp(-r * N * h) for r in rates])
            hats /= np.array([[-math.expm1(-r * N * h)] for r in rates])
            self._multiplier = np.prod(np.fft.rfft(hats, axis=-1), axis=0)
            self.quad_weights = h * grid.x
            self._forward = self._backward = (1.0, 1.0)
        else:
            t = np.full(N, h)
            t[0] = t[-1] = 0.5 * h
            self.quad_weights = t * grid.x
            s = h * (np.arange(N) - 0.5 * (N - 1))
            self._fold = np.exp(s)
            root = np.sqrt(t)
            self._forward = (np.exp(rates[0] * s) / root, root * np.exp(-rates[-1] * s))
            self._backward = self._forward[::-1]
        self._root_weights = np.sqrt(self.quad_weights)

    def _chain(self, phi: np.ndarray, adjoint: bool) -> np.ndarray:
        if self.boundary == "wrap":
            mult = np.conj(self._multiplier) if adjoint else self._multiplier
            return np.fft.irfft(np.fft.rfft(phi) * mult, n=len(phi))
        step, panels = ((_cumtrap_u_transpose, self._panels[::-1]) if adjoint
                        else (_cumtrap_u, self._panels))
        phi = step(phi, *panels[0])
        for panel in panels[1:]:
            phi = step(self._fold * phi, *panel)
        return phi

    def _apply(self, w: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """apply or adjoint_apply on w = sqrt(quad_weights) v, where the
        adjoint is the plain transpose."""
        if np.iscomplexobj(w):
            return self._apply(w.real, adjoint) + 1j * self._apply(w.imag, adjoint)
        pre, post = self._backward if adjoint else self._forward
        return (post * self._chain(pre * w[self._flip], adjoint))[self._flip]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self._root_weights * v) / self._root_weights

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(self._root_weights * v, adjoint=True) / self._root_weights


class DiscreteCesaro(_LogConvolution):
    """Linear discretization of T_n on a log grid for norm estimation.

    After the unitary substitution phi = x^(1/2) f, T_n is causal
    convolution in u = ln x with e^(-tau/2) (1 - e^(-tau))^(n-1) / (n-1)!,
    whose Laplace symbol Gamma(s+1/2)/Gamma(s+n+1/2) = prod_{j<n} 1/(s+j+1/2)
    is that of the chain A_{n-1} ... A_0 (A_j the B side of
    power_weight_pair(j)).  The shared engine applies that chain, rates
    1/2, ..., n - 1/2; on the hard window it is exact too, since cutting
    between causal steps changes nothing.  The default boundary wraps
    periodically in u (the standard log-grid discretization of a
    scale-invariant operator): a hard cut at the window edges depresses the
    discrete norm by 2-3% on the default window, while the periodized wrap
    kernel keeps all of the kernel's mass, so its largest multiplier, at
    zero frequency, is b_n to rounding.  ``boundary="cut"`` keeps the hard
    window for comparison.
    """

    def __init__(self, n: int, grid: LogGrid, boundary: str = "wrap"):
        n = _check_index(n)
        super().__init__(grid, [j + 0.5 for j in range(n)], boundary)
        self.n = n


class DiscreteWeightedPair(_LogConvolution):
    """Linear discretization of one side of a built-in power-weight pair.

    For phi = x^j, psi = x^(-j-1), w = 1 the pair becomes, after the
    unitary substitution, convolution with e^(-(j+1/2) tau) on the shared
    log-grid engine: causal for side B, its mirror image for side A.
    ``power`` is j, the spec's by default, and any other is refused.  Boundaries are as for
    DiscreteCesaro; with w = 1 the quad_weights are those of L^2(dx), and
    estimate_operator_norm approximates the norm 2K = 2/(2j+1).
    """

    def __init__(self, spec: WeightedPairSpec, grid: LogGrid, side: str = "A",
                 power: Optional[int] = None, boundary: str = "wrap"):
        self.side = side.upper()
        if self.side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        power = spec.power if power is None else power
        if spec.power != power:
            raise ValueError(f"power {power} does not match the pair's power {spec.power}")
        super().__init__(grid, [power + 0.5], boundary, reverse=self.side == "A")
        self.spec = spec


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real or complex vector, rescaled where the squares
    would underflow."""
    norm = math.sqrt(np.vdot(v, v).real)
    if norm >= 1e-100:
        return norm
    # |v| first: a complex v divided by a subnormal peak overflows
    size = np.abs(v)
    peak = float(np.max(size))
    if peak == 0.0:
        return 0.0
    size /= peak
    return peak * math.sqrt(size @ size)


def _unit_frame(op) -> tuple:
    """(apply, adjoint_apply) in coordinates whose inner product is the plain
    dot product, where GKL runs and where its start vector is drawn.

    w = sqrt(quad_weights) v maps op's quadrature inner product onto it.
    The engine's hard window applies in w directly, as its scalings carry
    the weights; any other op is conjugated by sqrt(quad_weights).
    """
    if not isinstance(op, _LogConvolution):
        root = np.sqrt(op.quad_weights)
        return lambda w: root * op.apply(w / root), lambda w: root * op.adjoint_apply(w / root)
    return op._apply, lambda w: op._apply(w, adjoint=True)


# Golub-Kahan steps per cycle before a restart: each step solves the
# eigenproblem of the k x k tridiagonal B^T B afresh, as a dense matrix at
# O(k^3), so k is bounded; 64 leaves room above the 16-21 steps the cut pair
# j = 2 takes at tol 1e-8 on 1024 nodes, and the 38-39 it takes at 1e-12.
_RESTART = 64


def _golub_kahan(apply, adjoint_apply, v: np.ndarray):
    """Yield (v_k, alpha_k, beta_(k-1)) of apply V = U B from the unit vector v.

    B is upper bidiagonal, alpha on the diagonal and beta above it, and V, U
    are orthonormal (adjoint_apply is apply's transpose).  Each item costs
    one apply, and each after the first one adjoint_apply too.  The
    recurrence is deterministic, so a second run from the same v yields the
    same vectors.  It ends where the Krylov space is invariant (alpha or
    beta is zero).
    """
    u, beta = np.zeros_like(v), 0.0
    while True:
        image = apply(v) - beta * u
        alpha = _norm(image)
        yield v, alpha, beta
        if alpha == 0.0:
            return
        u = image / alpha
        w = adjoint_apply(u) - alpha * v
        beta = _norm(w)
        if beta == 0.0:
            return
        v = w / beta


def estimate_operator_norm(op, grid: LogGrid, max_iter: int = 10000,
                           tol: float = 1e-6, seed: int = 1729) -> float:
    """Largest singular value of a discretized operator.

    The engine's wrap boundary is a circulant in the weighted frame, so its
    norm is its largest multiplier modulus, read in no steps.  Elsewhere
    Golub-Kahan-Lanczos (GKL) bidiagonalizes op in its quadrature inner
    product from a seeded positive start vector; the estimate is the top
    singular value of the k x k bidiagonal B, the square root of the top
    eigenvalue of the tridiagonal B^T B, which rises toward ||op|| with k.
    Convergence means the estimate moved by at most tol (relative) in one
    step.  Every _RESTART steps the bidiagonalization restarts from the top
    Ritz vector, which is rebuilt by replaying the cycle, so memory stays a
    few vectors.  max_iter bounds the steps, each one apply and one
    adjoint_apply (the replays come on top); running out raises
    ConvergenceError with the last estimate attached.

    GKL runs in the unit-weight coordinates w = sqrt(quad_weights) v of
    `_unit_frame`, where a norm is a plain dot product: the engine's hard
    window with the weights folded into its scalings, and any other op with
    quad_weights, apply and adjoint_apply conjugated by the weights' square
    roots.  Both frames build the same Krylov space from the same start
    vector, so the estimate and the step count do not depend on the frame
    beyond rounding.  The seeded start rng.random(N) + 1/2 is drawn as w
    there, every node alike.  Drawn as v it would carry the weight sqrt(t x),
    x_max 1e6 times more than x_min on the default window: GKL then took
    up to twice the steps on the cut pairs, and where the top singular
    vector sits at small x it stalled, and stopped up to 1.5e-3 low as if
    converged.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if isinstance(op, _LogConvolution) and op.boundary == "wrap":
        return float(np.max(np.abs(op._multiplier)))
    apply, adjoint_apply = _unit_frame(op)
    start = np.random.default_rng(seed).random(len(grid)) + 0.5
    steps, estimate = 0, math.nan
    while True:
        start = start / _norm(start)
        # B^T B in place, lower triangle: alpha_k^2 + beta_(k-1)^2 on the
        # diagonal, alpha_(k-1) beta_(k-1) beside it, all times scale^2
        gram, previous = np.zeros((_RESTART, _RESTART)), math.inf
        for k, (_, alpha, beta) in enumerate(_golub_kahan(apply, adjoint_apply, start)):
            steps += 1
            if not math.isfinite(alpha + beta):
                raise ConvergenceError(
                    f"no convergence: the operator gave non-finite values at step {steps}",
                    last_estimate=estimate)
            if not k:
                # a power of two near 1/alpha keeps the squares in range and
                # scales exactly; 2^1020 at most, for a subnormal alpha
                scale = math.ldexp(1.0, -max(math.frexp(alpha)[1], -1020))
            alpha, beta = alpha * scale, beta * scale
            gram[k, k] = alpha * alpha + beta * beta
            if k:
                gram[k, k - 1] = last_alpha * beta
            last_alpha = alpha
            estimate = math.sqrt(np.linalg.eigvalsh(gram[:k + 1, :k + 1])[-1]) / scale
            if abs(estimate - previous) <= tol * estimate:
                return estimate
            if steps >= max_iter:
                raise ConvergenceError(
                    f"no convergence to tol {tol} within {max_iter} iterations",
                    last_estimate=estimate)
            previous = estimate
            if k + 1 == _RESTART:
                break
        else:
            return estimate  # invariant Krylov space: exact on it
        coeffs = np.linalg.eigh(gram)[1][:, -1]
        ritz = np.zeros_like(start)
        for c, (v, _, _) in zip(coeffs, _golub_kahan(apply, adjoint_apply, start)):
            ritz += c * v
        start = ritz
