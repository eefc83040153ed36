"""Generalized continuous Cesaro averaging operators and relatives.

The n-th average T_n divides the n-fold antiderivative by x^n.  It factors
as T_n = A_{n-1} ... A_0, where A_j f = x^(-(j+1)) int_0^x t^j f is the B side
of the power-weight pair j: after the unitary substitution phi = x^(1/2) f,
A_j is causal convolution in u = ln x with e^(-(j+1/2) tau), and the Laplace
symbol of T_n's kernel is prod_{j<n} 1/(s+j+1/2).  For norm estimation
(Golub-Kahan-Lanczos) one log-grid engine discretizes T_n and the pairs
alike as chains of such single-rate steps, each exponential integrated
exactly against the piecewise-linear interpolant of phi: a real FFT for the
periodic ("wrap") boundary, rescaled cumulative panel sums for the hard
window ("cut").  Its adjoint is the transpose with respect to the quadrature
weights (the unweighted transpose converges to the wrong value on log grids).

On sampled functions apply_cesaro expands the repeated-integration form
(T_n f)(x) = x^{-n}/(n-1)! * integral_0^x (x-t)^(n-1) f(t) dt into n
binomial moments int_0^x t^j f(t) dt, one cumulative integral each; the
literal nested form is kept as an oracle.  The moments, the analytic family
T_{1,z} behind the resolvent and the A side of the weighted pairs all take
their accuracy from the grid's cumulative panel rule, which is fourth order
also where the integrand changes sign; that matters here, since
(x^n f)^(n) has n sign changes.  Inverses act on analytic closures only:
(T_n^{-1} f)(x) = (x^n f)^(n), expanded by the exact Leibniz coefficients,
and equivalently as the operator polynomial prod_{k=0..n-1}(T_1^{-1} + k)
applied factor by factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import AnalyticFunction
from .constants import leibniz_coeffs
from .errors import ConvergenceError
from .grid import GridFunction, LogGrid, _panel_masses, cumulative_integral

__all__ = [
    "WeightedPairSpec",
    "ResolventPoint",
    "apply_cesaro",
    "apply_cesaro_nested",
    "apply_inverse_cesaro",
    "compose_p_n_of_inverse_T1",
    "t1_inverse",
    "apply_T1z",
    "resolvent_T1",
    "power_weight_pair",
    "weighted_pair_apply",
    "DiscreteCesaro",
    "DiscreteWeightedPair",
    "estimate_operator_norm",
    "RESOLVENT_MARGIN",
]

RESOLVENT_MARGIN = 0.05


def _check_index(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"operator index must be a positive integer, got {n!r}")


def apply_cesaro(n: int, f: GridFunction) -> GridFunction:
    """Apply T_n through the binomial-moment expansion of the Cauchy kernel.

    The chain A_{n-1} ... A_0 would equal the nested oracle to rounding,
    which loses digits on the round trips: T_5 of (x^5 f)^(5) at 4096 nodes
    reads 3.5e-8 relative against 4e-13 here.
    """
    _check_index(n)
    x = f.grid.x
    acc = np.zeros(len(x), dtype=complex if np.iscomplexobj(f.values) else float)
    fact = math.factorial(n - 1)
    for j in range(n):
        moment = cumulative_integral(GridFunction(f.grid, f.values * x**j))
        coeff = math.comb(n - 1, j) * (-1.0) ** j / fact
        acc = acc + coeff * x ** (-1.0 - j) * moment.values
    return GridFunction(f.grid, acc)


def apply_cesaro_nested(n: int, f: GridFunction) -> GridFunction:
    """Oracle for apply_cesaro: n literal cumulative integrations, then /x^n."""
    _check_index(n)
    g = f
    for _ in range(n):
        g = cumulative_integral(g)
    return GridFunction(f.grid, g.values * f.grid.x ** (-float(n)))


def apply_inverse_cesaro(n: int, f: AnalyticFunction) -> Callable:
    """(T_n^{-1} f)(x) = (x^n f)^(n) = sum_j a_j(n,n) x^j f^(j)(x).

    Needs derivative closures up to order n; returns a vectorized callable.
    """
    _check_index(n)
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


class _ShiftedT1Inverse(AnalyticFunction):
    """(T_1^{-1} + k) g = (x g)' + k g, with derivative closures inherited.

    The j-th derivative is x g^(j+1) + (j+1+k) g^(j), so one closure order
    is consumed per factor.
    """

    def __init__(self, g: AnalyticFunction, k: int):
        self.g = g
        self.k = k
        self.order = g.order - 1
        self.vanishing_order = max(g.vanishing_order - 1, 0.0)
        self.decay = g.decay

    def deriv(self, j: int) -> Callable:
        if j > self.order:
            raise ValueError(f"derivative order {j} exceeds available closures")
        lower = self.g.deriv(j)
        upper = self.g.deriv(j + 1)
        shift = j + 1 + self.k
        return lambda x: np.asarray(x, dtype=float) * upper(x) + shift * lower(x)


def t1_inverse(g: AnalyticFunction) -> AnalyticFunction:
    """T_1^{-1} g = (x g)' as an analytic function (one closure consumed)."""
    return _ShiftedT1Inverse(g, 0)


def compose_p_n_of_inverse_T1(n: int, f: AnalyticFunction) -> Callable:
    """Apply prod_{k=0..n-1} (T_1^{-1} + k) factor by factor.

    Must agree pointwise with apply_inverse_cesaro(n, f); the two routes are
    kept fully independent so each checks the other.
    """
    _check_index(n)
    if f.order < n:
        raise ValueError(
            f"operator polynomial of degree {n} needs {n} derivative closures")
    g: AnalyticFunction = f
    for k in range(n - 1, -1, -1):
        g = _ShiftedT1Inverse(g, k)
    return g.deriv(0)


def apply_T1z(z: complex, f: GridFunction) -> GridFunction:
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
    Re(1/z) < 1/2 makes the family member T_{1,1/z} well defined.
    """

    z: complex

    def __post_init__(self):
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
    family = apply_T1z(1.0 / zz, f)
    return GridFunction(f.grid, -f.values / zz - family.values / zz**2)


@dataclass(frozen=True)
class WeightedPairSpec:
    """A weighted dual pair (phi, psi, w) on an interval with its K function.

    (A f)(x) = phi(x) * int_x^b psi f w dt   and
    (B f)(x) = psi(x) * int_a^x phi f w dt
    are mutual adjoints in L^2(w dx) with shared norm 2K,
    K = sup_x K(x),  K(x) = (int_a^x phi^2 w)^(1/2) (int_x^b psi^2 w)^(1/2).

    Built-in instances satisfy the required local integrability conditions
    by construction; nothing is re-proved at runtime.
    """

    phi: Callable
    psi: Callable
    w: Callable
    interval: tuple
    K_of_x: Callable
    K: float


def power_weight_pair(j: int) -> WeightedPairSpec:
    """The pair phi = x^j, psi = x^(-j-1), w = 1 on (0, inf); K = 1/(2j+1).

    j = 0 reproduces the Cesaro average as the B side with norm 2.
    """
    if j < 0:
        raise ValueError("power index must be nonnegative")
    kval = 1.0 / (2 * j + 1)
    return WeightedPairSpec(
        phi=lambda x, _j=j: x**_j if _j else np.ones_like(x),
        psi=lambda x, _j=j: x ** (-_j - 1.0),
        w=lambda x: np.ones_like(x),
        interval=(0.0, math.inf),
        K_of_x=lambda x, _k=kval: np.full_like(np.asarray(x, dtype=float), _k),
        K=kval,
    )


def _suffix_panels(f: GridFunction) -> np.ndarray:
    """integral_{x_i}^{x_max} of f dx, by the same panel rule as cumulative."""
    panels = _panel_masses(f.grid, f.values)
    out = np.zeros(len(f.grid), dtype=panels.dtype)
    out[:-1] = np.cumsum(panels[::-1])[::-1]
    return out


def weighted_pair_apply(spec: WeightedPairSpec, side: str, f: GridFunction) -> GridFunction:
    """Apply the A (upper-tail) or B (lower-tail) operator of a weighted pair.

    The window truncates the tail at x_max; the (0, x_min) stub of the B
    integral uses the power-law model and reports divergence.
    """
    x = f.grid.x
    if side.upper() == "A":
        integrand = GridFunction(f.grid, spec.psi(x) * f.values * spec.w(x))
        tail = _suffix_panels(integrand)
        return GridFunction(f.grid, spec.phi(x) * tail)
    if side.upper() == "B":
        integrand = GridFunction(f.grid, spec.phi(x) * f.values * spec.w(x))
        head = cumulative_integral(integrand)
        return GridFunction(f.grid, spec.psi(x) * head.values)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


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


def _exact_panel(rate: float, h: float) -> tuple:
    """Panel weights of e^(-rate tau) against the linear interpolant, rescaled.

    int_0^h e^(-rate (h - s)) phi(s) ds for linear phi is
    e^(-rho) left phi(0) + right phi(h), rho = rate h; with the rescaled
    samples e^(rate s) phi the factor e^(-rho) is already applied.  Both
    weights tend to the trapezoid h/2 as rho -> 0.
    """
    rho = rate * h
    return (math.expm1(rho) - rho) / (rho * rate), (1.0 + math.expm1(-rho) / rho) / rate


class _LogConvolution:
    """Chain of causal single-rate convolutions in u = ln x.

    With phi = x^(1/2) v, the step of rate r is (K_r phi)(u) =
    int_{u' <= u} e^(-r (u - u')) phi(u') du', and the L^2(dx) inner product
    becomes sum t_i phi_i psi_i with weights t in u.  ``rates`` r, r+1, ...
    give one step each, applied in that order.  Each step integrates its
    exponential exactly against the piecewise-linear interpolant of phi
    (`_exact_panel`), so the only bias is that of the interpolant and of the
    window, the same for every rate.  ``boundary="wrap"`` closes the window
    periodically (t = h): each step is circulant, with the hat integrals of
    e^(-r tau) on the circle as its kernel, and one real FFT applies the
    product of the multipliers.  ``boundary="cut"`` keeps the hard window
    (t trapezoid): each step is a rescaled cumulative panel sum
    e^(-r s) cumsum(e^(r s) phi), s centred on the window so both factors
    stay in floating-point range; as the rates step by one, the rescaling
    between two steps folds into the single factor e^s.  adjoint_apply is
    the transpose in the quad_weights inner product, the transposed steps in
    reverse order.  ``reverse`` mirrors the grid, making the kernel
    anti-causal; t is mirror-symmetric, so the mirror is exact.
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
        # (pre, post) scalings around the chain, in the causal frame
        self._flip = slice(None, None, -1 if reverse else 1)
        root = np.sqrt(grid.x)[self._flip]
        if boundary == "wrap":
            tau = h * np.arange(N)
            self._multiplier = 1.0
            for r, (left, right) in zip(rates, self._panels):
                hats = (left + right) * np.exp(-r * tau)
                hats[0] = right + left * math.exp(-r * N * h)
                self._multiplier = self._multiplier * np.fft.rfft(hats)
            self.quad_weights = h * grid.x
            self._forward = self._backward = (root, 1.0 / root)
            return
        t = np.full(N, h)
        t[0] = t[-1] = 0.5 * h
        self.quad_weights = t * grid.x
        s = h * (np.arange(N) - 0.5 * (N - 1))
        self._fold = np.exp(s)
        first, last = np.exp(rates[0] * s), np.exp(-rates[-1] * s)
        self._forward = (root * first, last / root)
        self._backward = (t * root * last, first / (t * root))

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

    def _apply(self, v: np.ndarray, adjoint: bool) -> np.ndarray:
        if np.iscomplexobj(v):
            return self._apply(v.real, adjoint) + 1j * self._apply(v.imag, adjoint)
        pre, post = self._backward if adjoint else self._forward
        return (post * self._chain(pre * v[self._flip], adjoint))[self._flip]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, adjoint=False)

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        return self._apply(v, adjoint=True)


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
    discrete norm by 2-3% on the default window, far more than the wrap's
    bias, the kernel mass beyond the window (about 1e-6 relative).
    ``boundary="cut"`` keeps the hard window for comparison.
    """

    def __init__(self, n: int, grid: LogGrid, boundary: str = "wrap"):
        _check_index(n)
        super().__init__(grid, [j + 0.5 for j in range(n)], boundary)
        self.n = n


class DiscreteWeightedPair(_LogConvolution):
    """Linear discretization of one side of a built-in power-weight pair.

    For phi = x^j, psi = x^(-j-1), w = 1 the pair becomes, after the
    unitary substitution, convolution with e^(-(j+1/2) tau) on the shared
    log-grid engine: causal for side B, its mirror image for side A.
    ``power`` is j; the spec must be that pair (its phi, psi and w are
    checked on the grid, and K = 1/(2j+1)), since only the power pair is a
    convolution.  Boundaries are as for DiscreteCesaro; with w = 1 the
    quad_weights are those of L^2(dx), and estimate_operator_norm
    approximates the norm 2K = 2/(2j+1).
    """

    def __init__(self, spec: WeightedPairSpec, grid: LogGrid, side: str = "A",
                 power: int = 0, boundary: str = "wrap"):
        self.side = side.upper()
        if self.side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        x = np.asarray(grid.x, dtype=float)
        expected = {"phi": x**power, "psi": x ** (-power - 1.0), "w": np.ones_like(x)}
        for name, want in expected.items():
            got = np.asarray(getattr(spec, name)(x), dtype=float)
            if not np.allclose(got, want, rtol=1e-10, atol=0.0):
                raise ValueError(
                    f"the pair's {name} is not that of power_weight_pair({power})")
        if spec.K != 1.0 / (2 * power + 1):
            raise ValueError(
                f"power {power} does not match the pair's K = {spec.K} (need 1/(2j+1))")
        super().__init__(grid, [power + 0.5], boundary, reverse=self.side == "A")
        self.spec = spec


def _q_norm(q: np.ndarray, v: np.ndarray) -> float:
    """sqrt(sum q |v|^2), rescaled where the squares would underflow."""
    norm = math.sqrt(float(np.sum(q * np.abs(v) ** 2)))
    if norm >= 1e-100:
        return norm
    peak = float(np.max(np.abs(v)))
    if peak == 0.0:
        return 0.0
    return peak * math.sqrt(float(np.sum(q * np.abs(v / peak) ** 2)))


# Golub-Kahan steps per cycle before a restart: the per-step SVD of the
# k x k bidiagonal costs O(k^3), so k is bounded; 64 leaves room above the
# 39 steps the cut pair j = 2 takes at tol 1e-8 on 1024 nodes.
_RESTART = 64


def _golub_kahan(op, q: np.ndarray, v: np.ndarray):
    """Yield (v_k, alpha_k, beta_(k-1)) of op V = U B from the q-unit vector v.

    B is upper bidiagonal, alpha on the diagonal and beta above it, and V, U
    are q-orthonormal.  Each item costs one apply, and each after the first
    one adjoint_apply too.  The recurrence is deterministic, so a second run
    from the same v yields the same vectors.  It ends where the Krylov space
    is invariant (alpha or beta is zero).
    """
    u, beta = np.zeros_like(v), 0.0
    while True:
        image = op.apply(v) - beta * u
        alpha = _q_norm(q, image)
        yield v, alpha, beta
        if alpha == 0.0:
            return
        u = image / alpha
        w = op.adjoint_apply(u) - alpha * v
        beta = _q_norm(q, w)
        if beta == 0.0:
            return
        v = w / beta


def _bidiagonal(alphas: list, betas: list) -> np.ndarray:
    return np.diag(alphas) + np.diag(betas[1:], 1)


def estimate_operator_norm(op, grid: LogGrid, max_iter: int = 10000,
                           tol: float = 1e-6, seed: int = 1729) -> float:
    """Largest singular value of a discretized operator by Golub-Kahan-Lanczos.

    Bidiagonalizes op in its quadrature inner product from a seeded positive
    start vector; the estimate is the top singular value of the k x k
    bidiagonal, which rises toward ||op|| with k.  Convergence means the
    estimate moved by at most tol (relative) in one step.  Every _RESTART
    steps the bidiagonalization restarts from the top Ritz vector, which is
    rebuilt by replaying the cycle, so memory stays a few grid vectors.
    max_iter bounds the steps, each one apply and one adjoint_apply (the
    replays come on top); running out raises ConvergenceError with the last
    estimate attached.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    q = op.quad_weights
    rng = np.random.default_rng(seed)
    start = rng.random(len(grid)) + 0.5
    steps, estimate = 0, math.nan
    while True:
        start = start / _q_norm(q, start)
        alphas, betas, previous = [], [], math.inf
        for _, alpha, beta in _golub_kahan(op, q, start):
            steps += 1
            if not math.isfinite(alpha + beta):
                raise ConvergenceError(
                    f"no convergence: the operator gave non-finite values at step {steps}",
                    last_estimate=estimate)
            alphas.append(alpha)
            betas.append(beta)
            estimate = float(np.linalg.svd(_bidiagonal(alphas, betas), compute_uv=False)[0])
            if abs(estimate - previous) <= tol * estimate:
                return estimate
            if steps >= max_iter:
                raise ConvergenceError(
                    f"no convergence to tol {tol} within {max_iter} iterations",
                    last_estimate=estimate)
            previous = estimate
            if len(alphas) == _RESTART:
                break
        else:
            return estimate  # invariant Krylov space: exact on it
        coeffs = np.linalg.svd(_bidiagonal(alphas, betas))[2][0]
        ritz = np.zeros_like(start)
        for c, (v, _, _) in zip(coeffs, _golub_kahan(op, q, start)):
            ritz += c * v
        start = ritz
