"""Mellin transform on log grids and exact spectral curves.

In u = ln x the Mellin transform with the unitary normalization is a plain
Fourier transform of g(u) = f(e^u) e^(u/2), so a power-of-two log grid maps
it onto one FFT; the discrete map is exactly unitary (Parseval holds to
rounding).

The transform diagonalizes the scaling generator S_1 = i (T_1^{-1} - I/2):
transformed, (x f)' acts as multiplication by (-i lambda + 1/2).  The
spectrum of the n-th averaging operator is the closed curve
r_n(1 + e^(i theta)), the image of T_1's spectrum, the circle
|z - 1| = 1, under the rational function
r_n(z) = z^n / prod_{k=1..n-1} (1+kz) = 1/p_n(1/z), since
T_n^{-1} = p_n(T_1^{-1}) with p_n(z) = prod_{k=0..n-1} (z+k).
`_curve_point` is the package's one evaluation of r_n.  The curve's
maximum modulus is attained at theta = 0 and equals the operator norm
r_n(2) = 2^n/(2n-1)!!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFunction
from .constants import DEFAULT_WINDOW, _check_index
from .errors import InvalidDataError, TrivialFunctionError, _warn
from .grid import GridFunction, LogGrid, norm_sq

__all__ = [
    "MellinData",
    "SpectrumCurve",
    "mellin_forward",
    "verify_diagonalization",
    "spectrum_curve",
    "curve_max_modulus",
    "curve_to_csv",
    "curve_to_svg",
]


@dataclass(frozen=True)
class MellinData:
    """Spectral samples f*(lambda) on a uniform lambda grid."""

    lam: np.ndarray
    values: np.ndarray

    def norm(self) -> float:
        dlam = self.lam[1] - self.lam[0]
        return math.sqrt(float(dlam * np.sum(np.abs(self.values) ** 2)))


def _require_power_of_two(count: int) -> None:
    if count & (count - 1) or count < 2:
        raise InvalidDataError(f"spectral transforms need a power-of-two grid, got {count}")


def _log_samples(f: GridFunction) -> np.ndarray:
    """g(u) = f(e^u) e^(u/2) on a power-of-two LogGrid, the samples the
    transform takes; it warns where they do not decay at the window ends."""
    if not isinstance(f.grid, LogGrid):
        raise InvalidDataError("the transform lives on log grids")
    _require_power_of_two(len(f.grid))
    g = f.values * np.exp(0.5 * f.grid.u)
    peak = np.max(np.abs(g))
    if peak > 0 and max(abs(g[0]), abs(g[-1])) > 1e-8 * peak:
        _warn("samples do not decay at the window ends; the windowed transform will be inaccurate")
    return g


def mellin_forward(f: GridFunction) -> MellinData:
    """f*(lambda) = (2 pi)^(-1/2) integral f(x) x^(-1/2 + i lambda) dx.

    Computed as an FFT of f(e^u) e^(u/2); the finite window realizes the
    transform's strong limit, so samples must be negligible at both ends.
    """
    g = _log_samples(f)
    N, h, u0 = len(f.grid), f.grid.h, f.grid.u[0]
    k = np.arange(N)
    lam = 2.0 * math.pi * (k - N // 2) / (N * h)
    alt = np.where(k % 2 == 0, 1.0, -1.0)  # e^{-i pi j}: shifts lambda by -N/2 bins
    spectrum = N * np.fft.ifft(g * alt)
    values = (2.0 * math.pi) ** -0.5 * h * np.exp(1j * lam * u0) * spectrum
    return MellinData(lam=lam, values=values)


def verify_diagonalization(f: AnalyticFunction, count: int = 2**14,
                           window: tuple = DEFAULT_WINDOW) -> float:
    """Residual of the transformed scaling identity on a test function.

    Compares the transform of (x f)' = x f' + f against multiplication by
    (-i lambda + 1/2) on the transform of f; the continuum identity is
    exact, so the residual (relative to ||f||) measures pure discretization
    error and certifies the diagonalization numerically.  A test function
    that samples to zero has no such residual: TrivialFunctionError.

    The residual ||M[(x f)'] - (1/2 - i lambda) M[f]|| / ||f|| needs only
    moduli, so it is summed over the plain DFT G(q) = sum_j g_j e^(-2 pi i
    j q / N) of the samples mellin_forward takes, at lambda = 2 pi q / (N h)
    for q in (-N/2, N/2]: the phase e^(i lambda u_0) and the alternating
    shift of mellin_forward have modulus 1 and drop out.  Real samples have
    G(-q) = conj(G(q)), so one real FFT per sample gives the half spectrum,
    its interior bins counted twice and q = 0 and N/2 once; complex samples
    take the full FFT.  Both agree with the norm of mellin_forward's
    mismatch to rounding.
    """
    if f.order < 1:
        raise ValueError("diagnostic needs one derivative closure")
    grid = LogGrid(window[0], window[1], count)
    x = grid.x
    fx = np.asarray(f.deriv(0)(x))
    sampled = GridFunction(grid, fx)
    norm_f = math.sqrt(norm_sq(sampled))
    if norm_f == 0.0:
        raise TrivialFunctionError(
            f"the test function samples to zero on {count} nodes; "
            "a residual relative to its norm is undefined")
    dfx = np.asarray(f.deriv(1)(x))
    left = _log_samples(GridFunction(grid, x * dfx + fx))  # (x f)'
    right = _log_samples(sampled)
    N, h = len(grid), grid.h
    real = not (np.iscomplexobj(left) or np.iscomplexobj(right))
    q = np.arange(N // 2 + 1 if real else N)
    q[N // 2 + 1:] -= N                  # the full FFT's bins past N/2 are q < 0
    lam = 2.0 * math.pi * q / (N * h)
    transform = np.fft.rfft if real else np.fft.fft
    mismatch = np.abs(transform(left) - (0.5 + 1j * lam) * transform(right)) ** 2
    total = float(np.sum(mismatch))
    if real:
        total = 2.0 * total - mismatch[0] - mismatch[-1]
    # dlam (2 pi)^-1 h^2 = h / N: mellin_forward's factors and MellinData.norm's
    return math.sqrt(h / N * total) / norm_f


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled closed spectral curve r_n(1 + e^(i theta)) of T_n."""

    thetas: np.ndarray
    points: np.ndarray


# The denominator prod (1 + k z) is checked every _RESCALE_EVERY factors and
# scaled down to about 2^(_RESCALE_BITS / 2) wherever a part has grown past
# 2^_RESCALE_BITS: each factor is below 2n <= 2^9 in modulus (n <= 256,
# |z| <= 2), so in between it stays below 2^(900 + 108) < 2^1024.
_RESCALE_EVERY = 12
_RESCALE_BITS = 900


def _curve_point(n: int, theta):
    """r_n(z) = z^n / prod_{k<n} (1 + k z) at z = 1 + e^(i theta).

    From n = 151 the denominator overflows near theta = 0, where it is
    (2n - 1)!!, so wherever it grows past 2^_RESCALE_BITS, the real and
    imaginary parts of it and of the numerator are scaled by the same power
    of two, which is exact.  The scaled points are those near theta = 0,
    where all four parts stay normal floats and the quotient of the scaled
    pair rounds as that of the unscaled one would: curves that did not
    overflow (n <= 150) are unchanged.
    """
    z = 1.0 + np.exp(1j * np.asarray(theta, dtype=float))
    num = z**n
    den = np.ones_like(z)
    for k in range(1, n):
        den = den * (1.0 + k * z)
        if k % _RESCALE_EVERY == 0:
            _, exponent = np.frexp(np.maximum(np.abs(den.real), np.abs(den.imag)))
            big = exponent > _RESCALE_BITS
            if big.any():
                shift = _RESCALE_BITS // 2 - exponent[big]
                for part in (num.real, num.imag, den.real, den.imag):
                    part[big] = np.ldexp(part[big], shift)
    return num / den


def spectrum_curve(n: int, theta_count: int = 8192) -> SpectrumCurve:
    """Sample the spectrum of T_n on theta_count uniform panels of [0, 2 pi].

    theta_count + 1 samples close the curve (first = last); even counts put
    theta = pi on a node, where the curve passes through 0.  The poles of
    r_n sit on the negative real axis and never meet 1 + e^(i theta).
    """
    n = _check_index(n)
    if theta_count < 16:
        raise ValueError("need at least 16 panels for a meaningful curve")
    thetas = np.linspace(0.0, 2.0 * math.pi, theta_count + 1)
    return SpectrumCurve(thetas=thetas, points=_curve_point(n, thetas))


def curve_max_modulus(curve: SpectrumCurve) -> float:
    """max |r_n| over the sampled curve: the operator norm 2^n/(2n-1)!!.

    The modulus peaks at theta = 0, the image r_n(2) of the point z = 2 of
    the T_1 circle |z - 1| = 1, and theta = 0 is a node of every curve.
    For n <= 12 the result is float(b_n) exactly: 2^n and (2n-1)!! are
    exact doubles, and their quotient is rounded once.
    """
    return float(np.max(np.abs(curve.points)))


def curve_to_csv(curve: SpectrumCurve, path) -> None:
    """Write the curve as CSV with columns theta, re, im."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["theta", "re", "im"])
        for theta, point in zip(curve.thetas, curve.points):
            writer.writerow([repr(float(theta)),
                             repr(float(point.real)),
                             repr(float(point.imag))])


# side of the square SVG viewBox; padding as a fraction of the curve's extent
_SVG_SIZE = 640
_SVG_MARGIN = 0.08


def curve_to_svg(curve: SpectrumCurve) -> str:
    """Minimal SVG polyline of the curve with unit axes, viewBox auto-fit."""
    re = curve.points.real
    im = curve.points.imag
    lo = min(re.min(), im.min())
    hi = max(re.max(), im.max())
    span = (hi - lo) or 1.0
    pad = _SVG_MARGIN * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo

    def sx(v):
        return (v - lo) / span * _SVG_SIZE

    def sy(v):
        return _SVG_SIZE - (v - lo) / span * _SVG_SIZE

    pts = " ".join(f"{sx(p.real):.3f},{sy(p.imag):.3f}" for p in curve.points)
    axes = (
        f'<line x1="{sx(lo):.3f}" y1="{sy(0):.3f}" x2="{sx(hi):.3f}" y2="{sy(0):.3f}" '
        'stroke="#999" stroke-width="1"/>'
        f'<line x1="{sx(0):.3f}" y1="{sy(lo):.3f}" x2="{sx(0):.3f}" y2="{sy(hi):.3f}" '
        'stroke="#999" stroke-width="1"/>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">'
        f"{axes}"
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        "</svg>"
    )
