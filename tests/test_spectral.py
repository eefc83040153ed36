"""Mellin transform on log grids and the spectral curves of T_n."""

import numpy as np
import pytest

from hardy_rellich.analytic import LogGaussian, PowerExp
from hardy_rellich.constants import cesaro_norm
from hardy_rellich.errors import TrivialFunctionError
from hardy_rellich.grid import GridFunction, LogGrid, norm_sq
from hardy_rellich.operators import DiscreteCesaro
from hardy_rellich.spectral import (
    MellinData,
    _curve_point,
    curve_max_modulus,
    mellin_forward,
    spectrum_curve,
    verify_diagonalization,
)

BUMPS = [(0.0, 0.05), (1.5, 0.2), (-2.0, 0.3), (0.0, 1.0)]


@pytest.mark.parametrize("n", range(1, 13))
def test_curve_peak_is_the_operator_norm(n):
    # exact: 2^n and (2n-1)!! are exact doubles for n <= 12
    for theta_count in (16, 64, 256, 1024, 8192):
        assert curve_max_modulus(spectrum_curve(n, theta_count)) == float(cesaro_norm(n))


@pytest.mark.parametrize("n", range(151, 179))
def test_curve_past_the_float_range_of_its_denominator(n):
    # (2n - 1)!!, the denominator at theta = 0, overflows from n = 151; the
    # product of n - 1 factors rounds n - 1 times, and b_n is subnormal from
    # n = 172 (a RuntimeWarning would fail the suite)
    curve = spectrum_curve(n, 256)
    assert np.all(np.isfinite(curve.points))
    exact = float(cesaro_norm(n))
    assert abs(curve_max_modulus(curve) - exact) <= n * np.finfo(float).eps * exact + 2 * 5e-324


# theta near 0, uniform and geometric, and near 2 pi from below; within
# about 1e-8 of 0 the modulus falls short of the peak by less than an ulp,
# and rounding may land on either side
_NEAR_ZERO = np.concatenate((
    np.linspace(-1e-2, 1e-2, 2001), np.linspace(-0.5, 0.5, 1001),
    np.outer([-1.0, 1.0], 10.0 ** -np.arange(1, 7)).ravel(),
    2 * np.pi - np.linspace(0.0, 1e-3, 101)))


@pytest.mark.parametrize("n", range(1, 41))
def test_curve_peaks_at_theta_zero(n):
    # curve_max_modulus takes the sampled maximum without refinement: it
    # relies on theta = 0, a node of every curve, being the peak
    mods = np.abs(spectrum_curve(n, 16).points)
    assert int(np.argmax(mods)) == 0
    assert np.max(np.abs(_curve_point(n, _NEAR_ZERO))) <= mods[0]


def _sampled(mu, s, count=1024):
    grid = LogGrid.default(count)
    return GridFunction.from_callable(grid, LogGaussian(mu, s).deriv(0))


@pytest.mark.parametrize("mu,s", BUMPS)
def test_parseval(mu, s):
    f = _sampled(mu, s)
    assert mellin_forward(f).norm() ** 2 == pytest.approx(norm_sq(f), rel=1e-12)


# each bump beside a wider one shifted in u: the pairs overlap (<f, g> is
# 0.28 to 0.72 of ||f|| ||g||), and the shift gives their transforms
# different phases
OVERLAPPING = [((0.0, 0.05), (0.1, 0.08)), ((1.5, 0.2), (1.2, 0.3)), ((-2.0, 0.3), (-1.0, 1.0))]


@pytest.mark.parametrize("first,second", OVERLAPPING)
def test_polarized_parseval(first, second):
    # the transform keeps inner products, not only norms: <M f, M g> against
    # <f, g> by polarization of the grid norm, within 1e-12 of ||f|| ||g||;
    # a transform that scrambled the phases would miss by 0.24 or more
    f, g = _sampled(*first), _sampled(*second)
    mf, mg = mellin_forward(f), mellin_forward(g)
    transformed = (mf.lam[1] - mf.lam[0]) * np.vdot(mg.values, mf.values)
    plain = 0.25 * (norm_sq(GridFunction(f.grid, f.values + g.values))
                    - norm_sq(GridFunction(f.grid, f.values - g.values)))
    scale = (norm_sq(f) * norm_sq(g)) ** 0.5
    assert abs(plain) >= 1e-2 * scale
    assert abs(transformed - plain) <= 1e-12 * scale


@pytest.mark.parametrize("mu", [0.0, 1.7])
@pytest.mark.parametrize("s", [0.015, 0.02, 0.025, 0.03])
def test_diagonalization_residual_shrinks_under_refinement(mu, s):
    f = LogGaussian(mu, s)
    residuals = [verify_diagonalization(f, count=2**k) for k in (10, 11, 12)]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-8


def _full_spectrum_residual(f, count):
    """||M[(x f)'] - (1/2 - i lambda) M[f]|| / ||f|| from mellin_forward's full
    spectra, phases and all."""
    grid = LogGrid.default(count)
    x = grid.x
    fx = np.asarray(f.deriv(0)(x))
    sampled = GridFunction(grid, fx)
    left = mellin_forward(GridFunction(grid, x * np.asarray(f.deriv(1)(x)) + fx))
    right = mellin_forward(sampled)
    mismatch = left.values - (0.5 - 1j * right.lam) * right.values
    return MellinData(right.lam, mismatch).norm() / norm_sq(sampled) ** 0.5


# real samples take the half spectrum of one real FFT each, complex ones the
# full FFT; the residuals run from 7.3 (a bump of two nodes' width at 1024
# nodes) down to the rounding floor near 1e-12
@pytest.mark.parametrize("f", [LogGaussian(0.5, 0.02), LogGaussian(-1.5, 0.0095),
                               PowerExp([(1 + 2j, 1.5), (0.5 - 1j, 3.0)], 1.0)],
                         ids=["bump", "narrow-bump", "complex-powerexp"])
@pytest.mark.parametrize("count", [1024, 4096, 16384])
def test_diagonalization_residual_matches_the_full_spectrum(f, count):
    # within 1e-12 of the residual, plus the rounding floor: the mismatch
    # multiplies M[f], rounded to eps ||f||, by up to |lambda| = pi / h
    # (measured: 1.3e-14 relative at 7.3, and 2.3e-14 of ||f|| at most)
    residual, reference = verify_diagonalization(f, count=count), _full_spectrum_residual(f, count)
    floor = np.finfo(float).eps * np.pi / LogGrid.default(count).h
    assert abs(residual - reference) <= 1e-12 * reference + floor


def test_diagonalization_residual_is_the_same_for_real_and_complex_samples():
    # a zero imaginary part sends the samples through the full FFT
    terms = [(1.0, 1.5), (-0.5, 3.0)]
    real = verify_diagonalization(PowerExp(terms, 1.0), count=4096)
    complex_ = verify_diagonalization(PowerExp([(c + 0j, p) for c, p in terms], 1.0), count=4096)
    assert complex_ == pytest.approx(real, rel=1e-12, abs=2.2e-14)


@pytest.mark.parametrize("count", [16, 64])
def test_diagonalization_refuses_a_function_that_samples_to_zero(count):
    # a bump this narrow falls between the nodes of a coarse grid
    with pytest.raises(TrivialFunctionError):
        verify_diagonalization(LogGaussian(0.0, 0.003), count=count)


def _wrap_symbol_error(n, count):
    """max |multiplier - r_n| of the wrap DiscreteCesaro(n) over |omega_k| < 20.

    The multiplier at omega_k = 2 pi k / L approximates the Laplace symbol
    prod_{j<n} 1/(j + 1/2 + i omega_k) of T_n's kernel; that is r_n(z) at
    z = 1/(1/2 + i omega_k), a point of the T_1 circle |z - 1| = 1, so the
    spectral curve's point at theta = arg(z - 1).
    """
    grid = LogGrid.default(count)
    multiplier = DiscreteCesaro(n, grid)._multiplier
    omega = 2.0 * np.pi * np.arange(len(multiplier)) / (count * grid.h)
    keep = omega < 20.0
    z = 1.0 / (0.5 + 1j * omega[keep])
    return float(np.max(np.abs(multiplier[keep] - _curve_point(n, np.angle(z - 1.0)))))


def test_periodized_wrap_multiplier_is_the_curve():
    # the hat integrals of the periodized kernel differ from the symbol by
    # O((omega h)^2): 16 per 4x nodes, with no window bias left at omega = 0
    errors = [_wrap_symbol_error(4, 2**k) for k in (10, 12, 14)]
    assert 14.0 <= errors[0] / errors[1] <= 18.0
    assert 14.0 <= errors[1] / errors[2] <= 18.0
    assert errors[2] <= 1e-7
