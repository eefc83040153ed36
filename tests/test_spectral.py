"""Mellin transform on log grids and the spectral curves of T_n."""

import numpy as np
import pytest

from hardy_rellich.analytic import LogGaussian
from hardy_rellich.constants import cesaro_norm
from hardy_rellich.errors import TrivialFunctionError
from hardy_rellich.grid import GridFunction, LogGrid, norm_sq
from hardy_rellich.spectral import (
    curve_max_modulus,
    mellin_forward,
    mellin_inverse,
    spectrum_curve,
    verify_diagonalization,
)

BUMPS = [(0.0, 0.05), (1.5, 0.2), (-2.0, 0.3), (0.0, 1.0)]


@pytest.mark.parametrize("n", range(1, 7))
def test_curve_peak_is_the_operator_norm(n):
    peak = curve_max_modulus(spectrum_curve(n, 8192))
    assert peak == pytest.approx(float(cesaro_norm(n)), rel=1e-12)


def _sampled(mu, s, count=1024):
    grid = LogGrid.default(count)
    return GridFunction.from_callable(grid, LogGaussian(mu, s).deriv(0))


@pytest.mark.parametrize("mu,s", BUMPS)
def test_parseval(mu, s):
    f = _sampled(mu, s)
    assert mellin_forward(f).norm() ** 2 == pytest.approx(norm_sq(f), rel=1e-12)


@pytest.mark.parametrize("mu,s", BUMPS)
def test_inverse_undoes_forward(mu, s):
    f = _sampled(mu, s)
    back = mellin_inverse(mellin_forward(f)).values
    assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))


@pytest.mark.parametrize("mu", [0.0, 1.7])
@pytest.mark.parametrize("s", [0.015, 0.02, 0.025, 0.03])
def test_diagonalization_residual_shrinks_under_refinement(mu, s):
    f = LogGaussian(mu, s)
    residuals = [verify_diagonalization(f, count=2**k) for k in (10, 11, 12)]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-8


@pytest.mark.parametrize("count", [16, 64])
def test_diagonalization_refuses_a_function_that_samples_to_zero(count):
    # a bump this narrow falls between the nodes of a coarse grid
    with pytest.raises(TrivialFunctionError):
        verify_diagonalization(LogGaussian(0.0, 0.003), count=count)
