"""Sharp-constant verification for the Hardy-Rellich-type inequality
sequence and the generalized continuous Cesaro averaging operators.

Submodules
----------
constants   exact rational constants, Leibniz coefficients, spectral polynomials
grid        log/linear grids, quadrature, cumulative integrals, derivatives
operators   averaging operators, inverses, resolvent, weighted pairs, norms
functional  inequality ratios, the optimality probe family, sharpness sweeps
spectral    Mellin transform via FFT, diagonalization check, spectral curves
interval    finite-interval inequalities and the vector-valued extension
cli         reproducible command-line front end
"""

from .constants import (
    SharpConstant,
    birman_constant,
    cesaro_norm,
    eval_p_n,
    eval_r_n,
    glazman_constant,
    leibniz_coeffs,
    spectral_polynomials,
)
from .errors import (
    ConvergenceError,
    HardyRellichError,
    InvalidDataError,
    PoleError,
    SingularityError,
    TrivialFunctionError,
)

__version__ = "0.1.0"

__all__ = [
    "SharpConstant",
    "birman_constant",
    "cesaro_norm",
    "eval_p_n",
    "eval_r_n",
    "glazman_constant",
    "leibniz_coeffs",
    "spectral_polynomials",
    "ConvergenceError",
    "HardyRellichError",
    "InvalidDataError",
    "PoleError",
    "SingularityError",
    "TrivialFunctionError",
    "__version__",
]
