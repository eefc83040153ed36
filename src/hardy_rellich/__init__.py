"""Sharp-constant verification for the Hardy-Rellich-type inequality
sequence and the generalized continuous Cesaro averaging operators.

Submodules
----------
constants   exact rational constants, Leibniz coefficients
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
    glazman_constant,
    leibniz_coeffs,
)
from .errors import (
    ConvergenceError,
    HardyRellichError,
    InvalidDataError,
    SingularityError,
    TrivialFunctionError,
)

__version__ = "0.1.0"

__all__ = [
    "SharpConstant",
    "birman_constant",
    "cesaro_norm",
    "glazman_constant",
    "leibniz_coeffs",
    "ConvergenceError",
    "HardyRellichError",
    "InvalidDataError",
    "SingularityError",
    "TrivialFunctionError",
    "__version__",
]
