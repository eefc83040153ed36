"""Exception types shared across the package, and _warn, its one way to warn."""

import sys
import warnings

_PACKAGE = __name__.partition(".")[0]


def _warn(message: str) -> None:
    """UserWarning attributed to the first frame outside the package, at any call depth."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == _PACKAGE:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class HardyRellichError(Exception):
    """Base class for all package-specific errors."""


class InvalidDataError(HardyRellichError):
    """Grid samples contain NaN/inf or have inconsistent shapes."""


class SingularityError(HardyRellichError):
    """An integrand is non-integrable at the origin (fitted local exponent <= -1)."""


class TrivialFunctionError(HardyRellichError):
    """A ratio was requested for a function that is numerically zero."""


class ConvergenceError(HardyRellichError):
    """Iterative estimate failed to converge within the iteration budget.

    Carries the last iterate so callers can inspect how far the
    estimate got before giving up.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate
