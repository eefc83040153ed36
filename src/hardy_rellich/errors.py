"""Exception types shared across the package."""


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
