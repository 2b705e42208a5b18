"""Exception types shared across the package.

``calibrate`` has no iteration cap, so no error type reports non-convergence.
"""


class BoundedLaplaceError(Exception):
    """Base class for errors raised by this package."""


class UnsatisfiableBudgetError(BoundedLaplaceError, ValueError):
    """No finite noise scale can satisfy the requested (epsilon, delta)."""


class CalibrationInfeasibleError(BoundedLaplaceError, ArithmeticError):
    """The fixed-point update is undefined at the requested scale."""

