"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "InternalConsistencyError",
    "ZeroDenominatorError",
    "UncertifiableError",
    "ReferenceAccuracyError",
]


class InternalConsistencyError(RuntimeError):
    """A construction-time identity that must hold exactly failed.

    This signals a bug in the package (or corrupted inputs), never a property
    of the mathematics being probed.
    """


class ZeroDenominatorError(ArithmeticError):
    """A continued fraction hit an exactly vanishing denominator.

    This is the blow-up event that the element test on the levels is designed
    to exclude; reporting it precisely matters more than recovering from it.
    """

    def __init__(self, level: int, message: str | None = None):
        self.level = level
        super().__init__(message or f"continued fraction denominator vanished at level {level}")


class UncertifiableError(RuntimeError):
    """A scan could not certify its answer (for example, a contour passes too
    close to a zero at the maximum subdivision depth)."""


class ReferenceAccuracyError(RuntimeError):
    """The independent reference series did not converge to the requested
    precision; results that would depend on it must not be reported."""
