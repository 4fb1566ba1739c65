"""Exception types shared across the package."""

__all__ = [
    "CasimirError",
    "DomainError",
    "SingularityError",
    "ToleranceError",
    "OracleError",
    "ResolutionError",
]


class CasimirError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CasimirError, ValueError):
    """An argument lies outside the region where an operation is defined."""


class SingularityError(CasimirError, ArithmeticError):
    """A denominator that must be nonzero vanished; numerical fault, not physics."""


class ToleranceError(CasimirError, RuntimeError):
    """A computation could not reach its requested accuracy."""


class OracleError(CasimirError, RuntimeError):
    """A verification oracle failed internally (infrastructure, not a physics result)."""


class ResolutionError(OracleError):
    """A finite-difference grid is too coarse for the requested check."""
