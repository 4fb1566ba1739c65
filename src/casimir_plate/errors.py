"""Exception types shared across the package, and its scalar argument checks."""

import math

__all__ = [
    "CasimirError",
    "DomainError",
    "SingularityError",
    "ToleranceError",
    "OracleError",
    "as_real",
    "check_real",
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


def as_real(value, name: str) -> float:
    """float(value), +-inf for an int beyond the float range, else a DomainError naming it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def check_real(value, name: str, *, strict: bool = False, upper: float = math.inf) -> float:
    """float(value) if it is finite, >= 0 (> 0 when strict) and <= upper, else a DomainError naming it."""
    v = as_real(value, name)
    if not (math.isfinite(v) and (v > 0.0 if strict else v >= 0.0)):
        raise DomainError(f"{name} must be finite and {'>' if strict else '>='} 0, got {v!r}")
    if v > upper:
        raise DomainError(f"{name} must be <= {upper!r}, got {v!r}")
    return v
