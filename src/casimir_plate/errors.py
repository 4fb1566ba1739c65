"""Exception types and the argument checks the package shares.

The checks are the scalar ones (as_real, check_real), PlateConfig, the
checked plate geometry, and QuadratureSpec, force_exact's settings and the
curve cache's key; they live here, free of numpy, so that none of their
users imports another for them.
"""

import math
from dataclasses import dataclass, field

__all__ = [
    "CasimirError",
    "DomainError",
    "SingularityError",
    "ToleranceError",
    "OracleError",
    "PlateConfig",
    "QuadratureSpec",
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


@dataclass(frozen=True)
class PlateConfig:
    """Plate at height a > 0 over the kink of V(x) = b |x|; eta = b a^3.

    ``eta`` is derived on construction and is not a constructor argument.
    A height whose a^3 (or, with b > 0, b a^3) leaves the float range is a
    DomainError naming a.
    """

    a: float
    b: float
    eta: float = field(init=False)

    def __post_init__(self):
        a = check_real(self.a, "plate height a", strict=True)
        b = check_real(self.b, "potential slope b")
        eta = b * _cube(a)
        if b > 0.0 and not 0.0 < eta < math.inf:
            raise DomainError(
                f"plate height a = {a!r} with b = {b!r} puts eta = b*a^3 outside the float range"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "eta", eta)

    @classmethod
    def from_eta(cls, eta: float) -> "PlateConfig":
        """The plate at a = 1, where b = eta."""
        return cls(a=1.0, b=check_real(eta, "eta"))


def _cube(a: float) -> float:
    """a^3 of a checked plate height, or a DomainError if it leaves the float range."""
    try:
        cube = a**3
    except OverflowError:
        cube = math.inf
    if not 0.0 < cube < math.inf:
        raise DomainError(f"plate height a = {a!r} has a^3 outside the float range")
    return cube


# change it whenever a force result moves, n_evals included, so that cached
# curve rows are recomputed rather than served stale
_KERNEL = "wronskian-split+exp-sinh-tails+taylor-march+pow-rounding"


@dataclass(frozen=True)
class QuadratureSpec:
    """force_exact's settings: rel_tol, and ``kappa_max_policy``, a pinned scale k0 > 0 of
    its nodes kappa = k0 u (force_exact bounds it; None means max(eta^{1/6}, eta^{-1/3})).
    """

    rel_tol: float = 1e-9
    kappa_max_policy: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", check_real(self.rel_tol, "rel_tol", strict=True))
        if self.kappa_max_policy is not None:
            k = check_real(self.kappa_max_policy, "kappa_max_policy", strict=True)
            object.__setattr__(self, "kappa_max_policy", k)

    def fingerprint(self) -> str:
        """Stable identity of the kernel and tolerances; result caches key off this."""
        return f"kernel={_KERNEL};rel={self.rel_tol!r};kmax={self.kappa_max_policy!r}"
