"""Vacuum stress on a single Dirichlet plate in a linear confining potential.

A 1+1 dimensional real scalar field is confined by V(x) = b|x| and meets a
Dirichlet plate at height x = a > 0.  The net vacuum force on the plate,
written as f(eta)/a^2 with eta = b a^3, is computed from closed-form Airy
Green's functions, checked against a finite-difference oracle that never
touches an Airy function, and exposed through the casimir-plate CLI.

Layout: airy_engine (scaled special functions), greens (closed-form
propagators), stress_kernel (integrands, forces), quadrature (exp-sinh
on the half line, Clenshaw-Curtis on a finite interval), oracle_ode
(independent checks), verify (invariant suites), cli (presentation),
errors (exception types, argument checks, PlateConfig, QuadratureSpec).

The force path (errors, airy_engine, quadrature, stress_kernel) loads with
the package; the names of greens and oracle_ode load their module on first
use, and verify loads only when imported.
"""

import importlib
import types

from .airy_engine import (
    AiryValues,
    airy_eval,
    airy_scaled,
    airy_via_ode_oracle,
    zeta_gap,
    zeta_of,
)
from .errors import (
    CasimirError,
    DomainError,
    OracleError,
    PlateConfig,
    QuadratureSpec,
    SingularityError,
    ToleranceError,
)
from .quadrature import (
    QuadResult,
    integrate_finite,
    integrate_semi_infinite,
)
from .stress_kernel import (
    ForceResult,
    force_classic,
    force_exact,
    force_perturbative,
    integrand_net,
    perturbative_integrands,
)

__version__ = "0.1.0"

# name -> defining module, for the names resolved on first use
_LAZY = {
    **dict.fromkeys(("greens_free_above", "greens_free_between", "greens_linear_above",
                     "greens_linear_below"), "greens"),
    **dict.fromkeys(("GridSpec", "fd_setup", "force_from_fd", "integrand_from_fd",
                     "solve_bvp_above", "solve_bvp_full"), "oracle_ode"),
}

__all__ = sorted([*_LAZY, *(name for name, value in globals().items() if not (
    name.startswith("_") or isinstance(value, types.ModuleType)))]) + ["__version__"]


def __getattr__(name: str):
    """Import the module of a lazy name, cache the name here and return it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
