"""Vacuum stress on a single Dirichlet plate in a linear confining potential.

A 1+1 dimensional real scalar field is confined by V(x) = b|x| and meets a
Dirichlet plate at height x = a > 0.  The net vacuum force on the plate,
written as f(eta)/a^2 with eta = b a^3, is computed from closed-form Airy
Green's functions, checked against a finite-difference oracle that never
touches an Airy function, and exposed through the casimir-plate CLI.

Layout: airy_engine (scaled special functions), greens (closed-form
propagators), stress_kernel (integrands, forces), quadrature (adaptive
Gauss-Kronrod), oracle_ode (independent checks), verify (invariant
suites), cli (presentation).
"""

from .airy_engine import (
    AiryValues,
    airy_eval,
    airy_via_ode_oracle,
    log_deriv_ai,
    log_deriv_bi,
    zeta_gap,
    zeta_of,
)
from .errors import (
    CasimirError,
    DomainError,
    OracleError,
    ResolutionError,
    SingularityError,
    TailError,
    ToleranceError,
)
from .greens import (
    PlateConfig,
    below_ratio_from_construction,
    greens_free_above,
    greens_free_between,
    greens_linear_above,
    greens_linear_below,
)
from .oracle_ode import (
    GridSpec,
    fd_setup,
    force_from_fd,
    integrand_from_fd,
    solve_bvp_above,
    solve_bvp_full,
)
from .quadrature import (
    QuadratureSpec,
    QuadResult,
    integrate_finite,
    integrate_semi_infinite,
)
from .stress_kernel import (
    ForceResult,
    StressIntegrandSample,
    force_classic,
    force_exact,
    force_perturbative,
    integrand_above,
    integrand_below,
    integrand_net,
    perturbative_integrands,
    tail_mismatch,
    tail_model,
)

__version__ = "0.1.0"

__all__ = [
    "AiryValues",
    "CasimirError",
    "DomainError",
    "ForceResult",
    "GridSpec",
    "OracleError",
    "PlateConfig",
    "QuadResult",
    "QuadratureSpec",
    "ResolutionError",
    "SingularityError",
    "StressIntegrandSample",
    "TailError",
    "ToleranceError",
    "airy_eval",
    "airy_via_ode_oracle",
    "below_ratio_from_construction",
    "fd_setup",
    "force_classic",
    "force_exact",
    "force_from_fd",
    "force_perturbative",
    "greens_free_above",
    "greens_free_between",
    "greens_linear_above",
    "greens_linear_below",
    "integrand_above",
    "integrand_below",
    "integrand_from_fd",
    "integrand_net",
    "perturbative_integrands",
    "solve_bvp_above",
    "solve_bvp_full",
    "tail_mismatch",
    "tail_model",
    "zeta_gap",
    "zeta_of",
    "__version__",
]
