"""The refusal rule: an argument that is not a finite real in range is a DomainError naming it."""

import math

import numpy as np
import pytest

from casimir_plate import (
    DomainError,
    PlateConfig,
    QuadratureSpec,
    airy_eval,
    airy_via_ode_oracle,
    fd_setup,
    force_classic,
    force_exact,
    force_from_fd,
    force_perturbative,
    greens_free_above,
    greens_free_between,
    greens_linear_above,
    greens_linear_below,
    integrand_from_fd,
    integrand_net,
)
from casimir_plate.errors import check_real
from casimir_plate.oracle_ode import GridSpec, solve_bvp_above, solve_bvp_full
from casimir_plate.stress_kernel import (
    integrand_above,
    integrand_below,
    perturbative_integrands,
    tail_mismatch,
)

CFG = PlateConfig.from_eta(1.0)
FD = fd_setup(1.0, CFG, "above")
ABOVE, BELOW = GridSpec(1.0, 9.0, 1000), GridSpec(-7.0, 1.0, 1000)

# (entry point and parameter, call with the value, name in the message, a value
# below its range, or None for points and bounds, whose range is set by others)
ROWS = [
    ("force_exact", lambda v: force_exact(v), "eta", -1.0),
    ("force_from_fd", lambda v: force_from_fd(v), "eta", 0.0),
    ("integrand_net.kappa", lambda v: integrand_net(v, 1.0), "kappa", -1.0),
    ("integrand_net.eta", lambda v: integrand_net(1.0, v), "eta", -1.0),
    ("integrand_above.kappa", lambda v: integrand_above(v, 1.0), "kappa", -1.0),
    ("integrand_above.eta", lambda v: integrand_above(1.0, v), "eta", 0.0),
    ("integrand_below.kappa", lambda v: integrand_below(v, 1.0), "kappa", -1.0),
    ("integrand_below.eta", lambda v: integrand_below(1.0, v), "eta", 0.0),
    ("force_classic", lambda v: force_classic(v), "a", 0.0),
    ("force_perturbative.a", lambda v: force_perturbative(v, 1.0, 0.1), "a", 0.0),
    ("force_perturbative.b", lambda v: force_perturbative(1.0, v, 0.1), "b", -1.0),
    ("force_perturbative.k_min", lambda v: force_perturbative(1.0, 1.0, v), "k_min", 0.0),
    ("perturbative_integrands.K", lambda v: perturbative_integrands(v, 1.0, 1.0), "K", 0.0),
    ("perturbative_integrands.a", lambda v: perturbative_integrands(1.0, v, 1.0), "a", 0.0),
    ("perturbative_integrands.b", lambda v: perturbative_integrands(1.0, 1.0, v), "b", -1.0),
    ("PlateConfig.a", lambda v: PlateConfig(a=v, b=1.0), "a", 0.0),
    ("PlateConfig.b", lambda v: PlateConfig(a=1.0, b=v), "b", -1.0),
    ("PlateConfig.from_eta.eta", lambda v: PlateConfig.from_eta(v), "eta", -1.0),
    ("QuadratureSpec.rel_tol", lambda v: QuadratureSpec(rel_tol=v), "rel_tol", 0.0),
    ("QuadratureSpec.kappa_max_policy", lambda v: QuadratureSpec(kappa_max_policy=v),
     "kappa_max_policy", 0.0),
    ("greens_free_between.K", lambda v: greens_free_between(0.5, 0.5, v, 1.0), "K", 0.0),
    ("greens_free_between.a", lambda v: greens_free_between(0.5, 0.5, 1.0, v), "a", 0.0),
    ("greens_free_above.K", lambda v: greens_free_above(2.0, 2.0, v, 1.0), "K", 0.0),
    ("greens_free_above.a", lambda v: greens_free_above(2.0, 2.0, 1.0, v), "a", 0.0),
    ("greens_linear_above", lambda v: greens_linear_above(1.5, 1.5, v, CFG), "kappa", -1.0),
    ("greens_linear_below", lambda v: greens_linear_below(0.5, 0.5, v, CFG), "kappa", -1.0),
    ("fd_setup", lambda v: fd_setup(v, CFG, "above"), "kappa", -1.0),
    ("integrand_from_fd.kappa", lambda v: integrand_from_fd(v, CFG, "above", FD), "kappa", -1.0),
    ("airy_eval", lambda v: airy_eval(v), "z", -1.0),
    ("airy_via_ode_oracle", lambda v: airy_via_ode_oracle(v), "z", -1.0),
    ("greens_free_between.x", lambda v: greens_free_between(v, 0.5, 1.0, 2.0), "points", None),
    ("greens_free_between.xp", lambda v: greens_free_between(0.5, v, 1.0, 2.0), "points", None),
    ("greens_free_above.x", lambda v: greens_free_above(v, 2.0, 1.0, 1.0), "points", None),
    ("greens_linear_above.x", lambda v: greens_linear_above(v, 1.5, 1.0, CFG), "points", None),
    ("greens_linear_below.x", lambda v: greens_linear_below(v, 0.5, 1.0, CFG), "points", None),
    ("solve_bvp_above.xp", lambda v: solve_bvp_above(1.0, CFG, v, ABOVE), "source xp", 0.5),
    ("solve_bvp_full.xp", lambda v: solve_bvp_full(1.0, CFG, v, BELOW), "source xp", -8.0),
    ("GridSpec.x_lo", lambda v: GridSpec(v, 1.0, 1000), "x_lo", None),
    ("GridSpec.x_hi", lambda v: GridSpec(0.0, v, 1000), "x_hi", None),
]

# parameters for which None is a valid value
OPTIONAL = {"QuadratureSpec.kappa_max_policy"}


def _cases():
    for label, call, name, below in ROWS:
        for value in (None, "x", math.nan, math.inf) + (() if below is None else (below,)):
            if value is None and label in OPTIONAL:
                continue
            yield pytest.param(call, name, value, id=f"{label}-{value!r}")


@pytest.mark.parametrize("call, name, value", _cases())
def test_bad_scalar_is_a_domain_error_naming_it(call, name, value):
    with pytest.raises(DomainError, match=rf"\b{name} must be"):
        call(value)


@pytest.mark.parametrize("greens, x, xp", [
    (greens_free_above, np.array([1.0, 2.0]), 2.5),
    (greens_free_above, 2.5, np.array([1.0, 2.0])),
    (greens_free_between, np.array([0.1, 0.2]), 0.3),
    (greens_free_between, 0.3, np.array([0.1, 0.2])),
])
def test_flat_greens_refuse_array_points(greens, x, xp):
    # the flat forms are scalar: an array point is refused like any other
    # point that is not a finite real, by name, before any arithmetic
    with pytest.raises(DomainError) as info:
        greens(x, xp, 1.0, 2.0)
    assert str(info.value) == f"points must be finite reals, got x = {x!r}, x' = {xp!r}"


# finite values beyond their range: (entry point, call with the value, the
# value, the refusal's text).  Momenta beyond the finite-difference grid's
# reach, eta beyond the one-momentum samples' (force_exact's bound, where
# zeta^2 would overflow), a pinned k0 that puts force_exact's farthest node
# there, a separation whose -pi/(24 a^2) is subnormal, and
# perturbative inputs whose scale a b / 2 pi overflows or whose c = 2 a k_min
# does, and a K whose perturbative integrands leave the float range (4 K^2
# underflows to 0 at 1e-200, b/(4 K^2) overflows at 1e-160, 2 K a at
# 1.7e308; they raised ZeroDivisionError and returned infinities and NaNs);
# the samples' kappa and force_classic's lower bound are tested in
# test_stress_kernel.py
RANGE = [
    ("force_classic.a", lambda v: force_classic(v), 1e160, "plate separation a must be in ["),
    ("force_perturbative.scale", lambda v: force_perturbative(v, 10.0, 1.0), 1e308,
     "a b / 2 pi = inf"),
    ("force_perturbative.c", lambda v: force_perturbative(1e300, 1.0, v), 1e10, "c = inf"),
    ("integrand_net.eta", lambda v: integrand_net(1.6e51, v), 1e308, "eta must be <= "),
    ("force_exact.kappa_max_policy", lambda v: force_exact(1.0, QuadratureSpec(kappa_max_policy=v)),
     1e35, "eta=1.0 with k0=1e+35 is out of range"),
    ("force_exact.kappa_max_policy", lambda v: force_exact(1.0, QuadratureSpec(kappa_max_policy=v)),
     1e101, "eta=1.0 with k0=1e+101 is out of range"),
    *[("perturbative_integrands.K", lambda v: perturbative_integrands(v, 1.0, 1.0), K,
       "puts the perturbative integrands outside the float range")
      for K in (1e-200, 1e-160, 1.7e308)],
    ("tail_mismatch.eta", lambda v: tail_mismatch(1.6e51, v), 1e308, "eta must be <= "),
    ("fd_setup.above", lambda v: fd_setup(v, CFG, "above"), 1e20,
     "kappa=1e+20: the finite-difference grid would span"),
    ("fd_setup.below", lambda v: fd_setup(v, CFG, "below"), 1e102,
     "kappa=1e+102: the finite-difference grid would span"),
    ("integrand_from_fd.above", lambda v: integrand_from_fd(v, CFG, "above", fd_setup(v, CFG, "above")),
     7.21e16, "kappa=7.21e+16: the finite-difference grid would span"),
    ("integrand_from_fd.below", lambda v: integrand_from_fd(v, CFG, "below", fd_setup(v, CFG, "below")),
     7.21e16, "kappa=7.21e+16: the finite-difference grid would span"),
]


@pytest.mark.parametrize("call, value, text",
                         [pytest.param(c, v, t, id=f"{label}-{v!r}") for label, c, v, t in RANGE])
def test_value_beyond_its_range_is_a_domain_error_naming_it(call, value, text):
    with pytest.raises(DomainError) as info:
        call(value)
    assert text in str(info.value) and repr(value) in str(info.value)


def test_check_real():
    assert check_real(2, "x") == 2.0 and type(check_real(2, "x")) is float
    assert check_real(0.0, "x") == 0.0
    with pytest.raises(DomainError, match="x must be finite and > 0, got 0.0"):
        check_real(0.0, "x", strict=True)
    with pytest.raises(DomainError, match="x must be a real number, got None"):
        check_real(None, "x")
    with pytest.raises(DomainError, match="x must be finite and >= 0, got inf"):
        check_real(10**400, "x")  # an int beyond the float range
    assert check_real(2.0, "x", upper=2.0) == 2.0
    with pytest.raises(DomainError, match="x must be <= 2.0, got 2.5"):
        check_real(2.5, "x", upper=2.0)
