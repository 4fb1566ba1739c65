"""Golden bits: force values pinned to the last bit, plus evaluation counts.

The hex strings of the force_exact values are float.hex of results of the
split-formula kernel integrated over the whole half line in one call,
with the Airy values below Z_SWITCH from the Taylor table; each value's
difference from the mpmath reference is recorded in CHANGES.md.  f_eta, err_est and kappa_max compare with ==, n_evals
exactly, and a failing input keeps its error type and message prefix.
The force_classic and force_perturbative values date from the per-node
scalar integrand, and the force_from_fd values from the time each FD
probe (eps and 2 eps) had a band solve of its own; later changes have
not moved any of them.  The one-sample FD and Green's-function integrands
date from the time each side had an extraction formula of its own, and
the FD oracle an order-2 stencil beside Numerov.
"""

import pytest

from casimir_plate import (
    PlateConfig,
    QuadratureSpec,
    force_classic,
    force_exact,
    force_from_fd,
    force_perturbative,
)
from casimir_plate.errors import ToleranceError
from casimir_plate.oracle_ode import fd_setup, integrand_from_fd
from casimir_plate.verify import integrand_from_greens

# (eta, rel_tol, pinned kappa_max): (f_eta, err_est, kappa_max, n_evals)
FORCE = {
    (1e-3, 1e-6, None): ("0x1.dfda36efab9bfp-12", "0x1.648791883f3a0p-32", "0x1.3ffffffffffffp+3", 60),
    (1e-3, 1e-9, None): ("0x1.dfda36efb390dp-12", "0x1.e33206f001e9dp-43", "0x1.3ffffffffffffp+3", 150),
    (1.0, 1e-6, None): ("0x1.d50107a452d08p-4", "0x1.692f68e3fe412p-24", "0x1.0000000000000p+0", 30),
    (1.0, 1e-9, None): ("0x1.d50107a4715cap-4", "0x1.1fe563123b850p-34", "0x1.0000000000000p+0", 90),
    (1e3, 1e-6, None): ("0x1.fa1d095f1ce66p+1", "0x1.c535fa29e99c2p-27", "0x1.94c583ada5b52p+1", 30),
    (1e3, 1e-9, None): ("0x1.fa1d095f1cf10p+1", "0x1.6ad8d66df92a8p-39", "0x1.94c583ada5b52p+1", 90),
    (1e6, 1e-6, None): ("0x1.f40009999cceap+6", "0x1.c73d6a1d8018bp-22", "0x1.3ffffffffffffp+3", 30),
    (1e6, 1e-9, None): ("0x1.f40009999cceap+6", "0x1.ef234ae6bf75cp-35", "0x1.3ffffffffffffp+3", 90),
    # deep refinement
    (1.0, 1e-11, None): ("0x1.d50107a4715cbp-4", "0x1.560a15c21e04ep-42", "0x1.0000000000000p+0", 120),
    # pinned map scale
    (1.0, 1e-6, 5.0): ("0x1.d50107a471569p-4", "0x1.42ed66fe985a1p-30", "0x1.4000000000000p+2", 60),
    (0.03, 1e-9, 5.0): ("0x1.13dca49670710p-7", "0x1.6af008c25b564p-42", "0x1.4000000000000p+2", 120),
    # small eta
    (1e-8, 1e-9, None): ("0x1.6ee7179a76c6dp-27", "0x1.1df4b79ee65c0p-58", "0x1.d028ac9478910p+8", 300),
}

# (eta, rel_tol, pinned kappa_max): (error type, message prefix)
FAILURES = {
    # the kernel's rounding term alone exceeds rel_tol at eps = 1e-4
    (1e-12, 1e-13, None): (ToleranceError, "momentum integral did not reach rel_tol"),
}


@pytest.mark.parametrize("case", list(FORCE), ids=[repr(c) for c in FORCE])
def test_force_exact_bits(case):
    eta, rel_tol, kmax = case
    r = force_exact(eta, QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=kmax))
    f_eta, err_est, kappa_max, n_evals = FORCE[case]
    assert (r.f_eta.hex(), r.err_est.hex(), r.kappa_max.hex(), r.n_evals) == (
        f_eta, err_est, kappa_max, n_evals
    )


@pytest.mark.parametrize("case", list(FAILURES), ids=[repr(c) for c in FAILURES])
def test_force_exact_failures_keep_type_and_text(case):
    eta, rel_tol, kmax = case
    kind, prefix = FAILURES[case]
    with pytest.raises(kind) as info:
        force_exact(eta, QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=kmax))
    assert str(info.value).startswith(prefix)


def test_force_classic_bits():
    assert force_classic(1.0).hex() == "-0x1.0c152382d7364p-3"


def test_force_perturbative_bits():
    assert force_perturbative(1.0, 1.0, 1e-2).hex() == "0x1.620b469a89a54p-1"


# eta: force_from_fd(eta) with its default cutoff and tolerance
FORCE_FD = {
    0.3: "0x1.9bf4376bace87p-5",
    1.0: "0x1.d50033b343d6cp-4",
    3.0: "0x1.c2b60e69ae0a0p-3",
}


@pytest.mark.parametrize("eta", list(FORCE_FD))
def test_force_from_fd_bits(eta):
    assert force_from_fd(eta).hex() == FORCE_FD[eta]


# (kappa, eta, side): integrand_from_fd on fd_setup's grid; eta = 0 is the
# flat background (PlateConfig(a=1, b=0)), where kappa is the momentum
INTEGRAND_FD = {
    (0.0, 1.0, "above"): "-0x1.2d235ca470aaap+0",
    (0.0, 1.0, "below"): "-0x1.8b64f3bd739fcp-1",
    (1.5, 0.5, "above"): "-0x1.d1ad277f0ba62p+0",
    (1.5, 0.5, "below"): "-0x1.ab0c999c3047ap+0",
    (0.7, 0.0, "above"): "-0x1.66667a7cd220bp-1",
    (0.7, 0.0, "below"): "-0x1.66667a7ca3353p-1",
}

# (kappa, eta, side): verify.integrand_from_greens
INTEGRAND_GREENS = {
    (0.0, 1.0, "above"): "-0x1.2d236fafe2503p+0",
    (0.0, 1.0, "below"): "-0x1.8b64af5a400cbp-1",
    (1.5, 0.5, "above"): "-0x1.d1ad18236381ep+0",
    (1.5, 0.5, "below"): "-0x1.ab0c77d5aa98fp+0",
}


def _cfg(eta):
    return PlateConfig.from_eta(eta) if eta > 0.0 else PlateConfig(a=1.0, b=0.0)


@pytest.mark.parametrize("case", list(INTEGRAND_FD), ids=[repr(c) for c in INTEGRAND_FD])
def test_integrand_from_fd_bits(case):
    kappa, eta, side = case
    cfg = _cfg(eta)
    grid, eps = fd_setup(kappa, cfg, side)
    assert integrand_from_fd(kappa, cfg, side, grid, eps).hex() == INTEGRAND_FD[case]


@pytest.mark.parametrize("case", list(INTEGRAND_GREENS), ids=[repr(c) for c in INTEGRAND_GREENS])
def test_integrand_from_greens_bits(case):
    kappa, eta, side = case
    assert integrand_from_greens(kappa, _cfg(eta), side).hex() == INTEGRAND_GREENS[case]
