"""Golden bits: force values pinned to the last bit, plus evaluation counts.

The hex strings of the force_exact values are float.hex of results of the
split-formula kernel integrated over the whole half line in one call;
each value's difference from the mpmath reference is recorded in
CHANGES.md.  f_eta, err_est and kappa_max compare with ==, n_evals
exactly, and a failing input keeps its error type and message prefix.
The force_classic and force_perturbative values date from the per-node
scalar integrand, and the force_from_fd values from the time each FD
probe (eps and 2 eps) had a band solve of its own; later changes have
not moved any of them.
"""

import pytest

from casimir_plate import (
    QuadratureSpec,
    force_classic,
    force_exact,
    force_from_fd,
    force_perturbative,
)
from casimir_plate.errors import ToleranceError

# (eta, rel_tol, pinned kappa_max): (f_eta, err_est, kappa_max, n_evals)
FORCE = {
    (1e-3, 1e-6, None): ("0x1.dfda36efab999p-12", "0x1.648790ea295bdp-32", "0x1.3ffffffffffffp+3", 60),
    (1e-3, 1e-9, None): ("0x1.dfda36efb38bdp-12", "0x1.e334d406aa9bfp-43", "0x1.3ffffffffffffp+3", 150),
    (1.0, 1e-6, None): ("0x1.d50107a452d4dp-4", "0x1.692f6a6482f34p-24", "0x1.0000000000000p+0", 30),
    (1.0, 1e-9, None): ("0x1.d50107a471610p-4", "0x1.1fe694a611f3dp-34", "0x1.0000000000000p+0", 90),
    (1e3, 1e-6, None): ("0x1.fa1d095f1ceefp+1", "0x1.c535471d49f73p-27", "0x1.94c583ada5b52p+1", 30),
    (1e3, 1e-9, None): ("0x1.fa1d095f1ce9dp+1", "0x1.7a53cbb2e665ep-39", "0x1.94c583ada5b52p+1", 90),
    (1e6, 1e-6, None): ("0x1.f40009999cceap+6", "0x1.c73d6a1d8018bp-22", "0x1.3ffffffffffffp+3", 30),
    (1e6, 1e-9, None): ("0x1.f40009999cceap+6", "0x1.ef234ae6bf75cp-35", "0x1.3ffffffffffffp+3", 90),
    # deep refinement
    (1.0, 1e-11, None): ("0x1.d50107a471609p-4", "0x1.57697fc583ddep-42", "0x1.0000000000000p+0", 120),
    # pinned map scale
    (1.0, 1e-6, 5.0): ("0x1.d50107a4715b8p-4", "0x1.42ed7974dc3d9p-30", "0x1.4000000000000p+2", 60),
    (0.03, 1e-9, 5.0): ("0x1.13dca4967070bp-7", "0x1.6ae37ed01e965p-42", "0x1.4000000000000p+2", 120),
    # small eta
    (1e-8, 1e-9, None): ("0x1.6ee7179a76f04p-27", "0x1.1e177750e0fa7p-58", "0x1.d028ac9478910p+8", 300),
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
