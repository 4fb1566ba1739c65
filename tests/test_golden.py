"""Golden bits: force values pinned to the last bit, plus evaluation counts.

The hex strings are float.hex of results computed by the per-node scalar
integrand that preceded the batched one.  Batching the force integral (one
array call per quadrature step) must not move any of them: f_eta, err_est
and kappa_max compare with ==, n_evals exactly, and a failing input keeps
its error type and the old message as a prefix.
"""

import pytest

from casimir_plate import QuadratureSpec, force_classic, force_exact, force_perturbative
from casimir_plate.errors import TailError, ToleranceError

# (eta, rel_tol, pinned kappa_max): (f_eta, err_est, kappa_max, n_evals)
FORCE = {
    (1e-3, 1e-6, None): ("0x1.dfda36f0cd13bp-12", "0x1.1d70cced4f581p-34", "0x1.4000000000000p+6", 124),
    (1e-3, 1e-9, None): ("0x1.dfda36efabd4ep-12", "0x1.14e667b7bd65fp-44", "0x1.4000000000000p+7", 170),
    (1.0, 1e-6, None): ("0x1.d501075d7b866p-4", "0x1.2940bac6a9de6p-24", "0x1.4000000000000p+3", 76),
    (1.0, 1e-9, None): ("0x1.d50107a47072bp-4", "0x1.8359b8a71f714p-34", "0x1.4000000000000p+5", 138),
    (1e3, 1e-6, None): ("0x1.fa1d095f12ffbp+1", "0x1.2c24306d551e8p-19", "0x1.f9f6e4990f226p+4", 76),
    (1e3, 1e-9, None): ("0x1.fa1d095f0b1dfp+1", "0x1.409c01e4589b7p-32", "0x1.f9f6e4990f226p+4", 136),
    (1e6, 1e-6, None): ("0x1.f400099995604p+6", "0x1.f9a9be26791e8p-15", "0x1.8ffffffffffffp+6", 76),
    (1e6, 1e-9, None): ("0x1.f40009998d428p+6", "0x1.7c43c4ee75d6fp-29", "0x1.8ffffffffffffp+6", 136),
    # deep refinement
    (1.0, 1e-11, None): ("0x1.d50107a471348p-4", "0x1.04e8ac8e52345p-40", "0x1.4000000000000p+6", 394),
    # pinned cutoff
    (1.0, 1e-6, 5.0): ("0x1.d500f66150783p-4", "0x1.d13a01ceec398p-23", "0x1.4000000000000p+2", 46),
}

# (eta, rel_tol, pinned kappa_max): (error type, message prefix)
FAILURES = {
    (0.03, 1e-9, 5.0): (TailError, "fixed kappa_max=5.0 rejects the tail model (mismatch 4.710e-02); raise the cutoff"),
    (1e-8, 1e-9, None): (ToleranceError, "momentum integral did not converge on [320.0, 640.0]"),
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
