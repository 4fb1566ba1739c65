"""force_exact against mpmath: every answer is within its err_est, or a ToleranceError.

The references are the 278 mpmath values of perfbench/refs.json (read only
here; perfbench/refgen.py computes them twice, at 26 and 34 digits with
different cutoffs and panels).  The property test draws inputs across the
whole documented domain and holds each answer to the same contract against
a second discretisation of the integral.
"""

import json
import math
from pathlib import Path

import pytest

from casimir_plate import DomainError, QuadratureSpec, ToleranceError, force_exact

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

REFS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json").read_text())
REF = {r["eta"]: float(r["f"]) for r in REFS["refs"]}


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_error_estimate_bounds_the_mpmath_error(rel_tol):
    refused = []
    for eta, ref in REF.items():
        try:
            r = force_exact(eta, QuadratureSpec(rel_tol=rel_tol))
        except ToleranceError as exc:
            assert f"eta={eta!r}, rel_tol={rel_tol!r}, err_est=" in str(exc)
            refused.append(eta)
            continue
        assert abs(r.f_eta - ref) <= r.err_est <= rel_tol * r.f_eta, eta
    # only the kernel's rounding floor refuses: 10 u/eps is 1e-12 at eta = 1e-8
    # (2.2e-13 at 1e-6, which the quadrature now meets within the rest)
    assert refused == ([] if rel_tol > 1e-12 else [1e-8])


# Inputs where an adaptive Gauss-Kronrod estimate undershot the true error,
# with their references from perfbench/refgen.py's force_mp (34 digits,
# agreeing with the 26-digit value to 1e-17 or better).  The nested
# exp-sinh estimate must hold on every one; (3.459e-5, 3e-5) is where the
# Gauss-Kronrod estimate read 5.1e-6 against a true error of 8.0e-6.
HARD = {
    2.2670899410414915e-08: 2.322418363173963642557e-8,
    3.5481338923357605e-10: 4.417260658466713368585e-10,
    1.1628743384147122e-06: 9.483448711395219070947e-7,
    0.033496543915782793: 0.009212120757817414203778,
    2.9223868494943137e-13: 4.739275976348221316640e-13,
    3.459197909661869e-05: 0.00002198636832824015783340,
}


@pytest.mark.parametrize("eta", list(HARD))
@pytest.mark.parametrize("rel_tol", [3e-5, 3e-6, 1e-6, 1e-8])
def test_error_estimate_holds_where_the_quadrature_was_fooled(eta, rel_tol):
    r = force_exact(eta, QuadratureSpec(rel_tol=rel_tol))
    assert abs(r.f_eta - HARD[eta]) <= r.err_est <= rel_tol * r.f_eta


# half decades of eta: from 1e-310 to 1e307, and from 10^17.5, where the
# rounding of the pow exponents first outweighs the kernel's, to the default
# k0's bound, 3.75e207
HALF_DECADES = [10.0 ** (k / 2.0) for k in range(-620, 615)]
LARGE_ETAS = [eta for eta in HALF_DECADES if 3e17 < eta < 3.75e207]


@pytest.mark.parametrize("rel_tol", [1e-11, 1e-13])
def test_large_eta_is_answered_within_err_est_of_the_law(rel_tol):
    # (sqrt(eta)/8)(1 + 75/(256 eta) + c2/eta^2), docs/numerics.md section 7;
    # the next term is below 1e-52 here.  Without the exponent-rounding term
    # err_est misses the law from eta ~ 1e35 up (5.9x at 3.2e206)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        c2 = mp.mpf(17619525) / 11796480
        for eta in LARGE_ETAS:
            r = force_exact(eta, QuadratureSpec(rel_tol=rel_tol))
            e = mp.mpf(eta)
            law = mp.sqrt(e) / 8 * (1 + mp.mpf(75) / (256 * e) + c2 / e**2)
            assert abs(r.f_eta - law) <= r.err_est <= rel_tol * r.f_eta, eta


def test_only_the_rounding_term_alone_or_the_bound_refuses():
    # with no absolute floor, a default-k0 refusal on the half-decade grid is
    # the kernel's bound on eta or k0 (DomainError) or the rounding term
    # exceeding rel_tol before any node is evaluated
    for eta in HALF_DECADES:
        for rel_tol in (1e-3, 1e-6, 1e-9, 1e-11, 1e-12, 1e-13):
            try:
                force_exact(eta, QuadratureSpec(rel_tol=rel_tol))
            except ToleranceError as exc:
                assert "(n_evals=0, cause: rounding)" in str(exc), (eta, rel_tol)
            except DomainError as exc:
                assert f"eta={eta!r} with k0=" in str(exc)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
def test_pinned_scales_meet_their_tolerance_or_raise(rel_tol):
    # from 1e-11 to 1e11 in quarter decades, 1e-8 and 1.2e-8 among them:
    # the far scales move the window off the integrand, and the part it
    # cuts off must show in err_est at every level, or the scale is refused
    answered = []
    for k0 in [10.0 ** (e / 4) for e in range(-44, 45)] + [1.2e-8]:
        try:
            r = force_exact(1.0, QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=k0))
        except ToleranceError as exc:
            assert "cause: window edge" in str(exc), k0
            continue
        assert abs(r.f_eta - REF[1.0]) <= r.err_est <= rel_tol * r.f_eta, k0
        answered.append(k0)
    assert {1e-3, 1.0, 1e3} <= set(answered)
    assert 1e-11 not in answered and 1e11 not in answered


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(eta=_log_uniform(1e-15, 1e15), rel_tol=_log_uniform(1e-13, 1e-6),
       kappa_max=st.none() | _log_uniform(1e-3, 1e6))
def test_every_input_meets_its_tolerance_or_raises(eta, rel_tol, kappa_max):
    spec = QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=kappa_max)
    try:
        r = force_exact(eta, spec)
    except ToleranceError as exc:
        assert f"eta={eta!r}, rel_tol={rel_tol!r}, err_est=" in str(exc)
        return
    assert 0.0 < r.f_eta < math.inf
    assert r.err_est <= rel_tol * r.f_eta
    k0 = max(eta ** (1.0 / 6.0), eta ** (-1.0 / 3.0)) if kappa_max is None else kappa_max
    assert r.kappa_max == k0
    # a second discretisation: another map scale at the tightest tolerance it meets
    for tol in (1e-12, 1e-11, 1e-10, 1e-9):
        try:
            other = force_exact(eta, QuadratureSpec(rel_tol=tol, kappa_max_policy=3.0 * k0))
        except ToleranceError:
            continue
        assert abs(r.f_eta - other.f_eta) <= r.err_est + other.err_est
        return
    pytest.fail(f"no reference run met 1e-9 at eta={eta!r}")
