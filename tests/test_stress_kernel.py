"""Stress integrands and force integrals: cancellation laws, limits, pinned forces."""

import math

import numpy as np
import pytest

from casimir_plate import airy_engine, stress_kernel
from casimir_plate.airy_engine import airy_eval, airy_scaled
from casimir_plate.errors import DomainError, TailError, ToleranceError
from casimir_plate.quadrature import QuadratureSpec
from casimir_plate.stress_kernel import (
    ForceResult,
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

# Frozen once from this implementation and re-checked on every run; the
# independent cross-checks live in test_oracle_ode.py / test_acceptance.py.
F_ETA_1 = 0.11450293526925452
F_ETA_1_KMAX25 = 0.11450293526757109
PERTURB_1E2 = 0.6914922774929644
PERTURB_5E3 = 0.8010182663036101


class TestFlatCancellation:
    @pytest.mark.parametrize("kappa", [0.1, 1.0, 5.0, 20.0])
    def test_net_vanishes_identically_at_eta_zero(self, kappa):
        s = integrand_net(kappa, 0.0)
        assert s.net == 0.0
        # the algebraic path short-circuits; no Airy evaluations happen
        assert s.above is None and s.below is None

    def test_force_vanishes_at_eta_zero(self):
        r = force_exact(0.0)
        assert r.f_eta == 0.0
        assert r.err_est == 0.0
        assert r.n_evals == 0


class TestIntegrandAnchors:
    def test_kappa_zero_closed_forms(self):
        for eta in (0.3, 1.0, 7.0):
            v = airy_eval(eta ** (1.0 / 3.0))
            assert integrand_below(0.0, eta) == pytest.approx(-v.bip / v.bi, rel=1e-13)
            assert integrand_net(0.0, eta).net == pytest.approx(
                -(v.aip / v.ai + v.bip / v.bi), rel=1e-12
            )

    def test_net_pinned_at_origin(self):
        assert integrand_net(0.0, 1.0).net == pytest.approx(0.4040694310077221, rel=1e-12)

    def test_large_kappa_three_term_expansions(self):
        kappa, eta = 10.0, 1.0
        e3 = eta ** (1.0 / 3.0)
        base = -kappa - e3 / (2.0 * kappa)
        assert abs(integrand_above(kappa, eta) - (base - 0.25 / kappa**2)) <= 1e-3
        assert abs(integrand_below(kappa, eta) - (base + 0.25 / kappa**2)) <= 1e-3

    def test_net_approaches_tail_model_shape(self):
        kappa, eta = 10.0, 1.0
        z2 = kappa**2 + eta ** (1.0 / 3.0)
        assert abs(integrand_net(kappa, eta).net - 0.5 / z2) <= 2e-3

    def test_net_positive_on_grid(self):
        for eta in np.logspace(-3, 3, 7):
            for kappa in (0.0, 0.5, 2.0, 10.0, 20.0):
                assert integrand_net(float(kappa), float(eta)).net > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            integrand_above(-1.0, 1.0)
        with pytest.raises(DomainError):
            integrand_below(1.0, -2.0)


class TestSinglePass:
    """integrand_net reads both sides from one Airy evaluation at each of z1, z2."""

    def test_two_airy_evaluations_per_sample(self, monkeypatch):
        calls = []

        def counting(z):
            calls.append(z)
            return airy_eval(z)

        # both bindings: a helper such as log_deriv_ai resolves it in airy_engine
        monkeypatch.setattr(stress_kernel, "airy_eval", counting)
        monkeypatch.setattr(airy_engine, "airy_eval", counting)
        for kappa in (0.0, 3.0, 12.0):
            calls.clear()
            integrand_net(kappa, 1.0)
            assert calls == [kappa * kappa, kappa * kappa + 1.0]  # z1, z2 at eta = 1

    def test_one_array_evaluation_per_quadrature_step(self, monkeypatch):
        calls = []

        def counting(z):
            calls.append(np.array(z).tolist())
            return airy_scaled(z)

        # both bindings: the kernel resolves it in stress_kernel, airy_eval in airy_engine
        monkeypatch.setattr(stress_kernel, "airy_scaled", counting)
        monkeypatch.setattr(airy_engine, "airy_scaled", counting)
        eta = 2.0
        r = force_exact(eta)
        steps = [z for z in calls if len(z) > 1]
        # the first panel of a segment: 15 nodes; a bisection: 30; times (z1, z2)
        assert {len(z) for z in steps} == {30, 60}
        for z in steps:
            m = len(z) // 2
            z1, z2 = z[:m], z[m:]  # kappa^2 at the step's nodes, ascending
            assert z1 == sorted(z1)
            assert z2 == [x + eta ** (1.0 / 3.0) for x in z1]
        # the rest are the tail checks' airy_eval calls, one argument each
        tail = [z for z in calls if len(z) == 1]
        assert len(tail) == 2 * (r.n_evals - sum(len(z) for z in steps) // 2)

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kappa_sq", [1.0, 10.0, 39.0, 39.99, 40.0, 41.0, 100.0])
    def test_sides_equal_the_single_side_integrands(self, kappa_sq, eta):
        # z1 = kappa^2 on both sides of Z_SWITCH = 40: both Airy branches serve
        kappa = math.sqrt(kappa_sq)
        s = integrand_net(kappa, eta)
        assert s.above == integrand_above(kappa, eta)
        assert s.below == integrand_below(kappa, eta)
        assert s.net == s.below - s.above


class TestTailModel:
    def test_closed_form(self):
        assert tail_model(10.0, 1.0) == pytest.approx(
            math.atan(0.1) / (4.0 * math.pi), rel=1e-14
        )

    def test_admissibility_boundary(self):
        ok, mismatch = tail_mismatch(10.0, 1.0)
        assert ok and mismatch <= 1e-5
        ok, mismatch = tail_mismatch(2.0, 1.0)
        assert not ok and mismatch > 1e-2

    def test_model_rejected_below_admissibility(self):
        with pytest.raises(TailError):
            tail_model(2.0, 1.0)

    def test_mismatch_decreases_with_cutoff(self):
        ds = [tail_mismatch(k, 1.0)[1] for k in (5.0, 10.0, 20.0, 40.0)]
        assert all(d0 > d1 > 0.0 for d0, d1 in zip(ds, ds[1:]))


class TestForceExact:
    def test_pinned_value_and_metadata(self):
        r = force_exact(1.0)
        assert r.f_eta == pytest.approx(F_ETA_1, rel=1e-10)
        assert r.kappa_max == 40.0
        assert r.err_est <= 1e-9 * r.f_eta
        assert r.n_evals > 0

    def test_bit_identical_reruns(self):
        assert force_exact(1.0).f_eta == force_exact(1.0).f_eta

    def test_fixed_cutoff_policy_agrees_with_adaptive(self):
        r = force_exact(1.0, QuadratureSpec(kappa_max_policy=25.0))
        assert r.kappa_max == 25.0
        assert r.f_eta == pytest.approx(F_ETA_1_KMAX25, rel=1e-10)
        assert r.f_eta == pytest.approx(F_ETA_1, rel=1e-9)

    def test_errors_name_the_input(self):
        # the cutoff loop runs out at eta = 1e-8; the message says for which call
        with pytest.raises(ToleranceError) as info:
            force_exact(1e-8, QuadratureSpec(rel_tol=1e-9))
        msg = str(info.value)
        assert msg.startswith("momentum integral did not converge on [320.0, 640.0]; ")
        assert "eta=1e-08, rel_tol=1e-09, err_est=" in msg
        with pytest.raises(TailError) as info:
            force_exact(1.0, QuadratureSpec(kappa_max_policy=2.0))
        assert str(info.value).endswith("; eta=1.0, rel_tol=1e-09")

    def test_fixed_cutoff_too_small_is_rejected(self):
        with pytest.raises(TailError):
            force_exact(1.0, QuadratureSpec(kappa_max_policy=2.0))

    def test_positive_across_decades(self):
        for eta in (1e-2, 1.0, 1e2):
            assert force_exact(eta).f_eta > 0.0

    def test_result_invariants_enforced(self):
        with pytest.raises(ToleranceError):
            ForceResult(eta=1.0, f_eta=0.1, err_est=-1.0, kappa_max=10.0, n_evals=5)
        with pytest.raises(ToleranceError):
            ForceResult(eta=1.0, f_eta=-0.1, err_est=0.0, kappa_max=10.0, n_evals=5)

    def test_as_dict_shape(self):
        d = force_exact(0.0).as_dict()
        assert sorted(d) == ["err_est", "eta", "f_eta", "kappa_max", "n_evals"]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            force_exact(-0.5)


class TestForceClassic:
    def test_quarter_pi_over_24(self):
        assert force_classic(1.0) == pytest.approx(-math.pi / 24.0, rel=1e-10)

    def test_inverse_square_scaling(self):
        assert force_classic(2.0) == pytest.approx(-math.pi / 96.0, rel=1e-10)
        assert force_classic(0.5) == pytest.approx(-math.pi / 6.0, rel=1e-10)

    def test_attractive_sign(self):
        for a in (0.1, 1.0, 10.0):
            assert force_classic(a) < 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            force_classic(0.0)


class TestPerturbative:
    def test_identity_holds_on_well_conditioned_grid(self):
        # the in-function guard raises on violation; recompute the residual
        # here so the tolerance is asserted, not just not-raised
        worst = 0.0
        for K in (1e-2, 0.1, 0.3, 1.0, 10.0, 100.0):
            for a in (0.5, 1.0, 2.0):
                for b in (0.5, 1.0, 3.0):
                    below, above, net = perturbative_integrands(K, a, b)
                    part_b = b * (1.0 - 2.0 * K * a - 2.0 * math.exp(-2.0 * K * a)) / (4.0 * K * K)
                    part_a = -b * (1.0 + 2.0 * K * a) / (4.0 * K * K)
                    worst = max(worst, abs((part_b - part_a) - net) / abs(net))
        assert worst <= 1e-12

    def test_free_field_limit(self):
        below, above, net = perturbative_integrands(0.5, 1.0, 0.0)
        assert below == -0.5 and above == -0.5 and net == 0.0

    def test_infrared_divergence_shape(self):
        # net*K/(a*b) -> 1 as K -> 0, the log-divergent density
        for K in (1e-8, 1e-6, 1e-4):
            _, _, net = perturbative_integrands(K, 1.0, 1.0)
            assert abs(K * net - 1.0) <= 2.0 * K + 1e-12

    def test_guard_not_tripped_by_rounding_at_extreme_momenta(self):
        for K in (1e-9, 1e-6, 1e3, 1e6):
            perturbative_integrands(K, 1.0, 1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            perturbative_integrands(0.0, 1.0, 1.0)

    def test_pinned_cutoff_values(self):
        assert force_perturbative(1.0, 1.0, 1e-2) == pytest.approx(PERTURB_1E2, rel=1e-10)
        assert force_perturbative(1.0, 1.0, 5e-3) == pytest.approx(PERTURB_5E3, rel=1e-10)

    def test_halving_step_is_log_two_over_two_pi(self):
        step = force_perturbative(1.0, 1.0, 5e-3) - force_perturbative(1.0, 1.0, 1e-2)
        ref = math.log(2.0) / (2.0 * math.pi)
        assert abs(step - ref) / ref <= 5e-2

    def test_grows_as_cutoff_descends(self):
        vals = [force_perturbative(1.0, 1.0, k) for k in (1.0, 0.1, 1e-2, 1e-3)]
        assert all(v1 > v0 > 0.0 for v0, v1 in zip(vals, vals[1:]))

    def test_vanishes_at_large_cutoff(self):
        assert 0.0 < force_perturbative(1.0, 1.0, 10.0) < 1e-2

    def test_domain_error_on_cutoff(self):
        with pytest.raises(DomainError):
            force_perturbative(1.0, 1.0, 0.0)
