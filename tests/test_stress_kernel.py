"""Stress integrands and force integrals: cancellation laws, limits, pinned forces."""

import math

import numpy as np
import pytest

from casimir_plate import airy_engine, stress_kernel
from casimir_plate.airy_engine import Z_SWITCH, airy_eval
from casimir_plate.errors import DomainError, ToleranceError
from casimir_plate.quadrature import QuadratureSpec, integrate_semi_infinite
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
)

# Frozen once from this implementation and re-checked on every run; the
# independent cross-checks live in test_oracle_ode.py / test_acceptance.py.
F_ETA_1 = 0.11450293526930744
F_ETA_1_KMAX25 = 0.1145029352693065
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

    def test_net_approaches_tail_model_shape(self):
        kappa, eta = 10.0, 1.0
        z2 = kappa**2 + eta ** (1.0 / 3.0)
        assert abs(integrand_net(kappa, eta).net - 0.5 / z2) <= 2e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            integrand_above(-1.0, 1.0)
        with pytest.raises(DomainError):
            integrand_below(1.0, -2.0)


class TestSinglePass:
    """A sample of the integrands is one _net_terms pass on the pair (z1, z2)."""

    def test_one_net_terms_pass_per_sample(self, monkeypatch):
        calls = []

        def terms(z1, z2):
            calls.append((z1.tolist(), z2.tolist()))
            return net_terms(z1, z2)

        def refuse(z):
            raise AssertionError(f"per-argument Airy evaluation at {z!r}")

        assert not hasattr(stress_kernel, "airy_eval")
        net_terms = stress_kernel._net_terms
        monkeypatch.setattr(stress_kernel, "_net_terms", terms)
        monkeypatch.setattr(airy_engine, "airy_eval", refuse)
        monkeypatch.setattr(airy_engine, "airy_scaled", refuse)
        for kappa in (0.0, 3.0, 12.0):
            calls.clear()
            integrand_net(kappa, 1.0)
            assert calls == [([kappa * kappa], [kappa * kappa + 1.0])]  # z1, z2 at eta = 1

    def test_one_array_evaluation_per_quadrature_step(self, monkeypatch):
        momenta, calls = [], []

        def batch(kappa, eta):
            momenta.append(kappa.tolist())
            return net_array(kappa, eta)

        def terms(z1, z2):
            calls.append((z1.tolist(), z2.tolist()))
            return net_terms(z1, z2)

        def refuse(z):
            raise AssertionError("the force path called airy_scaled")

        net_array, net_terms = stress_kernel._net_array, stress_kernel._net_terms
        monkeypatch.setattr(stress_kernel, "_net_array", batch)
        monkeypatch.setattr(stress_kernel, "_net_terms", terms)
        monkeypatch.setattr(airy_engine, "airy_scaled", refuse)
        eta = 2.0
        r = force_exact(eta)
        # every step: the 30 nodes of two panels, ascending, as (z1, z2)
        assert len(momenta) == len(calls) == r.n_evals // 30
        for kappa, (z1, z2) in zip(momenta, calls):
            assert len(kappa) == 30
            assert all(k0 < k1 for k0, k1 in zip(kappa, kappa[1:]))
            assert z1 == [k * k for k in kappa]
            assert z2 == [x + eta ** (1.0 / 3.0) for x in z1]

    def test_one_quadrature_call_and_no_scalar_airy_call(self, monkeypatch):
        quad = []

        def counting(f, spec):
            quad.append(spec)
            return integrate_semi_infinite(f, spec)

        def scalar(z):
            raise AssertionError(f"scalar Airy evaluation at {z!r}")

        monkeypatch.setattr(stress_kernel, "integrate_semi_infinite", counting)
        monkeypatch.setattr(airy_engine, "airy_eval", scalar)
        for eta, kmax in ((1e-6, None), (1.0, None), (1.0, 5.0), (1e9, None)):
            quad.clear()
            force_exact(eta, QuadratureSpec(kappa_max_policy=kmax))
            assert len(quad) == 1

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kappa_sq", [1.0, 10.0, 39.0, 39.99, 40.0, 41.0, 100.0])
    def test_sides_equal_the_single_side_integrands(self, kappa_sq, eta):
        # z1 = kappa^2 on both sides of Z_SWITCH = 40: both Airy branches serve
        kappa = math.sqrt(kappa_sq)
        s = integrand_net(kappa, eta)
        assert s.above == integrand_above(kappa, eta)
        assert s.below == integrand_below(kappa, eta)
        # net is formed without the subtraction; below is read from it
        assert s.below == s.above + s.net

    @pytest.mark.parametrize("eta", [1e-12, 1e-3, 1.0, 1e3, 1e9])
    def test_scalar_net_equals_its_batched_element(self, eta):
        root = math.sqrt(Z_SWITCH)
        batches = [
            # momenta on both sides of Z_SWITCH in one batch, so both Airy
            # branches and both product branches serve it
            [0.0, 0.3, 1.0, root - 1e-9, root, root + 1e-9, 7.0, 60.0, 1e4, 1e8],
            # mixing momenta whose z1 and z2 are both below Z_SWITCH,
            # straddle it (z1 < Z_SWITCH <= z2) and are both above
            [60.0, 0.3, 1e8, root, 1.0, root - 1e-9, 0.0, 7.0, math.sqrt(39.5), 1e4],
            # z1 < Z_SWITCH <= z2 next to z1 = 1e4 (sqrt(39.5) at eta >= 1,
            # root - 1e-9 at every eta): the smallest zeta of the series batch
            # is a z2, far below that of the batch's first element, z1 = 1e4
            [math.sqrt(39.5), 100.0],
            [root - 1e-9, 100.0],
            # series batches of 2, 3 and 4 elements
            [math.sqrt(41.0)],
            [math.sqrt(39.5), math.sqrt(41.0)],
            [math.sqrt(41.0), math.sqrt(50.0)],
        ]
        for kappa in batches:
            kappa = sorted(kappa)  # the order quadrature nodes arrive in
            batched = stress_kernel._net_array(np.array(kappa), eta)
            assert [integrand_net(k, eta).net for k in kappa] == batched.tolist(), kappa

    @pytest.mark.parametrize("kappa", [[2.0, 1.0], [0.0, 7.0, 60.0, 1.0], [0.0, math.nan, 1.0]])
    def test_batch_out_of_order_rejected(self, kappa):
        with pytest.raises(DomainError, match="ascending"):
            stress_kernel._net_array(np.array(kappa), 1.0)

    @staticmethod
    def mp_errors(kappa_sq, eta):
        """Relative errors of (net, above, below) against 40-digit mpmath; net as below - above there."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            z1 = mp.mpf(kappa_sq)
            z2 = z1 + mp.cbrt(mp.mpf(eta))
            a1, ap1 = mp.airyai(z1), mp.airyai(z1, 1)
            b1, bp1 = mp.airybi(z1), mp.airybi(z1, 1)
            a2, ap2 = mp.airyai(z2), mp.airyai(z2, 1)
            b2, bp2 = mp.airybi(z2), mp.airybi(z2, 1)
            s = ap1 * b1 + a1 * bp1
            above = ap2 / a2
            below = (2 * a1 * ap1 * bp2 - ap2 * s) / (a2 * s - 2 * a1 * ap1 * b2)
        own = integrand_net(math.sqrt(kappa_sq), eta)
        return [float(abs(x - ref) / abs(ref))
                for x, ref in zip((own.net, own.above, own.below), (below - above, above, below))]

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kappa_sq", [0.0, 1.0, 10.0, 39.0, 39.99, 40.0, 41.0, 100.0, 1e4])
    def test_net_matches_mpmath_at_the_crossover(self, kappa_sq, eta):
        # net and above are worst at (1, 1), 5.1e-13 and 7.7e-14: airye is off at z2 = 2
        assert max(self.mp_errors(kappa_sq, eta)) <= 1e-12

    def test_zeta_gap_is_formed_from_eps(self):
        # z2 - z1 would carry the rounding of z2 = 4e4 + 1e-4: 2.5e-8 here
        assert max(self.mp_errors(4e4, 1e-12)) <= 1e-12


class TestTailModel:
    def test_admissibility_boundary(self):
        ok, mismatch = tail_mismatch(10.0, 1.0)
        assert ok and mismatch <= 1e-5
        ok, mismatch = tail_mismatch(2.0, 1.0)
        assert not ok and mismatch > 1e-2

    def test_mismatch_decreases_with_cutoff(self):
        ds = [tail_mismatch(k, 1.0)[1] for k in (5.0, 10.0, 20.0, 40.0)]
        assert all(d0 > d1 > 0.0 for d0, d1 in zip(ds, ds[1:]))


class TestForceExact:
    def test_pinned_value_and_metadata(self):
        r = force_exact(1.0)
        assert r.f_eta == pytest.approx(F_ETA_1, rel=1e-10)
        assert r.kappa_max == 1.0  # the map scale max(eta^{1/6}, eta^{-1/3})
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
        # the kernel's rounding alone exceeds rel_tol at eta = 1e-12
        with pytest.raises(ToleranceError) as info:
            force_exact(1e-12, QuadratureSpec(rel_tol=1e-13))
        msg = str(info.value)
        assert msg.startswith("momentum integral did not reach rel_tol")
        assert "; eta=1e-12, rel_tol=1e-13, err_est=" in msg

    def test_small_fixed_scale_is_only_a_map_scale(self):
        # a pinned kappa_max maps the whole half line; no tail model to reject
        r = force_exact(1.0, QuadratureSpec(kappa_max_policy=2.0))
        assert r.kappa_max == 2.0
        assert r.f_eta == pytest.approx(F_ETA_1, rel=1e-9)
        assert r.err_est <= 1e-9 * r.f_eta

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

    def test_grows_as_cutoff_descends(self):
        vals = [force_perturbative(1.0, 1.0, k) for k in (1.0, 0.1, 1e-2, 1e-3)]
        assert all(v1 > v0 > 0.0 for v0, v1 in zip(vals, vals[1:]))

    def test_vanishes_at_large_cutoff(self):
        assert 0.0 < force_perturbative(1.0, 1.0, 10.0) < 1e-2

    def test_domain_error_on_cutoff(self):
        with pytest.raises(DomainError):
            force_perturbative(1.0, 1.0, 0.0)
