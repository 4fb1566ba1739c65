"""Stress integrands and force integrals: cancellation laws, limits, pinned forces."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from casimir_plate import airy_engine, stress_kernel
from casimir_plate.airy_engine import Z_SWITCH, airy_eval
from casimir_plate.errors import DomainError, QuadratureSpec, ToleranceError
from casimir_plate.quadrature import _U, integrate_semi_infinite
from casimir_plate.stress_kernel import (
    _K0_MAX,
    _KAPPA_MAX,
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
    def test_net_vanishes_identically_at_eta_zero(self, kappa, monkeypatch):
        def refuse(z):
            raise AssertionError(f"Airy evaluation at {z!r}")

        # the algebraic path short-circuits; no Airy evaluations happen
        monkeypatch.setattr(stress_kernel, "_net_terms", refuse)
        net = integrand_net(kappa, 0.0)
        assert net == 0.0 and type(net) is float

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
            assert integrand_net(0.0, eta) == pytest.approx(
                -(v.aip / v.ai + v.bip / v.bi), rel=1e-12
            )

    def test_net_pinned_at_origin(self):
        assert integrand_net(0.0, 1.0) == pytest.approx(0.4040694310077221, rel=1e-12)

    def test_net_approaches_tail_model_shape(self):
        kappa, eta = 10.0, 1.0
        z2 = kappa**2 + eta ** (1.0 / 3.0)
        assert abs(integrand_net(kappa, eta) - 0.5 / z2) <= 2e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            integrand_above(-1.0, 1.0)
        with pytest.raises(DomainError):
            integrand_below(1.0, -2.0)

    @pytest.mark.parametrize("kappa", [3e51, 1e154, 1e155, 1e300])
    @pytest.mark.parametrize("sample", [integrand_above, integrand_below, integrand_net,
                                        tail_mismatch])
    def test_momentum_beyond_the_farthest_node_is_refused(self, sample, kappa):
        # refused before kappa is squared: no overflow warning, no nan, and
        # the message names kappa and the bound, the farthest node
        # force_exact evaluates
        assert _KAPPA_MAX == _K0_MAX * _U[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                sample(kappa, 1.0)
        assert str(info.value) == f"kappa must be <= {_KAPPA_MAX!r}, got {kappa!r}"

    def test_momentum_at_the_farthest_node_is_served(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = integrand_net(_KAPPA_MAX, 1.0)
        assert net == pytest.approx(0.5 / _KAPPA_MAX**2, rel=1e-12)

    @pytest.mark.parametrize("kappa", [_KAPPA_MAX, 1e20, 0.0])
    def test_largest_eta_is_served(self, kappa):
        # force_exact's bound on eta holds for the samples too: at it every
        # momentum up to the farthest node stays finite, and beyond it the
        # samples refuse eta (tests/test_errors.py)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sides = [f(kappa, stress_kernel._ETA_MAX)
                     for f in (integrand_above, integrand_below, integrand_net)]
        assert all(math.isfinite(v) for v in sides) and sides[2] > 0.0


class TestSinglePass:
    """A sample of the integrands is one _net_terms pass on z1 and z2 together."""

    def test_one_net_terms_pass_per_sample(self, monkeypatch):
        calls = []

        def terms(z):
            calls.append(z.tolist())
            return net_terms(z)

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
            assert calls == [[kappa * kappa, kappa * kappa + 1.0]]  # z1, z2 at eta = 1

    def test_one_kernel_call_on_103_ascending_nodes(self, monkeypatch):
        # eta = 1 at rel_tol 1e-9: the first level (h = 1/16, which holds
        # h = 1/8) already meets the tolerance, in one _net_above call and
        # one _net_terms pass on its z1 and z2, with no Airy call beside it
        momenta, calls = [], []

        def batch(kappa, eps):
            momenta.append(kappa.tolist())
            return net_above(kappa, eps)

        def terms(z):
            calls.append(z.tolist())
            return net_terms(z)

        def refuse(z):
            raise AssertionError(f"Airy evaluation outside _net_terms at {z!r}")

        net_above, net_terms = stress_kernel._net_above, stress_kernel._net_terms
        monkeypatch.setattr(stress_kernel, "_net_above", batch)
        monkeypatch.setattr(stress_kernel, "_net_terms", terms)
        monkeypatch.setattr(airy_engine, "airy_scaled", refuse)
        monkeypatch.setattr(airy_engine, "airy_eval", refuse)
        eta = 1.0
        r = force_exact(eta, QuadratureSpec(rel_tol=1e-9))
        assert len(momenta) == len(calls) == 1
        (kappa,), (z,) = momenta, calls
        assert len(kappa) == r.n_evals == 103
        assert all(k0 < k1 for k0, k1 in zip(kappa, kappa[1:]))  # no node repeated
        z1 = [k * k for k in kappa]
        assert z == z1 + [x + eta ** (1.0 / 3.0) for x in z1]

    def test_a_second_level_evaluates_only_the_new_odd_nodes(self, monkeypatch):
        # eta = 1e-3 at rel_tol 1e-9 needs h = 1/32: the second call holds
        # the 102 nodes between those of the first, and no node is repeated
        momenta = []

        def batch(kappa, eps):
            momenta.append(kappa.tolist())
            return net_above(kappa, eps)

        net_above = stress_kernel._net_above
        monkeypatch.setattr(stress_kernel, "_net_above", batch)
        r = force_exact(1e-3, QuadratureSpec(rel_tol=1e-9))
        first, second = momenta
        assert (len(first), len(second), r.n_evals) == (103, 102, 205)
        assert all(a < b < c for a, b, c in zip(first, second, first[1:]))

    @pytest.mark.parametrize("eta, kmax", [(1e-6, None), (1.0, 5.0), (1e9, None)])
    def test_no_scalar_airy_call(self, eta, kmax, monkeypatch):
        def scalar(z):
            raise AssertionError(f"scalar Airy evaluation at {z!r}")

        monkeypatch.setattr(airy_engine, "airy_eval", scalar)
        force_exact(eta, QuadratureSpec(kappa_max_policy=kmax))

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kappa_sq", [1.0, 10.0, 39.0, 39.99, 40.0, 41.0, 100.0])
    def test_below_is_above_plus_net(self, kappa_sq, eta):
        # z1 = kappa^2 on both sides of Z_SWITCH = 40: both Airy branches
        # serve; net is formed without the subtraction, below is read from it
        kappa = math.sqrt(kappa_sq)
        below, above, net = (f(kappa, eta) for f in (integrand_below, integrand_above, integrand_net))
        assert all(type(v) is float for v in (below, above, net))
        assert below == above + net

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
            # as listed, and reversed: momenta may arrive in any order
            for order in (kappa, kappa[::-1]):
                net, above = stress_kernel._net_above(np.array(order), eta ** (1.0 / 3.0))
                assert [integrand_net(k, eta) for k in order] == net.tolist(), order
                assert [integrand_above(k, eta) for k in order] == above.tolist(), order

    @staticmethod
    def mp_errors(kappa_sq, eta, digits=40):
        """Relative errors of (net, above, below) against mpmath; net as below - above there."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(digits):
            z1 = mp.mpf(kappa_sq)
            z2 = z1 + mp.cbrt(mp.mpf(eta))
            a1, ap1 = mp.airyai(z1), mp.airyai(z1, 1)
            b1, bp1 = mp.airybi(z1), mp.airybi(z1, 1)
            a2, ap2 = mp.airyai(z2), mp.airyai(z2, 1)
            b2, bp2 = mp.airybi(z2), mp.airybi(z2, 1)
            s = ap1 * b1 + a1 * bp1
            above = ap2 / a2
            below = (2 * a1 * ap1 * bp2 - ap2 * s) / (a2 * s - 2 * a1 * ap1 * b2)
        own = [f(math.sqrt(kappa_sq), eta) for f in (integrand_net, integrand_above, integrand_below)]
        return [float(abs(x - ref) / abs(ref))
                for x, ref in zip(own, (below - above, above, below))]

    @pytest.mark.parametrize("eta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kappa_sq", [0.0, 1.0, 10.0, 39.0, 39.99, 40.0, 41.0, 100.0, 1e4])
    def test_net_matches_mpmath_at_the_crossover(self, kappa_sq, eta):
        # net is worst at (39, 1e-3), 1.5e-13, and above at (40, 1e3), 4.9e-16
        assert max(self.mp_errors(kappa_sq, eta)) <= 1e-12

    @pytest.mark.parametrize("eta", [1e-6, 1e-4])
    @pytest.mark.parametrize("kappa_sq", [0.5, 1.0, 2.0625, 5.0625, 10.0625])
    def test_net_at_small_eps_matches_mpmath(self, kappa_sq, eta):
        # net is a difference of two O(1) terms down to eps ~ 0.01, so seeds
        # whose errors differ from node to node show where z1 and z2 = z1 + eps
        # take different nodes, as at 2.0625 (worst 1.9e-13, at (10.0625, 1e-6))
        assert max(self.mp_errors(kappa_sq, eta, digits=50)) <= 3e-12

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
        # Python floats: an np.float64 would print as np.float64(...) in JSON and CSV
        assert type(r.f_eta) is float and type(r.err_est) is float
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

    @pytest.mark.parametrize("rel_tol, cause", [
        # rounding alone: 10 u/eps is 2.2e+85 at eps = 1e-100
        (1e-9, "n_evals=0, cause: rounding"),
        # a tolerance that leaves a budget: the tiny integral rounds below 0
        (1e100, "n_evals=103, cause: value not positive"),
    ])
    def test_negative_force_names_the_input(self, rel_tol, cause):
        with pytest.raises(ToleranceError) as info:
            force_exact(1e-300, QuadratureSpec(rel_tol=rel_tol, kappa_max_policy=1.0))
        msg = str(info.value)
        assert f"{cause}); eta=1e-300, rel_tol={rel_tol!r}, err_est=" in msg
        assert msg.endswith(", k0=1.0")

    @pytest.mark.parametrize("eta, rel_tol", [(1e-8, 1e-12), (1e-30, 1e-9), (1e-12, 1e-13)])
    def test_rounding_over_rel_tol_refuses_before_integrating(self, monkeypatch, eta, rel_tol):
        def never(kappa, eps):
            raise AssertionError("the kernel was evaluated")

        monkeypatch.setattr(stress_kernel, "_net_above", never)
        with pytest.raises(ToleranceError) as info:
            force_exact(eta, QuadratureSpec(rel_tol=rel_tol))
        msg = str(info.value)
        assert msg.startswith("momentum integral did not reach rel_tol (n_evals=0, ")
        assert f"cause: rounding); eta={eta!r}, rel_tol={rel_tol!r}, err_est=" in msg

    def test_underflowing_pinned_scale_is_refused(self):
        # every node k0 u is 0 or subnormal: the integral is exactly 0 and,
        # unchecked, would meet rel_tol * 0 with err_est 0; f(1) is 0.1145
        with pytest.raises(ToleranceError) as info:
            force_exact(1.0, QuadratureSpec(kappa_max_policy=5e-324))
        msg = str(info.value)
        assert "cause: value not positive); eta=1.0, rel_tol=1e-09, err_est=" in msg
        assert msg.endswith(", k0=5e-324")

    def test_errors_name_the_part_that_missed(self, monkeypatch):
        cases = [
            # eps = 1e-4: 10 u/eps is 2.2e-11 of f, above rel_tol
            ((1e-12, QuadratureSpec(rel_tol=1e-13)), "rounding"),
            # a scale 1e10 puts the nearest node at kappa ~ 2e-7, where net
            # is still 0.4: the window cuts off 1e-7 of the integral
            ((1.0, QuadratureSpec(kappa_max_policy=1e10)), "window edge"),
        ]
        for args, part in cases:
            with pytest.raises(ToleranceError, match=f"cause: {part}\\); eta="):
                force_exact(*args)
        # an integrand no level resolves: |sin(kappa)| has a kink at every pi
        monkeypatch.setattr(stress_kernel, "_net_above",
                            lambda k, eps: (np.abs(np.sin(k)) / (1.0 + k * k), None))
        with pytest.raises(ToleranceError, match="n_evals=819, cause: level difference"):
            force_exact(1.0)

    def test_pinned_scale_bound(self):
        # just below the bound the farthest node's zeta^2 stays finite: an
        # answer or a ToleranceError, never an overflow warning; above it
        # force_exact refuses, naming eta, the scale and the bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match="window edge"):
                force_exact(1.0, QuadratureSpec(kappa_max_policy=_K0_MAX))
        k0 = math.nextafter(_K0_MAX, math.inf)
        spec = QuadratureSpec(kappa_max_policy=k0)
        with pytest.raises(DomainError, match=re.escape(f"eta=1.0 with k0={k0!r} is out of range "
                                                        f"(k0 <= {_K0_MAX!r}")):
            force_exact(1.0, spec)

    @pytest.mark.parametrize("eta", [1e-105, 1e208, 1e300])
    def test_eta_whose_scale_would_overflow_is_a_domain_error(self, eta):
        with pytest.raises(DomainError, match=re.escape(f"eta={eta!r} with k0=")):
            force_exact(eta)

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

    def test_every_answered_decade_matches_mpmath(self):
        # one integral on t = 2 K a serves every a: every tenth decade from
        # _A_MIN up, and _A_MAX itself, within 4e-16 of -pi/(24 a^2)
        mp = pytest.importorskip("mpmath")
        seps = [stress_kernel._A_MIN * 10.0 ** (10 * k) for k in range(31)]
        with mp.workdps(40):
            for a in seps + [stress_kernel._A_MAX]:
                ref = -mp.pi / (24 * mp.mpf(a) ** 2)
                assert abs((mp.mpf(force_classic(a)) - ref) / ref) <= 4e-16, a

    def test_refusal_names_its_inputs(self):
        # below 2e-17 relative the window's edge alone misses the tolerance
        with pytest.raises(ToleranceError) as info:
            force_classic(1e-10, 1e-18)
        assert "; a=1e-10, rel_tol=1e-18, err_est=" in str(info.value)

    @pytest.mark.parametrize("a", [1e-300, 5e-324, 2.6984323550097483e-155,
                                   2.4254766597456885e+153, 1e160, 1.7976931348623157e308])
    def test_separation_whose_force_is_not_a_normal_float_is_refused(self, a):
        # -pi/(24 a^2) is -inf below 2.6984323550097488e-155 and subnormal
        # above 2.425476659745688e+153: refused before any node is evaluated,
        # with no overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                force_classic(a)
        assert str(info.value).startswith(
            "plate separation a must be in [2.6984323550097488e-155, 2.425476659745688e+153]")
        assert str(info.value).endswith(f", got {a!r}")
        force = -math.pi / 24.0 / a / a
        assert math.isinf(force) or -force < sys.float_info.min


class TestPerturbative:
    def test_free_field_limit(self):
        below, above, net = perturbative_integrands(0.5, 1.0, 0.0)
        assert below == -0.5 and above == -0.5 and net == 0.0
        assert force_perturbative(1.0, 0.0, 1e-2) == 0.0

    def test_infrared_divergence_shape(self):
        # net*K/(a*b) -> 1 as K -> 0, the log-divergent density
        for K in (1e-8, 1e-6, 1e-4):
            _, _, net = perturbative_integrands(K, 1.0, 1.0)
            assert abs(K * net - 1.0) <= 2.0 * K + 1e-12

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

    def test_e1_matches_mpmath(self):
        # a log grid over the series and the continued fraction, and the
        # switch between them at c = 1
        mp = pytest.importorskip("mpmath")
        grid = np.concatenate((np.logspace(-320, math.log10(700.0), 331), np.linspace(0.9, 1.1, 21)))
        with mp.workdps(40):
            for c in grid.tolist():
                ref = mp.e1(mp.mpf(c))
                assert abs((mp.mpf(stress_kernel._e1(c)) - ref) / ref) <= 5e-16, c

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.3, 2.7), (1e-10, 1.0)])
    def test_matches_mpmath_down_to_the_smallest_cutoff(self, a, b):
        # (a b / 2 pi) [(1 - e^{-c})/c + E1(c)] at 40 digits; at a = 0.3 and
        # 1e-10 the smallest cutoffs make c = 2 a k_min lose bits or vanish
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for k_min in (5e-324, 1e-300, 1e-40, 1e-18, 1e-10, 1e-6, 1e-3, 1e-2, 0.1, 1.0, 10.0,
                          300.0):
                c = 2 * mp.mpf(a) * mp.mpf(k_min)
                ref = mp.mpf(a) * b / (2 * mp.pi) * (-mp.expm1(-c) / c + mp.e1(c))
                assert abs((mp.mpf(force_perturbative(a, b, k_min)) - ref) / ref) <= 1e-15, k_min

    @pytest.mark.parametrize("k_min", [1e-3, 1e-2, 0.1, 1.0, 10.0])
    def test_closed_form_agrees_with_the_quadrature_route(self, k_min):
        # the route the closed form replaced, kept here as a reference: the
        # net integrand over K = k_min + u on the exp-sinh rule
        def net(us):
            return [perturbative_integrands(k_min + u, 1.0, 1.0)[2] / (2.0 * math.pi)
                    for u in us.tolist()]

        r = integrate_semi_infinite(net)
        assert r.converged
        assert abs(force_perturbative(1.0, 1.0, k_min) - r.value) <= r.err_est

    def test_deep_ir_step_is_ln2_over_2pi(self):
        # far below 1/a each halving adds (a b / 2 pi) ln 2, down to the
        # smallest float
        step = math.log(2.0) / (2.0 * math.pi)
        for k_min in (1e-10, 1e-100, 1e-300, 1e-323):
            inc = force_perturbative(1.0, 1.0, k_min / 2.0) - force_perturbative(1.0, 1.0, k_min)
            assert inc == pytest.approx(step, rel=1e-9), k_min
