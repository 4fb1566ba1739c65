"""Airy evaluation layer: closed-form anchors, scaling identities, oracle cross-checks."""

import math
import random
import types

import numpy as np
import pytest
import scipy.integrate
from scipy.special import airye

from casimir_plate import airy_engine
from casimir_plate.airy_engine import (
    airy_eval,
    airy_scaled,
    airy_via_ode_oracle,
    log_deriv_ai,
    log_deriv_bi,
    zeta_gap,
    zeta_of,
)
from casimir_plate.errors import DomainError, OracleError

# Values at z=0 in closed form (Gamma-function expressions).
AI0 = 1.0 / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
AIP0 = -1.0 / (3.0 ** (1.0 / 3.0) * math.gamma(1.0 / 3.0))
BI0 = 1.0 / (3.0 ** (1.0 / 6.0) * math.gamma(2.0 / 3.0))
BIP0 = 3.0 ** (1.0 / 6.0) / math.gamma(1.0 / 3.0)

# Frozen from the ODE oracle (downward integration for Ai, upward for Bi),
# run once and pinned; the oracle itself is re-run in the tests below.
ORACLE_AI_1 = 0.13529241631264355
ORACLE_AIP_1 = -0.1591474412965139
ORACLE_BI_1 = 1.2074235949528764
ORACLE_BIP_1 = 0.9324359333927865


def rel(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


class TestClosedFormAnchors:
    def test_values_at_zero(self):
        v = airy_eval(0.0)
        assert v.ai == pytest.approx(AI0, rel=1e-14)
        assert v.aip == pytest.approx(AIP0, rel=1e-14)
        assert v.bi == pytest.approx(BI0, rel=1e-14)
        assert v.bip == pytest.approx(BIP0, rel=1e-14)
        assert v.zeta == 0.0

    def test_scaled_equal_raw_at_zero(self):
        v = airy_eval(0.0)
        assert v.ai_s == v.ai
        assert v.bip_s == v.bip

    def test_known_value_at_one(self):
        v = airy_eval(1.0)
        assert v.ai == pytest.approx(0.1352924163, rel=1e-9)
        assert v.bi == pytest.approx(1.2074235950, rel=1e-9)

    def test_raw_wronskian_at_25(self):
        # raw products are still representable here (zeta ~ 83)
        v = airy_eval(25.0)
        w = v.ai * v.bip - v.aip * v.bi
        assert abs(w - 1.0 / math.pi) <= 1e-12


class TestScaledForm:
    def test_raw_fields_saturate_without_nan(self):
        v = airy_eval(1e4)
        assert v.ai == 0.0  # underflow, by design
        assert v.bi == math.inf  # overflow, by design
        assert not math.isnan(v.ai_s)
        assert not math.isnan(v.bi_s)


class TestLogDerivatives:
    def test_value_at_zero(self):
        assert log_deriv_ai(0.0) == pytest.approx(AIP0 / AI0, rel=1e-13)
        assert log_deriv_bi(0.0) == pytest.approx(BIP0 / BI0, rel=1e-13)

    def test_matches_plain_ratio_at_one(self):
        v = airy_eval(1.0)
        assert log_deriv_ai(1.0) == v.aip / v.ai

    def test_signs(self):
        for z in (0.0, 0.3, 1.0, 10.0, 1e3):
            assert log_deriv_ai(z) < 0.0
            assert log_deriv_bi(z) > 0.0


class TestZeta:
    def test_zeta_of(self):
        assert zeta_of(0.0) == 0.0
        assert zeta_of(4.0) == pytest.approx((2.0 / 3.0) * 8.0, rel=1e-15)

    def test_gap_matches_difference(self):
        for lo, hi in ((0.0, 1.0), (1.0, 4.0), (10.0, 11.0), (100.0, 101.0)):
            assert zeta_gap(hi, lo) == pytest.approx(zeta_of(hi) - zeta_of(lo), rel=1e-12)

    def test_gap_conditioning_at_close_arguments(self):
        # naive subtraction of two ~6.7e5 zetas would lose ten digits here
        z = 1e4
        z_hi = z + 1e-6
        d = z_hi - z  # the exactly representable increment
        assert zeta_gap(z_hi, z) == pytest.approx(d * math.sqrt(z), rel=1e-9)

    def test_gap_zero_and_ordering(self):
        assert zeta_gap(3.0, 3.0) == 0.0
        with pytest.raises(DomainError):
            zeta_gap(1.0, 2.0)


class TestArrayEvaluator:
    # float.hex of (ai_s, aip_s, bi_s, bip_s) from the per-argument scalar
    # evaluator that airy_scaled replaced, one argument at a time
    SCALAR = {
        0.0: ("0x1.6b8c7962715b8p-2", "-0x1.0907f42b70f8bp-2", "0x1.3ad7a9b4a3ea9p-1", "0x1.cb0c1a680c8a1p-2"),
        1.0: ("0x1.0dd68558fd413p-2", "-0x1.3d6a94e267aa1p-2", "0x1.3d65192816c26p-1", "0x1.ea37d289a30ecp-2"),
        39.99: ("0x1.cb4abb10d37e4p-4", "-0x1.6b6a2f19934e8p-1", "0x1.cbaba2ccf5c7cp-3", "0x1.6afef181fec48p+0"),
        40.0: ("0x1.cb4366404dfddp-4", "-0x1.6b6ffac2638c6p-1", "0x1.cba4432224211p-3", "0x1.6b04c5bf1bbb8p+0"),
        41.0: ("0x1.c871968ee45f4p-4", "-0x1.6dae27b38abffp-1", "0x1.c8ce5ab45e6f1p-3", "0x1.6d4634e39ed84p+0"),
        1e3: ("0x1.9af1e419aaad6p-5", "-0x1.961a9194c7ed1p+0", "0x1.9af29587658a0p-4", "0x1.96199c1bfa48ap+1"),
        1e6: ("0x1.244f96d340c66p-7", "-0x1.1d75b94b7fc45p+3", "0x1.244f96d446548p-6", "0x1.1d75b94a1a2bfp+4"),
        1e12: ("0x1.27cc3e7b0bfedp-12", "-0x1.1a18444610bc8p+8", "0x1.27cc3e7b0bfedp-11", "0x1.1a18444610bc8p+9"),
        1e20: ("0x1.7a9f084b94795p-19", "-0x1.b8c5eaad7a269p+14", "0x1.7a9f084b94795p-18", "0x1.b8c5eaad7a269p+15"),
    }

    def test_mixed_array_equals_scalar_bits(self):
        # both branches in one call; z = 40 (the slowest series element) sets
        # the number of terms for every other series element
        zs = list(self.SCALAR)
        got = airy_scaled(np.array(zs))
        assert got.shape == (4, len(zs))
        for i, z in enumerate(zs):
            assert tuple(v.hex() for v in got[:, i].tolist()) == self.SCALAR[z], z

    def test_airy_eval_reads_the_same_values(self):
        for z, bits in self.SCALAR.items():
            v = airy_eval(z)
            assert tuple(x.hex() for x in (v.ai_s, v.aip_s, v.bi_s, v.bip_s)) == bits

    def test_net_terms_read_the_same_values(self):
        # z1 and z2 = z1 + 0.5 on both sides of Z_SWITCH: 39.99 -> 40.49
        # straddles it, and z1 = 40 sets the series' stop order for the batch
        z1 = np.array(list(self.SCALAR))
        z2 = z1 + 0.5
        t = airy_engine._net_terms(z1, z2)
        n = z1.size
        for i, z in enumerate(z1.tolist()):
            assert tuple(v.hex() for v in t[:3, i].tolist()) == self.SCALAR[z][:3], z
        for i, z in enumerate(z2.tolist()):
            assert t[:3, n + i].tolist() == airy_scaled(np.array([z]))[:3, 0].tolist(), z

    @pytest.mark.parametrize("z", [1.0, 39.99, 40.0, 41.0, 1e3])
    def test_net_terms_products_match_mpmath(self, z):
        # S = Ai' Bi + Ai Bi' at z1, -(Ai Bi)'/(Ai Bi) at z2: formed from
        # the values below Z_SWITCH, where they cancel (2.5e-13 at 39.99),
        # and from the product series at or above it
        mp = pytest.importorskip("mpmath")
        s_got, lnd_got = airy_engine._net_terms(np.array([z]), np.array([z]))[3].tolist()
        bound = 1e-12 if z < airy_engine.Z_SWITCH else 1e-15
        with mp.workdps(40):
            x = mp.mpf(z)
            a, ap, b, bp = mp.airyai(x), mp.airyai(x, 1), mp.airybi(x), mp.airybi(x, 1)
            s = ap * b + a * bp
            assert rel(s_got, float(s)) <= bound
            assert rel(lnd_got, float(-s / (a * b))) <= bound

    @pytest.mark.parametrize("bad", [[1.0, -1.0], [math.nan], [0.0, math.inf], [[1.0]]])
    def test_rejects_bad_arrays(self, bad):
        with pytest.raises(DomainError):
            airy_scaled(np.array(bad))


class TestDomain:
    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(DomainError):
            airy_eval(bad)


class TestOdeOracle:
    def test_initial_conditions_reproduced(self):
        v = airy_via_ode_oracle(0.0)
        assert v.ai == pytest.approx(AI0, rel=1e-11)
        assert v.bi == pytest.approx(BI0, rel=1e-11)

    def test_oracle_values_at_one(self):
        v = airy_via_ode_oracle(1.0)
        assert v.ai == pytest.approx(ORACLE_AI_1, rel=1e-12)
        assert v.aip == pytest.approx(ORACLE_AIP_1, rel=1e-12)
        assert v.bi == pytest.approx(ORACLE_BI_1, rel=1e-12)
        assert v.bip == pytest.approx(ORACLE_BIP_1, rel=1e-12)

    def test_oracle_wronskian_at_ten(self):
        v = airy_via_ode_oracle(10.0)
        w = v.ai * v.bip - v.aip * v.bi
        assert abs(w - 1.0 / math.pi) <= 1e-9

    def test_engine_matches_oracle_on_unit_interval_grid(self):
        worst = 0.0
        for z in np.linspace(0.0, 10.0, 41):
            ref = airy_via_ode_oracle(float(z))
            got = airy_eval(float(z))
            for g, r in ((got.ai, ref.ai), (got.aip, ref.aip),
                         (got.bi, ref.bi), (got.bip, ref.bip)):
                worst = max(worst, rel(g, r))
        assert worst <= 1e-10

    def test_matches_mpmath_at_seeded_points(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261018)
        worst = 0.0
        with mp.workdps(30):
            for z in [rng.uniform(0.0, 50.0) for _ in range(50)]:
                v = airy_via_ode_oracle(z)
                refs = (mp.airyai(z), mp.airyai(z, 1), mp.airybi(z), mp.airybi(z, 1))
                for got, ref in zip((v.ai, v.aip, v.bi, v.bip), refs):
                    worst = max(worst, float(abs((got - ref) / ref)))
        assert worst <= 1e-11

    def test_range_ends_return_their_anchors(self):
        v = airy_via_ode_oracle(0.0)
        anchors = (airy_engine.AI_ZERO, airy_engine.AIP_ZERO, airy_engine.BI_ZERO, airy_engine.BIP_ZERO)
        assert (v.ai, v.aip, v.bi, v.bip) == anchors
        # the Ai seed: scipy's scaled values at 50, unscaled
        e = math.exp(-zeta_of(50.0))
        v = airy_via_ode_oracle(50.0)
        assert (v.ai, v.aip) == tuple(float(x) * e for x in airye(50.0)[:2])


class TestOdeTrajectories:
    """The oracle integrates each trajectory once per process and reuses it."""

    @pytest.fixture
    def solver(self, monkeypatch):
        # starts from an empty cache; records each solve_ivp span, and makes
        # every integration report failure while .fail is set
        airy_engine._trajectories.cache_clear()
        real = scipy.integrate.solve_ivp
        log = types.SimpleNamespace(spans=[], fail=False)

        def wrapped(fun, t_span, *args, **kwargs):
            log.spans.append(tuple(t_span))
            sol = real(fun, t_span, *args, **kwargs)
            if log.fail:
                sol.success, sol.message = False, "step size underflow"
            return sol

        monkeypatch.setattr(scipy.integrate, "solve_ivp", wrapped)
        return log

    def test_two_integrations_serve_every_call(self, solver):
        for z in (0.5, 3.0, 17.0, 39.9, 41.0, 49.0, 3.0):
            airy_via_ode_oracle(z)
        assert solver.spans == [(0.0, 50.0), (50.0, 0.0)]

    def test_failed_integration_raises_and_caches_nothing(self, solver):
        solver.fail = True
        with pytest.raises(OracleError, match="step size underflow"):
            airy_via_ode_oracle(1.0)
        solver.fail = False
        solver.spans.clear()
        v = airy_via_ode_oracle(1.0)
        assert solver.spans == [(0.0, 50.0), (50.0, 0.0)]
        assert v.ai == pytest.approx(ORACLE_AI_1, rel=1e-12)

    def test_seed_does_not_read_the_asymptotic_series(self, solver, monkeypatch):
        # the series serves airy_eval above Z_SWITCH; a seed from it would
        # make the oracle agree with the engine there by construction
        def refuse(z):
            raise AssertionError("the ODE oracle read the asymptotic series")

        monkeypatch.setattr(airy_engine, "_asymptotic_scaled", refuse)
        v = airy_via_ode_oracle(45.0)
        assert solver.spans == [(0.0, 50.0), (50.0, 0.0)]
        assert v.ai_s > 0.0
