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
    Z_SWITCH,
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z_hi, z_lo, name, bad", [
        (math.nan, 1.0, "z_hi", "nan"), (1.0, math.nan, "z_lo", "nan"),
        (-1.0, -2.0, "z_hi", "-1.0"), (1.0, -0.5, "z_lo", "-0.5"),
        (math.inf, 1.0, "z_hi", "inf"), (np.array([2.0, np.nan]), 1.0, "z_hi", "nan"),
    ])
    def test_gap_names_a_bad_argument(self, z_hi, z_lo, name, bad):
        # the where= mask once hid a NaN (0.0) and a negative gave nan
        with pytest.raises(DomainError, match=f"{name} must be finite and >= 0, got {bad}$"):
            zeta_gap(z_hi, z_lo)


class TestArrayEvaluator:
    # float.hex of (ai_s, aip_s, bi_s, bip_s), one argument at a time: at
    # the table nodes 0 and 1 the seeds (at 0 the closed forms; 0.3-1.5 u
    # from 40-digit mpmath), at 39.99 the Taylor table's (6.6-7.8 u), at
    # and above Z_SWITCH the asymptotic series'
    SCALAR = {
        0.0: ("0x1.6b8c7962715b9p-2", "-0x1.0907f42b70f8bp-2", "0x1.3ad7a9b4a3ea9p-1", "0x1.cb0c1a680c8a0p-2"),
        1.0: ("0x1.0dd68558fd413p-2", "-0x1.3d6a94e267aa2p-2", "0x1.3d65192816c24p-1", "0x1.ea37d289a30ebp-2"),
        39.99: ("0x1.cb4abb10d37f1p-4", "-0x1.6b6a2f19934efp-1", "0x1.cbaba2ccf5c6fp-3", "0x1.6afef181fec3ep+0"),
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
        # z and z + 0.5 in one array, on both sides of Z_SWITCH: 39.99 ->
        # 40.49 straddles it, and z = 40 sets the series' stop order
        zs = list(self.SCALAR) + [z + 0.5 for z in self.SCALAR]
        t = airy_engine._net_terms(np.array(zs))
        assert t.shape == (5, len(zs))
        for i, z in enumerate(zs):
            assert t[:3, i].tolist() == airy_scaled(np.array([z]))[:3, 0].tolist(), z
            if z in self.SCALAR:
                assert tuple(v.hex() for v in t[:3, i].tolist()) == self.SCALAR[z][:3], z

    @pytest.mark.parametrize("branches", [("table",), ("series",), ("table", "series")],
                             ids=["table", "series", "mixed"])
    def test_net_terms_take_any_order(self, branches):
        # every column of a shuffled array carries the bits of its element's
        # one-element call; repeated elements, 0 and Z_SWITCH itself (which
        # the series serves) join the arrays of their branch
        rng = random.Random(11)

        def draw(branch):
            return rng.uniform(0.0, 39.99) if branch == "table" else Z_SWITCH * math.exp(rng.uniform(0.0, 40.0))

        ends = {"table": 0.0, "series": Z_SWITCH}
        for _ in range(25):
            zs = [draw(rng.choice(branches)) for _ in range(rng.randint(1, 40))]
            zs += zs[:2] + [ends[b] for b in branches]
            rng.shuffle(zs)
            t = airy_engine._net_terms(np.array(zs))
            assert t.shape == (5, len(zs))
            for i, z in enumerate(zs):
                assert t[:, i].tolist() == airy_engine._net_terms(np.array([z]))[:, 0].tolist(), z

    @pytest.mark.parametrize("z", [1.0, 39.99, 40.0, 41.0, 1e3])
    def test_net_terms_products_match_mpmath(self, z):
        # S = Ai' Bi + Ai Bi' at z1, -(Ai Bi)'/(Ai Bi) at z2: formed from
        # the values below Z_SWITCH, where they cancel (5.9e-14 at 39.99),
        # and from the product series at or above it
        mp = pytest.importorskip("mpmath")
        s_got, lnd_got = airy_engine._net_terms(np.array([z]))[3:, 0].tolist()
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
        with pytest.raises(DomainError):
            airy_engine._net_terms(np.array(bad))


def _seeded_mp(z, seed, zj):
    """Scaled rows at z of the exact solutions through the seeds at node zj, in mpmath.

    The Taylor series of each solution about zj, summed to 30 orders, and
    the exact e^{+-(zeta(z) - zeta(zj))}: what the table would return with
    no truncation and no rounding after its seeds.
    """
    mp = pytest.importorskip("mpmath")
    d = mp.mpf(z) - zj
    rows = []
    for w0, w1 in ((seed[0], seed[1]), (seed[2], seed[3])):
        c = [mp.mpf(w0), mp.mpf(w1), zj * mp.mpf(w0) / 2]
        for n in range(1, 30):
            c.append((zj * c[n] + c[n - 1]) / ((n + 2) * (n + 1)))
        rows += [mp.fsum(cn * d**n for n, cn in enumerate(c)),
                 mp.fsum(n * cn * d ** (n - 1) for n, cn in enumerate(c) if n)]
    e = mp.exp(mp.mpf(2) / 3 * (mp.mpf(z) ** 1.5 - mp.mpf(zj) ** 1.5))
    return [rows[0] * e, rows[1] * e, rows[2] / e, rows[3] / e]


def _mp_scaled(z):
    """(ai_s, aip_s, bi_s, bip_s) at z in mpmath, at the working precision."""
    mp = pytest.importorskip("mpmath")
    x = mp.mpf(z)
    e = mp.exp(mp.mpf(2) / 3 * x**1.5)
    return (mp.airyai(x) * e, mp.airyai(x, 1) * e, mp.airybi(x) / e, mp.airybi(x, 1) / e)


U = 2.0**-52


class TestMarch:
    """The seeds of the Taylor table, carried node to node along w'' = z w."""

    def test_downward_march_lands_on_the_closed_forms(self):
        # Ai starts from the series at Z_SWITCH and ends at z = 0 (10.0 and 9.5 u)
        ai, aip = airy_engine._march()[:2, 0].tolist()
        assert abs(ai / airy_engine.AI_ZERO - 1.0) <= 16.0 * U
        assert abs(aip / airy_engine.AIP_ZERO - 1.0) <= 16.0 * U

    def test_upward_march_reaches_the_series(self):
        # Bi starts from the closed forms at 0 and ends at Z_SWITCH (6.5 u both)
        bi, bip = airy_engine._march()[2:, -1].tolist()
        s_bi, s_bip = airy_engine._asymptotic_scaled(np.array([airy_engine.Z_SWITCH]))[2:, 0].tolist()
        assert abs(bi / s_bi - 1.0) <= 16.0 * U
        assert abs(bip / s_bip - 1.0) <= 16.0 * U

    def test_starts_are_the_closed_forms_and_the_series(self):
        march = airy_engine._march()
        assert march[2:, 0].tolist() == [airy_engine.BI_ZERO, airy_engine.BIP_ZERO]
        series = airy_engine._asymptotic_scaled(np.array([airy_engine.Z_SWITCH]))
        assert march[:2, -1].tolist() == series[:2, 0].tolist()

    def test_wronskian_rescale_is_a_small_correction(self):
        # the march's Wronskian is 5.5-15 u low at every node; the seeds'
        # is 1/pi to a rounding
        for seeds, bound in ((airy_engine._march(), 32.0), (airy_engine._seeds(), 2.0)):
            ai, aip, bi, bip = seeds
            assert np.max(np.abs(math.pi * (ai * bip - aip * bi) - 1.0)) <= bound * U

    def test_every_node_against_mpmath(self):
        # the march within 12.4, 12.3, 6.3 and 7.0 u, the seeds within 7.5,
        # 7.2, 6.3 and 7.0 u
        mp = pytest.importorskip("mpmath")
        march, seeds = airy_engine._march(), airy_engine._seeds()
        with mp.workdps(40):
            for j in range(seeds.shape[1]):
                for r, ref in enumerate(_mp_scaled(j / 8.0)):
                    for got in (march[r, j], seeds[r, j]):
                        assert abs(got - ref) <= 32.0 * U * abs(ref), (j, r)


class TestTaylorTable:
    """The Taylor table that serves every argument below Z_SWITCH."""

    def test_accuracy_against_mpmath(self):
        # seeded off-node points, cell edges (|z - z_j| = 1/16, the largest)
        # and both sides of Z_SWITCH, against 40-digit mpmath: within 1e-13,
        # and at most 8 u further from it than the table's seeds carry to z
        # (at or above Z_SWITCH, than airye there)
        mp = pytest.importorskip("mpmath")
        rng = random.Random(20261018)
        seeds = airy_engine._seeds()
        zs = [rng.uniform(0.0, 40.0) for _ in range(500)] + [j / 8.0 + 1.0 / 16.0 for j in range(0, 320, 8)]
        zs += [1e-300, 39.9375, math.nextafter(40.0, 0.0), 40.0, 40.0 + 1.0 / 16.0, 41.0]
        got = airy_scaled(np.array(sorted(zs)))
        with mp.workdps(40):
            for i, z in enumerate(sorted(zs)):
                ref = _mp_scaled(z)
                if z < airy_engine.Z_SWITCH:
                    j = round(8.0 * z)
                    carried = _seeded_mp(z, seeds[:, j].tolist(), mp.mpf(j) / 8)
                else:
                    carried = [mp.mpf(float(v)) for v in airye(z)]
                for r in range(4):
                    err = abs(got[r, i] - ref[r]) / abs(ref[r])
                    assert err <= 1e-13, (z, r)
                    assert err <= abs(carried[r] - ref[r]) / abs(ref[r]) + 8.0 * U, (z, r)

    def test_nodes_return_the_seeds(self):
        nodes = np.arange(320) / 8.0  # 40 is the series'; the table's last node serves [39.9375, 40)
        assert (airy_scaled(nodes) == airy_engine._seeds()[:, :320]).all()

    def test_bits_do_not_depend_on_the_batch(self):
        # both sides of every 16th cell edge, seeded draws, the switch
        rng = random.Random(7)
        edges = [j / 8.0 + 1.0 / 16.0 for j in range(0, 320, 16)]
        zs = [math.nextafter(e, s) for e in edges for s in (0.0, 50.0)] + edges
        zs += [rng.uniform(0.0, 45.0) for _ in range(200)] + [0.0, 39.99, 40.0]
        batch = airy_scaled(np.array(zs))
        for i, z in enumerate(zs):
            assert batch[:, i].tolist() == airy_scaled(np.array([z]))[:, 0].tolist(), z
        t = airy_engine._net_terms(np.array(zs))
        for i, z in enumerate(zs):
            assert t[:, i].tolist() == airy_engine._net_terms(np.array([z]))[:, 0].tolist(), z


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
        # a quarter step, shifted by 1/16 onto cell edges of the Taylor table,
        # where d = z - z_j is largest (a node returns its seed)
        worst = 0.0
        for z in np.linspace(0.0, 10.0, 41) + 1.0 / 16.0:
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
