"""Self-check suites wired to the command line as `verify --suite ...`.

Each suite re-tests the invariants that make the physics trustworthy:
special-function identities, Green's function boundary structure, and the
consistency web between the closed forms, the stress integrands, and the
finite-difference oracle.  ``CHECKS`` is their one table (suite, name,
measure, threshold); a check passes when measure() <= threshold, a yes/no
invariant counts its violations against threshold 0, and the test suite
runs every row, so each threshold lives here only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import airye

from . import airy_engine as ae
from . import greens as gr
from . import oracle_ode as oo
from . import stress_kernel as sk
from .errors import DomainError

__all__ = ["Check", "CheckResult", "CHECKS", "integrand_from_greens", "suite_airy",
           "suite_greens", "suite_stress", "run", "SUITES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """One row of CHECKS: passes when measure() <= threshold."""

    suite: str
    name: str
    measure: Callable[[], float]
    threshold: float
    detail: str = ""

    def run(self) -> CheckResult:
        # numpy scalars and violation counts become plain floats for JSON
        m, t = float(self.measure()), float(self.threshold)
        return CheckResult(self.name, m <= t, m, t, self.detail)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0.0 else abs(x)


# ---------------------------------------------------------------------------
# Cross-construction probe: stress integrand re-extracted from the Green's
# functions themselves.


def integrand_from_greens(kappa: float, cfg: gr.PlateConfig, side: str) -> float:
    """Coincident-limit stress integrand rebuilt from the closed-form G.

    The extraction of oracle_ode.integrand_from_fd (plate derivative with
    the source eps and 2 eps away, analytic removal of the linear eps term,
    one Richardson step), but with G sampled from greens_linear_above/below
    instead of a band solve.  integrand_below is above + net, so agreement
    with integrand_above/below tests the production net formula against
    the Green's functions, with no shared algebra beyond the Airy engine.
    """
    _, away = oo._plate_side(side)
    greens = gr.greens_linear_above if away > 0.0 else gr.greens_linear_below
    # one greens call serves the 5-point plate derivative of both sources,
    # sampled plate-first in steps of eps/8 toward them
    eps = 0.003 / math.sqrt(oo._q_plate(kappa, cfg))
    e = np.array([eps, 2.0 * eps])
    h = eps / 8.0
    g = greens(cfg.a + np.arange(5.0)[:, None] * (away * h), cfg.a + away * e, kappa, cfg)
    return oo._plate_integrand(g, h, e, kappa, cfg)


# ---------------------------------------------------------------------------
# Measures: each returns the number its row compares with the threshold.


def _wronskian_scaled_grid() -> float:
    ai, aip, bi, bip = ae.airy_scaled(np.concatenate(([0.0], np.logspace(-3.0, 4.0, 120))))
    return np.max(np.abs(math.pi * (ai * bip - aip * bi) - 1.0))


def _ai_decreasing_bi_increasing() -> int:
    zs = np.linspace(0.0, 30.0, 601)
    ai_s, _, bi_s, _ = ae.airy_scaled(zs)
    zeta = ae.zeta_of(zs)
    ai, bi = ai_s * np.exp(-zeta), bi_s * np.exp(zeta)
    return np.sum(~((0.0 < ai[1:]) & (ai[1:] < ai[:-1]) & (bi[1:] > bi[:-1]) & (bi[:-1] > 0.0)))


# 1/16 moves a grid of halves off the Taylor table's nodes j/8, onto cell
# edges, where a node's own value (airye's bits) cannot answer for the table
_OFF_NODE = 1.0 / 16.0


def _asymptotic_series_switch_band() -> float:
    # the series and the dispatching evaluator against the library, in a
    # band around the switch where both branches are accurate
    band = np.linspace(ae.Z_SWITCH - 4.0, ae.Z_SWITCH + 4.0, 17) + _OFF_NODE
    lib = np.array(airye(band))
    return max(np.max(np.abs(own - lib) / np.abs(lib))
               for own in (ae._asymptotic_scaled(band), ae.airy_scaled(band)))


def _product_series_switch_band() -> float:
    # -(Ai Bi)'/(Ai Bi) and Ai' Bi + Ai Bi' from the product series against
    # the same quantities formed from the library's quadruple, whose own
    # cancellation (about 2 z^{3/2} ulp) sets the threshold
    band = np.linspace(ae.Z_SWITCH - 4.0, ae.Z_SWITCH + 4.0, 17)
    ai, aip, bi, bip = airye(band)
    lib = (-(aip / ai + bip / bi), aip * bi + ai * bip)
    return max(np.max(np.abs(own - ref) / np.abs(ref))
               for own, ref in zip(ae._product_series(band, ae.zeta_of(band)), lib))


def _eval_vs_ode_oracle() -> float:
    # the whole oracle range, so the series branch above Z_SWITCH is covered;
    # the ends stay, the closed forms at 0 and the oracle's Ai seed at 50
    zs = np.linspace(0.0, 50.0, 101)
    zs[1:-1] += _OFF_NODE
    oracle = np.array([[o.ai_s, o.aip_s, o.bi_s, o.bip_s]
                       for o in map(ae.airy_via_ode_oracle, zs)]).T
    return np.max(np.abs(ae.airy_scaled(zs) - oracle) / np.abs(oracle))


def _log_deriv_asymptotics() -> float:
    return max(max(abs(ae.log_deriv_ai(z) + math.sqrt(z) + 0.25 / z),
                   abs(ae.log_deriv_bi(z) - math.sqrt(z) + 0.25 / z)) / (10.0 / z**2.5)
               for z in (50.0, 100.0, 400.0, 1e3, 1600.0, 1e4))


def _scaled_values_finite_to_1e4() -> int:
    # finite with the signs of Ai, Ai', Bi, Bi' (NaN fails every comparison)
    ai, aip, bi, bip = ae.airy_scaled(np.logspace(-2.0, 4.0, 40))
    return np.sum(~((0.0 < ai) & (ai < math.inf) & (-math.inf < aip) & (aip < 0.0)
                    & (0.0 < bi) & (bi < math.inf) & (0.0 < bip) & (bip < math.inf)))


_CFG1 = gr.PlateConfig(a=1.0, b=1.0)


def _dirichlet_zeros() -> float:
    return max(abs(v) for v in (
        gr.greens_free_between(0.8, 0.0, 1.3, 2.0),
        gr.greens_free_between(2.0, 0.7, 1.3, 2.0),
        gr.greens_free_above(1.0, 1.9, 1.3, 1.0),
        gr.greens_linear_above(1.0, 1.6, 0.8, _CFG1),
        gr.greens_linear_below(1.0, 0.4, 0.8, _CFG1),
    ))


def _jump_at(g_of_x, xp: float, d: float) -> float:
    """Derivative discontinuity across the source via second differences.

    j(d) = [G(xp+d) + G(xp-d) - 2 G(xp)]/d tends to the jump with an O(d)
    error whose leading term one Richardson step removes.
    """

    def j(dd: float) -> float:
        return (g_of_x(xp + dd) + g_of_x(xp - dd) - 2.0 * g_of_x(xp)) / dd

    return 2.0 * j(d / 2.0) - j(d)


def _derivative_jump_minus_one() -> float:
    # unit derivative jump at the source for all four constructors
    cases = [
        (lambda x: gr.greens_free_between(x, 0.37, 1.3, 2.0), 0.37),
        (lambda x: gr.greens_free_above(x, 1.61, 1.3, 1.0), 1.61),
        (lambda x: gr.greens_linear_above(x, 1.4, 0.8, _CFG1), 1.4),
        (lambda x: gr.greens_linear_below(x, 0.45, 0.8, _CFG1), 0.45),
        (lambda x: gr.greens_linear_below(x, -0.3, 0.8, _CFG1), -0.3),
    ]
    return max(abs(_jump_at(g, xp, 1e-3) + 1.0) for g, xp in cases)


def _symmetry_swap_args() -> float:
    cases = [(gr.greens_linear_above, x, y) for x, y in ((1.2, 1.7), (1.05, 2.4))]
    cases += [(gr.greens_linear_below, x, y) for x, y in ((-0.4, 0.6), (0.2, 0.9), (-1.1, -0.2))]
    return max(_rel(g(x, y, 0.8, _CFG1), g(y, x, 0.8, _CFG1)) for g, x, y in cases)


def _decay_away_from_plate() -> int:
    ts = np.array([0.1, 0.5, 1.0, 2.0, 4.0])
    above = gr.greens_linear_above(1.3 + ts, 1.25, 0.8, _CFG1)
    below = gr.greens_linear_below(-0.1 - ts, -0.05, 0.8, _CFG1)
    return sum(np.sum(~((v[:-1] > v[1:]) & (v[1:] > 0.0))) for v in (above, below))


def _flat_limit_reduction() -> float:
    # eta -> 0 at fixed physical momentum recovers the flat kernel
    small = gr.PlateConfig(a=1.0, b=1e-6)
    kap = 1.0 / small.b ** (1.0 / 3.0)  # K = 1
    return max(
        _rel(gr.greens_linear_above(x, xp, kap, small), gr.greens_free_above(x, xp, 1.0, 1.0))
        for x, xp in [(1.3, 1.7), (1.05, 2.0), (2.2, 2.6)]
    )


def _fd_oracle_spot_above() -> float:
    # one spot of the finite-difference equivalence (full grid in the tests)
    grid = oo.GridSpec(1.0, 1.0 + 8.0, 8001)
    xp = 1.0 + 400 * grid.h
    xs, g = oo.solve_bvp_above(1.0, _CFG1, xp, grid)
    j = np.array([100, 250, 400, 650, 1200])
    return max(map(_rel, g[j], gr.greens_linear_above(xs[j], xp, 1.0, _CFG1)))


def _flat_limit_net_zero() -> float:
    return max(abs(sk.integrand_net(k, 0.0).net) for k in (0.0, 0.1, 1.0, 5.0, 20.0))


def _kappa_zero_identity() -> float:
    return max(_rel(sk.integrand_below(0.0, eta), -ae.log_deriv_bi(eta ** (1.0 / 3.0)))
               for eta in (0.5, 1.0, 5.0))


def _large_kappa_expansions() -> float:
    kap, eta = 10.0, 1.0
    base = -kap - eta ** (1.0 / 3.0) / (2.0 * kap)
    return max(abs(sk.integrand_above(kap, eta) - (base - 0.25 / kap**2)),
               abs(sk.integrand_below(kap, eta) - (base + 0.25 / kap**2)))


def _net_positive_grid() -> int:
    kappa = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    return sum(np.sum(sk._net_array(kappa, float(eta)) <= 0.0)
               for eta in np.logspace(-3.0, 3.0, 7))


def _tail_admissible_at_default_cutoff() -> int:
    return sum(not sk.tail_mismatch(10.0 * max(1.0, eta ** (1.0 / 6.0)), eta)[0]
               for eta in (0.1, 1.0, 10.0))


def _classic_two_plate_value() -> float:
    return _rel(sk.force_classic(1.0), -math.pi / 24.0)


def _perturbative_ir_log_step() -> float:
    step = sk.force_perturbative(1.0, 1.0, 5e-3) - sk.force_perturbative(1.0, 1.0, 1e-2)
    return abs(step / (math.log(2.0) / (2.0 * math.pi)) - 1.0)


def _perturbative_identity() -> float:
    # the printed b-parts of below and above (docs/numerics.md section 5)
    # against the returned sides and the separately coded net
    worst = 0.0
    for K, a, b in itertools.product((1e-2, 0.1, 0.3, 1.0, 10.0, 100.0), (0.5, 1.0, 2.0),
                                     (0.5, 1.0, 3.0)):
        below, above, net = sk.perturbative_integrands(K, a, b)
        part_b = b * (1.0 - 2.0 * K * a - 2.0 * math.exp(-2.0 * K * a)) / (4.0 * K * K)
        part_a = -b * (1.0 + 2.0 * K * a) / (4.0 * K * K)
        worst = max(worst, _rel(part_b - part_a, net),
                    _rel(below, -K + part_b), _rel(above, -K + part_a))
    return worst


def _stress_rebuilt_from_greens() -> float:
    # both sides, eta over four decades, kappa from 0 into the Airy-decay range
    sides = (("above", sk.integrand_above), ("below", sk.integrand_below))
    return max(_rel(integrand_from_greens(kap, gr.PlateConfig.from_eta(eta), side), own(kap, eta))
               for eta in (0.01, 0.1, 0.5, 1.0, 5.0, 50.0)
               for kap in (0.0, 0.3, 0.7, 1.5, 3.0, 6.0) for side, own in sides)


def _force_eta1_positive() -> int:
    return int(not sk.force_exact(1.0).f_eta > 0.0)


_COUNT = "number of violations"

CHECKS = (
    Check("airy", "wronskian_scaled_grid", _wronskian_scaled_grid, 1e-10),
    Check("airy", "ai_decreasing_bi_increasing", _ai_decreasing_bi_increasing, 0, _COUNT),
    Check("airy", "asymptotic_series_switch_band", _asymptotic_series_switch_band, 5e-13),
    Check("airy", "product_series_switch_band", _product_series_switch_band, 1e-12),
    Check("airy", "eval_vs_ode_oracle", _eval_vs_ode_oracle, 1e-10),
    Check("airy", "log_deriv_asymptotics", _log_deriv_asymptotics, 1.0,
          "measured as fraction of the 10/z^{5/2} bound"),
    Check("airy", "scaled_values_finite_to_1e4", _scaled_values_finite_to_1e4, 0, _COUNT),
    Check("greens", "dirichlet_zeros", _dirichlet_zeros, 0.0),
    Check("greens", "derivative_jump_minus_one", _derivative_jump_minus_one, 1e-6),
    Check("greens", "symmetry_swap_args", _symmetry_swap_args, 1e-12),
    Check("greens", "decay_away_from_plate", _decay_away_from_plate, 0, _COUNT),
    Check("greens", "flat_limit_reduction", _flat_limit_reduction, 1e-4),
    Check("greens", "fd_oracle_spot_above", _fd_oracle_spot_above, 1e-5),
    Check("stress", "flat_limit_net_zero", _flat_limit_net_zero, 0.0),
    Check("stress", "kappa_zero_identity", _kappa_zero_identity, 1e-12),
    Check("stress", "large_kappa_expansions", _large_kappa_expansions, 1e-3),
    Check("stress", "net_positive_grid", _net_positive_grid, 0, _COUNT),
    Check("stress", "tail_admissible_at_default_cutoff", _tail_admissible_at_default_cutoff,
          0, _COUNT),
    Check("stress", "classic_two_plate_value", _classic_two_plate_value, 1e-8),
    Check("stress", "perturbative_ir_log_step", _perturbative_ir_log_step, 5e-2,
          "growth per halving of k_min, in units of ln2/(2 pi)"),
    Check("stress", "perturbative_identity", _perturbative_identity, 1e-12),
    Check("stress", "stress_rebuilt_from_greens", _stress_rebuilt_from_greens, 1e-6),
    Check("stress", "force_eta1_positive", _force_eta1_positive, 0,
          "number of violations; the value itself is pinned in the test suite"),
)


def _suite(name: str) -> list[CheckResult]:
    return [c.run() for c in CHECKS if c.suite == name]


def suite_airy() -> list[CheckResult]:
    return _suite("airy")


def suite_greens() -> list[CheckResult]:
    return _suite("greens")


def suite_stress() -> list[CheckResult]:
    return _suite("stress")


SUITES = {"airy": suite_airy, "greens": suite_greens, "stress": suite_stress}


def run(suite: str) -> list[CheckResult]:
    if suite == "all":
        return [r for name in SUITES for r in SUITES[name]()]
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {'/'.join([*SUITES, 'all'])}")
    return SUITES[suite]()
