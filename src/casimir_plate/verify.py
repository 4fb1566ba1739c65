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

from . import airy_engine as ae
from . import greens as gr
from . import oracle_ode as oo
from . import stress_kernel as sk
from .errors import DomainError

__all__ = ["Check", "CheckResult", "CHECKS", "suite_airy", "suite_greens", "suite_stress", "run",
           "SUITES"]


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
# edges, where a node's own value (its marched seed) cannot answer for the table
_OFF_NODE = 1.0 / 16.0


def _asymptotic_series_switch_band() -> float:
    # the series and the dispatching evaluator against the library, in a
    # band around the switch where both branches are accurate
    from scipy.special import airye  # a library reference, kept off the import path

    band = np.linspace(ae.Z_SWITCH - 4.0, ae.Z_SWITCH + 4.0, 17) + _OFF_NODE
    lib = np.array(airye(band))
    return max(np.max(np.abs(own - lib) / np.abs(lib))
               for own in (ae._asymptotic_scaled(band), ae.airy_scaled(band)))


def _product_series_switch_band() -> float:
    # Ai' Bi + Ai Bi' and -(Ai Bi)'/(Ai Bi) from the product series against
    # the same quantities formed from the library's quadruple, whose own
    # cancellation (about 2 z^{3/2} ulp) sets the threshold
    from scipy.special import airye  # a library reference, kept off the import path

    band = np.linspace(ae.Z_SWITCH - 4.0, ae.Z_SWITCH + 4.0, 17)
    ai, aip, bi, bip = airye(band)
    lib = (aip * bi + ai * bip, -(aip / ai + bip / bi))
    return max(np.max(np.abs(own - ref) / np.abs(ref))
               for own, ref in zip(ae._series_terms(band)[3:], lib))


def _eval_vs_library() -> float:
    # the evaluator against the library on [0, 50], so the series branch above
    # Z_SWITCH is covered; the ends 0 and 50 stay on their nodes
    from scipy.special import airye  # a library reference, kept off the import path

    zs = np.linspace(0.0, 50.0, 101)
    zs[1:-1] += _OFF_NODE
    lib = np.array(airye(zs))
    return np.max(np.abs(ae.airy_scaled(zs) - lib) / np.abs(lib))


def _log_deriv_asymptotics() -> float:
    # Ai'/Ai and Bi'/Bi from the scaled rows, against -/+ sqrt(z) - 1/(4z)
    zs = (50.0, 100.0, 400.0, 1e3, 1600.0, 1e4)
    ai, aip, bi, bip = ae.airy_scaled(np.array(zs)).tolist()
    return max(max(abs(aip[i] / ai[i] + math.sqrt(z) + 0.25 / z),
                   abs(bip[i] / bi[i] - math.sqrt(z) + 0.25 / z)) / (10.0 / z**2.5)
               for i, z in enumerate(zs))


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


def _fd_oracle_spots() -> float:
    # the band solver's G against the closed forms on each side, on grids 8
    # long (x = 0 on node 7000 below): the source and samples sit within 1.2
    # of the plate, clear of the WKB closure at the open end, where the FD G
    # is off by design (3e-3 at 0.1 from it); the full equivalence is tested
    j = np.array([100, 250, 400, 650, 1200])  # cells from the plate
    worst = 0.0
    for solve, greens, grid, away in (
            (oo.solve_bvp_above, gr.greens_linear_above, oo.GridSpec(1.0, 9.0, 8001), 1.0),
            (oo.solve_bvp_full, gr.greens_linear_below, oo.GridSpec(-7.0, 1.0, 8001), -1.0)):
        xp = 1.0 + away * 400 * grid.h
        xs, g = solve(1.0, _CFG1, xp, grid)
        k = j if away > 0.0 else grid.n - 1 - j
        worst = max(worst, *map(_rel, g[k], greens(xs[k], xp, 1.0, _CFG1)))
    return worst


def _flat_limit_net_zero() -> float:
    return max(abs(sk.integrand_net(k, 0.0)) for k in (0.0, 0.1, 1.0, 5.0, 20.0))


def _kappa_zero_identity() -> float:
    # S = (Ai Bi)'(0) vanishes, so N/D at kappa = 0 is -Bi'/Bi(eta^{1/3})
    etas = (0.5, 1.0, 5.0)
    _, _, bi, bip = ae.airy_scaled(np.array([eta ** (1.0 / 3.0) for eta in etas])).tolist()
    return max(_rel(sk.integrand_below(0.0, eta), -bip[i] / bi[i]) for i, eta in enumerate(etas))


def _large_kappa_expansions() -> float:
    kap, eta = 10.0, 1.0
    base = -kap - eta ** (1.0 / 3.0) / (2.0 * kap)
    return max(abs(sk.integrand_above(kap, eta) - (base - 0.25 / kap**2)),
               abs(sk.integrand_below(kap, eta) - (base + 0.25 / kap**2)))


def _net_positive_grid() -> int:
    kappa = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    return sum(np.sum(sk._net_above(kappa, eta ** (1.0 / 3.0))[0] <= 0.0)
               for eta in np.logspace(-3.0, 3.0, 7).tolist())


def _large_kappa_net_law() -> float:
    # net tends to 1/(2 z2), z2 = kappa^2 + eta^{1/3}, at large kappa
    worst = 0.0
    for eta in (0.1, 1.0, 10.0):
        kap, eps = 10.0 * max(1.0, eta ** (1.0 / 6.0)), eta ** (1.0 / 3.0)
        net = sk._net_above(np.array([kap]), eps)[0].item()
        worst = max(worst, abs(2.0 * (kap * kap + eps) * net - 1.0))
    return worst


def _classic_two_plate_value() -> float:
    return _rel(sk.force_classic(1.0), -math.pi / 24.0)


def _perturbative_ir_log_step() -> float:
    step = sk.force_perturbative(1.0, 1.0, 5e-3) - sk.force_perturbative(1.0, 1.0, 1e-2)
    return abs(step / (math.log(2.0) / (2.0 * math.pi)) - 1.0)


def _perturbative_identity() -> float:
    # the printed b-parts of below and above (docs/numerics.md section 5)
    # against the returned sides and the separately coded net, part_b - part_a
    # against the larger part, since it cancels by about 1/(4 K a) at small K a
    worst = 0.0
    for K, a, b in itertools.product((1e-4, 5e-4, 1e-2, 0.1, 0.3, 1.0, 10.0, 100.0),
                                     (0.5, 1.0, 2.0), (0.5, 1.0, 3.0)):
        below, above, net = sk.perturbative_integrands(K, a, b)
        part_b = b * (1.0 - 2.0 * K * a - 2.0 * math.exp(-2.0 * K * a)) / (4.0 * K * K)
        part_a = -b * (1.0 + 2.0 * K * a) / (4.0 * K * K)
        worst = max(worst, abs(part_b - part_a - net) / max(abs(part_b), abs(part_a)),
                    _rel(below, -K + part_b), _rel(above, -K + part_a))
    return worst


def _stress_sides_from_fd() -> float:
    # both sides against the Airy-free plate slope of the w(0) = 1 solve, eta
    # over eight decades, kappa from 0 into the Airy-decay range
    sides = (("above", sk.integrand_above), ("below", sk.integrand_below))
    worst = 0.0
    for eta in (1e-6, 0.01, 0.1, 0.5, 1.0, 5.0, 50.0):
        cfg = gr.PlateConfig.from_eta(eta)
        for kap, (side, own) in itertools.product((0.0, 0.3, 0.7, 1.5, 3.0, 6.0), sides):
            fd = oo.integrand_from_fd(kap, cfg, side, oo.fd_setup(kap, cfg, side))
            worst = max(worst, _rel(fd, own(kap, eta)))
    return worst


def _fd_net_at_kernel_crossovers() -> float:
    # the variable-phase FD net against the kernel where its branches meet:
    # z2 = kappa^2 + eps at Z_SWITCH and at the far edge of the Taylor
    # table's last cell, and the small-eta crossover kappa = 1/eps
    z2s = (ae.Z_SWITCH, ae.Z_SWITCH - 0.5 * ae._NODE_STEP)
    cases = [(math.sqrt(z2 - eta ** (1.0 / 3.0)), eta) for eta in (1e-3, 1.0, 1e3) for z2 in z2s]
    cases += [(eta ** (-1.0 / 3.0), eta) for eta in (1e-3, 1e-6)]
    return max(_rel(oo._net_fd(kap, gr.PlateConfig.from_eta(eta))[0], sk.integrand_net(kap, eta))
               for kap, eta in cases)


def _force_eta1_positive() -> int:
    return int(not sk.force_exact(1.0).f_eta > 0.0)


_COUNT = "number of violations"

# Beside each threshold, what the row measures (x86_64, numpy 2.4, scipy 1.17);
# a count or an exact zero passes only at 0.
CHECKS = (
    Check("airy", "wronskian_scaled_grid", _wronskian_scaled_grid, 1e-14),  # 5.6e-16
    Check("airy", "ai_decreasing_bi_increasing", _ai_decreasing_bi_increasing, 0, _COUNT),
    Check("airy", "asymptotic_series_switch_band", _asymptotic_series_switch_band,
          5e-14),  # 1.7e-15
    Check("airy", "product_series_switch_band", _product_series_switch_band, 1e-12),  # 2.9e-13
    Check("airy", "eval_vs_library", _eval_vs_library, 5e-13),  # 4.9e-14, airye's own error
    Check("airy", "log_deriv_asymptotics", _log_deriv_asymptotics, 1.0,  # 1.6e-2
          "measured as fraction of the 10/z^{5/2} bound"),
    Check("airy", "scaled_values_finite_to_1e4", _scaled_values_finite_to_1e4, 0, _COUNT),
    Check("greens", "dirichlet_zeros", _dirichlet_zeros, 0.0),
    Check("greens", "derivative_jump_minus_one", _derivative_jump_minus_one, 1e-6),  # 1.7e-7
    Check("greens", "symmetry_swap_args", _symmetry_swap_args, 1e-12),  # 0
    Check("greens", "decay_away_from_plate", _decay_away_from_plate, 0, _COUNT),
    Check("greens", "flat_limit_reduction", _flat_limit_reduction, 1e-4),  # 1.5e-6
    Check("greens", "fd_oracle_spots", _fd_oracle_spots, 1e-9),  # 7.4e-11 above, 4.3e-11 below
    Check("stress", "flat_limit_net_zero", _flat_limit_net_zero, 0.0),
    Check("stress", "kappa_zero_identity", _kappa_zero_identity, 1e-12),  # 0
    Check("stress", "large_kappa_expansions", _large_kappa_expansions, 1e-3),  # 1.5e-4
    Check("stress", "net_positive_grid", _net_positive_grid, 0, _COUNT),
    Check("stress", "large_kappa_net_law", _large_kappa_net_law, 1e-3),  # 9.2e-5
    Check("stress", "classic_two_plate_value", _classic_two_plate_value, 1e-14),  # 2.1e-16
    Check("stress", "perturbative_ir_log_step", _perturbative_ir_log_step, 5e-2,  # 7.2e-3
          "growth per halving of k_min, in units of ln2/(2 pi)"),
    Check("stress", "perturbative_identity", _perturbative_identity, 1e-14),  # 3.4e-16
    Check("stress", "stress_sides_from_fd", _stress_sides_from_fd, 1e-9),  # 3.2e-11
    Check("stress", "fd_net_at_kernel_crossovers", _fd_net_at_kernel_crossovers,
          1e-10),  # 1.3e-12
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
