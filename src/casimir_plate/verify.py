"""Self-check suites wired to the command line as `verify --suite ...`.

Each suite re-tests the invariants that make the physics trustworthy:
special-function identities, Green's function boundary structure, and the
consistency web between the closed forms, the stress integrands, and the
finite-difference oracle.  Checks are deliberately cheap (a few seconds
for `all`); the exhaustive grids live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import airy_engine as ae
from . import greens as gr
from . import oracle_ode as oo
from . import stress_kernel as sk
from .errors import DomainError

__all__ = ["CheckResult", "integrand_from_greens", "suite_airy", "suite_greens",
           "suite_stress", "run", "SUITES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from the grid sweeps; JSON output needs
        # plain Python types
        self.passed = bool(self.passed)
        self.measured = float(self.measured)
        self.threshold = float(self.threshold)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0.0 else abs(x)


# ---------------------------------------------------------------------------
# Cross-construction probe: stress integrand re-extracted from the Green's
# functions themselves.


def integrand_from_greens(kappa: float, cfg: gr.PlateConfig, side: str) -> float:
    """Coincident-limit stress integrand rebuilt from the closed-form G.

    Same extraction recipe as oracle_ode.integrand_from_fd (plate derivative
    with the source eps away, analytic removal of the linear eps term, one
    Richardson step), but with G sampled from greens_linear_above/below
    instead of a band solve.  Agreement with integrand_above/below therefore
    tests that the Green's functions and the printed stress ratios encode
    the same physics, with no shared algebra beyond the Airy engine.
    """
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    kfac = cfg.b ** (2.0 / 3.0)
    q_plate = kfac * kappa * kappa + cfg.b * cfg.a
    bcube = cfg.b ** (1.0 / 3.0)
    eps = 0.003 / math.sqrt(q_plate)

    def plate_slope(xp: float, sgn: float) -> float:
        # 5-point one-sided d/dx at the plate, stepping toward the source
        d = sgn * eps / 8.0
        g = [
            gr.greens_linear_above(cfg.a + j * d, xp, kappa, cfg)
            if sgn > 0
            else gr.greens_linear_below(cfg.a + j * d, xp, kappa, cfg)
            for j in range(5)
        ]
        return (-25.0 * g[0] + 48.0 * g[1] - 36.0 * g[2] + 16.0 * g[3] - 3.0 * g[4]) / (
            12.0 * d
        )

    def slope_estimate(e: float) -> float:
        if side == "above":
            r = plate_slope(cfg.a + e, +1.0)
            return (r - 1.0) / e - 0.5 * e * q_plate
        r = -plate_slope(cfg.a - e, -1.0)  # equals u(a - e)/u(a)
        return (1.0 - r) / e + 0.5 * e * q_plate

    s_ext = (4.0 * slope_estimate(eps) - slope_estimate(2.0 * eps)) / 3.0
    return s_ext / bcube if side == "above" else -s_ext / bcube


# ---------------------------------------------------------------------------
# Suites.


def suite_airy() -> list[CheckResult]:
    out: list[CheckResult] = []

    zs = [0.0] + list(np.logspace(-3.0, 4.0, 29))
    worst = max(abs(math.pi * ae.airy_eval(z).wronskian_scaled() - 1.0) for z in zs)
    out.append(CheckResult("wronskian_scaled_grid", worst <= 1e-10, worst, 1e-10))

    grid = np.linspace(0.0, 30.0, 601)
    vals = [ae.airy_eval(z) for z in grid]
    mono = all(
        v1.ai < v0.ai and v1.bi > v0.bi for v0, v1 in zip(vals, vals[1:])
    )
    out.append(CheckResult("ai_decreasing_bi_increasing", mono, 0.0 if mono else 1.0, 0.5))

    # series vs library across the evaluator's internal switch
    import scipy.special as _sp

    band = np.linspace(36.0, 44.0, 17)
    worst = 0.0
    for z in band:
        lib = _sp.airye(z)
        own = ae._asymptotic_scaled(np.array([z]))[:, 0]
        worst = max(
            worst,
            _rel(own[0], lib[0]),
            _rel(own[1], lib[1]),
            _rel(own[2], lib[2]),
            _rel(own[3], lib[3]),
        )
    out.append(CheckResult("asymptotic_series_switch_band", worst <= 5e-13, worst, 5e-13))

    worst = 0.0
    for z in np.linspace(0.0, 10.0, 21):
        v = ae.airy_eval(z)
        o = ae.airy_via_ode_oracle(z)
        worst = max(
            worst,
            _rel(v.ai_s, o.ai_s),
            _rel(v.aip_s, o.aip_s),
            _rel(v.bi_s, o.bi_s),
            _rel(v.bip_s, o.bip_s),
        )
    out.append(CheckResult("eval_vs_ode_oracle", worst <= 1e-10, worst, 1e-10))

    worst = 0.0
    for z in [50.0, 100.0, 400.0, 1600.0]:
        bound = 10.0 / z**2.5
        da = abs(ae.log_deriv_ai(z) + math.sqrt(z) + 0.25 / z) / bound
        db = abs(ae.log_deriv_bi(z) - math.sqrt(z) + 0.25 / z) / bound
        worst = max(worst, da, db)
    out.append(CheckResult("log_deriv_asymptotics", worst <= 1.0, worst, 1.0,
                           "measured as fraction of the 10/z^{5/2} bound"))

    ok = True
    for z in np.logspace(0.0, 4.0, 9):
        v = ae.airy_eval(float(z))
        for f in (v.ai_s, v.aip_s, v.bi_s, v.bip_s):
            ok = ok and math.isfinite(f) and f != 0.0
    out.append(CheckResult("scaled_values_finite_to_1e4", ok, 0.0 if ok else 1.0, 0.5))
    return out


def _jump_at(g_of_x, xp: float, d: float) -> float:
    """Derivative discontinuity across the source via second differences.

    j(d) = [G(xp+d) + G(xp-d) - 2 G(xp)]/d tends to the jump with an O(d)
    error whose leading term one Richardson step removes.
    """

    def j(dd: float) -> float:
        return (g_of_x(xp + dd) + g_of_x(xp - dd) - 2.0 * g_of_x(xp)) / dd

    return 2.0 * j(d / 2.0) - j(d)


def suite_greens() -> list[CheckResult]:
    out: list[CheckResult] = []
    cfg = gr.PlateConfig(a=1.0, b=1.0)

    # Dirichlet zeros at every boundary of every form
    z1 = gr.greens_free_between(0.8, 0.0, 1.3, 2.0)
    z2 = gr.greens_free_between(2.0, 0.7, 1.3, 2.0)
    z3 = gr.greens_free_above(1.0, 1.9, 1.3, 1.0)
    z4 = gr.greens_linear_above(1.0, 1.6, 0.8, cfg)
    z5 = gr.greens_linear_below(1.0, 0.4, 0.8, cfg)
    worst = max(abs(v) for v in (z1, z2, z3, z4, z5))
    out.append(CheckResult("dirichlet_zeros", worst == 0.0, worst, 0.0))

    # unit derivative jump at the source for all four constructors
    worst = 0.0
    cases = [
        ("between", lambda x: gr.greens_free_between(x, 0.37, 1.3, 2.0), 0.37),
        ("above_free", lambda x: gr.greens_free_above(x, 1.61, 1.3, 1.0), 1.61),
        ("above_linear", lambda x: gr.greens_linear_above(x, 1.4, 0.8, cfg), 1.4),
        ("below_mid", lambda x: gr.greens_linear_below(x, 0.45, 0.8, cfg), 0.45),
        ("below_neg", lambda x: gr.greens_linear_below(x, -0.3, 0.8, cfg), -0.3),
    ]
    for _, g, xp in cases:
        worst = max(worst, abs(_jump_at(g, xp, 1e-3) + 1.0))
    out.append(CheckResult("derivative_jump_minus_one", worst <= 1e-6, worst, 1e-6))

    pairs = [(1.2, 1.7), (1.05, 2.4)]
    worst = max(
        _rel(gr.greens_linear_above(x, y, 0.8, cfg), gr.greens_linear_above(y, x, 0.8, cfg))
        for x, y in pairs
    )
    pairs = [(-0.4, 0.6), (0.2, 0.9), (-1.1, -0.2)]
    worst = max(
        worst,
        max(
            _rel(gr.greens_linear_below(x, y, 0.8, cfg), gr.greens_linear_below(y, x, 0.8, cfg))
            for x, y in pairs
        ),
    )
    out.append(CheckResult("symmetry_swap_args", worst <= 1e-12, worst, 1e-12))

    vals = [gr.greens_linear_above(1.3 + t, 1.25, 0.8, cfg) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
    mono = all(v0 > v1 > 0.0 for v0, v1 in zip(vals, vals[1:]))
    vals = [gr.greens_linear_below(-0.1 - t, -0.05, 0.8, cfg) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
    mono = mono and all(v0 > v1 > 0.0 for v0, v1 in zip(vals, vals[1:]))
    out.append(CheckResult("decay_away_from_plate", mono, 0.0 if mono else 1.0, 0.5))

    # flat-background reduction at fixed physical momentum
    small = gr.PlateConfig(a=1.0, b=1e-6)
    kap = 1.0 / small.b ** (1.0 / 3.0)  # K = 1
    worst = max(
        _rel(
            gr.greens_linear_above(x, xp, kap, small),
            gr.greens_free_above(x, xp, 1.0, 1.0),
        )
        for x, xp in [(1.3, 1.7), (1.05, 2.0), (2.2, 2.6)]
    )
    out.append(CheckResult("flat_limit_reduction", worst <= 1e-4, worst, 1e-4))

    worst = 0.0
    for eta in (0.5, 5.0):
        c = gr.PlateConfig.from_eta(eta)
        for kap in (0.0, 0.5, 1.0, 2.0, 5.0):
            ratio = gr.below_ratio_from_construction(kap, c)
            direct = sk.integrand_below(kap, eta)
            worst = max(worst, _rel(ratio, direct))
    out.append(CheckResult("below_construction_vs_printed_ratio", worst <= 1e-10, worst, 1e-10))

    # one spot of the finite-difference equivalence (full grid in the tests)
    grid = oo.GridSpec(1.0, 1.0 + 8.0, 8001, stencil=4)
    xp = 1.0 + 400 * grid.h
    xs, g = oo.solve_bvp_above(1.0, cfg, xp, grid)
    worst = max(
        _rel(g[j], gr.greens_linear_above(xs[j], xp, 1.0, cfg))
        for j in (100, 250, 400, 650, 1200)
    )
    out.append(CheckResult("fd_oracle_spot_above", worst <= 1e-5, worst, 1e-5))
    return out


def suite_stress() -> list[CheckResult]:
    out: list[CheckResult] = []

    worst = max(abs(sk.integrand_net(k, 0.0).net) for k in (0.0, 0.1, 1.0, 5.0, 20.0))
    out.append(CheckResult("flat_limit_net_zero", worst == 0.0, worst, 0.0))

    worst = 0.0
    for eta in (0.5, 1.0, 5.0):
        s6sq = eta ** (1.0 / 3.0)
        ref = -ae.log_deriv_bi(s6sq)
        worst = max(worst, _rel(sk.integrand_below(0.0, eta), ref))
    out.append(CheckResult("kappa_zero_identity", worst <= 1e-12, worst, 1e-12))

    kap, eta = 10.0, 1.0
    e3 = eta ** (1.0 / 3.0)
    above_x = -kap - e3 / (2.0 * kap) - 1.0 / (4.0 * kap * kap)
    below_x = -kap - e3 / (2.0 * kap) + 1.0 / (4.0 * kap * kap)
    da = abs(sk.integrand_above(kap, eta) - above_x)
    db = abs(sk.integrand_below(kap, eta) - below_x)
    worst = max(da, db)
    out.append(CheckResult("large_kappa_expansions", worst <= 1e-3, worst, 1e-3))

    ok = True
    worst_np = 0.0
    for eta in (1e-3, 1.0, 1e3):
        for k in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            n = sk.integrand_net(k, eta).net
            ok = ok and n > 0.0
            worst_np = min(worst_np, n) if not ok else worst_np
    out.append(CheckResult("net_positive_grid", ok, worst_np, 0.0,
                           "most negative net seen" if not ok else ""))

    ok = True
    for eta in (0.1, 1.0, 10.0):
        admissible, _ = sk.tail_mismatch(10.0 * max(1.0, eta ** (1.0 / 6.0)), eta)
        ok = ok and admissible
    out.append(CheckResult("tail_admissible_at_default_cutoff", ok, 0.0 if ok else 1.0, 0.5))

    ref = -math.pi / 24.0
    got = sk.force_classic(1.0)
    m = _rel(got, ref)
    out.append(CheckResult("classic_two_plate_value", m <= 1e-8, m, 1e-8))

    p1 = sk.force_perturbative(1.0, 1.0, 1e-2)
    p2 = sk.force_perturbative(1.0, 1.0, 5e-3)
    step = (p2 - p1) / (math.log(2.0) / (2.0 * math.pi))
    m = abs(step - 1.0)
    out.append(CheckResult("perturbative_ir_log_step", m <= 5e-2, m, 5e-2,
                           "growth per halving of k_min, in units of ln2/(2 pi)"))
    lhs_b, lhs_a, lhs_n = sk.perturbative_integrands(0.3, 1.0, 1.0)
    m = _rel(lhs_b - lhs_a, lhs_n)
    out.append(CheckResult("perturbative_identity", m <= 1e-12, m, 1e-12))

    worst = 0.0
    for kap, eta in ((0.7, 1.0), (1.5, 5.0)):
        c = gr.PlateConfig.from_eta(eta)
        worst = max(
            worst,
            _rel(integrand_from_greens(kap, c, "above"), sk.integrand_above(kap, eta)),
            _rel(integrand_from_greens(kap, c, "below"), sk.integrand_below(kap, eta)),
        )
    out.append(CheckResult("stress_rebuilt_from_greens", worst <= 1e-6, worst, 1e-6))

    r = sk.force_exact(1.0)
    out.append(CheckResult("force_eta1_positive", r.f_eta > 0.0, r.f_eta, 0.0,
                           "value itself is pinned in the test suite"))
    return out


SUITES = {"airy": suite_airy, "greens": suite_greens, "stress": suite_stress}


def run(suite: str) -> list[CheckResult]:
    if suite == "all":
        res: list[CheckResult] = []
        for name in ("airy", "greens", "stress"):
            res.extend(SUITES[name]())
        return res
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from airy/greens/stress/all")
    return SUITES[suite]()
