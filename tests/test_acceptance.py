"""Acceptance gate: one test per release criterion, one printed verdict line each.

Two clauses check laws derived from the closed forms (docs/numerics.md §7):

- near the flat limit the side difference is not zero but, with
  eps = eta^{1/3} and L = Ai'(kappa^2)/Ai(kappa^2),
  below - above = 2 (L^2 - kappa^2) eps - eps^2 + O(eps^3);
- at large eta, f(eta) = (sqrt(eta)/8) (1 + 75/(256 eta) + O(eta^-2)), so
  eta^{-2/3} f(eta) rises to a single peak (near eta ~ 0.7) and then falls.
"""

import json
import math
import time

import mpmath
import numpy as np
from scipy.special import airye

from casimir_plate import cli, oracle_ode
from casimir_plate.airy_engine import airy_eval
from casimir_plate.errors import QuadratureSpec
from casimir_plate.greens import PlateConfig, greens_linear_above, greens_linear_below
from casimir_plate.oracle_ode import GridSpec, solve_bvp_above, solve_bvp_full
from casimir_plate.stress_kernel import (
    force_exact,
    force_perturbative,
    integrand_above,
    integrand_below,
    integrand_net,
    perturbative_integrands,
)


def report(ok, label, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


def rel(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def test_criterion_1_classic_two_plate_benchmark(capsys):
    t0 = time.perf_counter()
    rc = cli.main(["classic", "--a", "1"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    value = float(out.splitlines()[0].split("=")[1])
    err = rel(value, -math.pi / 24.0)
    ok = rc == 0 and err <= 1e-8 and elapsed < 1.0
    with capsys.disabled():
        assert report(ok, "criterion-1 classic benchmark",
                      f"rel_err={err:.3e} elapsed={elapsed:.3f}s")


def test_criterion_2_exact_cancellation_at_flat_limit(capsys):
    zeros = [integrand_net(k, 0.0) for k in (0.1, 1.0, 5.0, 20.0)]
    alg_ok = all(v == 0.0 for v in zeros)
    f0 = force_exact(0.0).f_eta
    force_ok = f0 == 0.0

    eta = 1e-12
    eps = eta ** (1.0 / 3.0)
    dev = 0.0
    for k in (0.1, 1.0, 5.0, 20.0):
        ai, aip, _, _ = airye(k * k)
        L = aip / ai
        law = 2.0 * (L * L - k * k) * eps - eps * eps
        gap = integrand_below(k, eta) - integrand_above(k, eta)
        dev = max(dev, abs(gap - law))
    airy_ok = dev < 1e-9

    with capsys.disabled():
        assert report(alg_ok, "criterion-2 algebraic cancellation", f"net values {zeros}")
        assert report(force_ok, "criterion-2 force at zero", f"f(0)={f0!r}")
        # the gap itself is ~1e-4 at eta=1e-12; what must cancel to 1e-9 is
        # its deviation from the two-term law, whose remainder is O(eps^3)
        assert report(airy_ok, "criterion-2 airy-path cancellation",
                      f"max |gap - (2(L^2-k^2)eps - eps^2)| = {dev:.4e} at eta=1e-12 "
                      f"(bound 1e-9)")


def test_criterion_3_greens_match_fd_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for eta in (0.5, 5.0):
        cfg = PlateConfig.from_eta(eta)
        for kappa in (0.3, 1.0, 3.0):
            grid = GridSpec(1.0, 9.0, 8001)
            xp = 1.0 + 900 * grid.h
            xs, g = solve_bvp_above(kappa, cfg, xp, grid)
            j = np.array([150, 400, 700, 1400, 2500])
            worst = max(worst, *map(rel, g[j], greens_linear_above(xs[j], xp, kappa, cfg)))
            grid = GridSpec(-9.0, 1.0, 10001)
            xp = 1.0 - 900 * grid.h
            xs, g = solve_bvp_full(kappa, cfg, xp, grid)
            j = 10001 - np.array([151, 401, 701, 1401, 2501])
            worst = max(worst, *map(rel, g[j], greens_linear_below(xs[j], xp, kappa, cfg)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    with capsys.disabled():
        assert report(ok, "criterion-3 greens vs fd oracle",
                      f"worst_rel={worst:.3e} over 60 points, elapsed={elapsed:.1f}s")


def test_criterion_4_force_matches_fd_pipeline(capsys):
    # the two routes agree within the sum of their own error estimates
    exact = force_exact(1.0)
    fd, fd_err = oracle_ode._force_fd(1.0)
    bound = exact.err_est + fd_err
    ok = abs(exact.f_eta - fd) <= bound
    with capsys.disabled():
        assert report(ok, "criterion-4 force vs fd pipeline",
                      f"closed={exact.f_eta:.15f} fd={fd:.15f} diff={abs(exact.f_eta - fd):.3e} "
                      f"bound={bound:.3e}")


def test_criterion_5_curve_shape(capsys):
    t0 = time.perf_counter()
    spec = QuadratureSpec(rel_tol=1e-9)
    etas = np.logspace(-2.0, 2.0, 25)
    fs = [force_exact(float(e), spec).f_eta for e in etas]
    positive_ok = all(f > 0.0 for f in fs)

    slopes = []
    lows = [1e-4, 1e-3, 1e-2]
    flows = [force_exact(e, spec).f_eta for e in lows]
    for (e0, f0), (e1, f1) in zip(zip(lows, flows), zip(lows[1:], flows[1:])):
        slopes.append(math.log(f1 / f0) / math.log(e1 / e0))
    slope_ok = all(0.0 < p < 1.0 for p in slopes)

    highs = [1e2, 1e3]
    fhighs = [force_exact(e, spec).f_eta for e in highs]
    elapsed = time.perf_counter() - t0

    increasing_ok = all(f1 > f0 for f0, f1 in zip(fs, fs[1:]))
    g = [f / e ** (2.0 / 3.0) for e, f in zip(etas, fs)]
    signs = [g1 > g0 for g0, g1 in zip(g, g[1:])]
    rises = sum(signs)
    single_peak_ok = 0 < rises < len(signs) and all(signs[:rises]) and not any(signs[rises:])
    peak = int(np.argmax(g))
    # residual of f = (sqrt(eta)/8)(1 + 75/(256 eta) + O(eta^-2)), in units of eta^-2
    resid = [abs(f * 8.0 / math.sqrt(e) - 1.0 - 75.0 / (256.0 * e)) * e * e
             for e, f in zip(highs, fhighs)]
    large_eta_ok = all(r <= 3.0 for r in resid)

    with capsys.disabled():
        assert report(positive_ok, "criterion-5 repulsive everywhere",
                      f"min f = {min(fs):.3e}")
        assert report(slope_ok, "criterion-5 small-eta slope",
                      f"slopes {['%.4f' % p for p in slopes]} in (0,1)")
        assert report(elapsed < 60.0, "criterion-5 runtime", f"{elapsed:.1f}s for 30 forces")
        assert report(increasing_ok, "criterion-5 force increases",
                      f"f from {fs[0]:.6f} to {fs[-1]:.6f} over 25 points")
        # g = eta^(-2/3) f rises, peaks once, then falls like eta^(-1/6)/8
        assert report(single_peak_ok, "criterion-5 scaled-force shape",
                      f"eta^(-2/3) f rises {rises} steps, falls {len(signs) - rises}, "
                      f"peaks at eta={etas[peak]:.3f}, "
                      f"g(1e-2)={g[0]:.6f} g(peak)={g[peak]:.6f} g(1e2)={g[-1]:.6f}")
        assert report(large_eta_ok, "criterion-5 large-eta law",
                      f"|8f/sqrt(eta) - 1 - 75/(256 eta)| = "
                      f"{', '.join('%.2f' % r for r in resid)} / eta^2 at eta=1e2, 1e3 "
                      f"(bound 3)")


def test_criterion_6_printed_expansions(capsys):
    kappa, eta = 10.0, 1.0
    e3 = eta ** (1.0 / 3.0)
    base = -kappa - e3 / (2.0 * kappa)
    dev_above = abs(integrand_above(kappa, eta) - (base - 0.25 / kappa**2))
    dev_below = abs(integrand_below(kappa, eta) - (base + 0.25 / kappa**2))
    ok = dev_above <= 1e-3 and dev_below <= 1e-3
    with capsys.disabled():
        assert report(ok, "criterion-6 three-term expansions",
                      f"abs dev above={dev_above:.3e} below={dev_below:.3e}")


def test_criterion_7_perturbative_infrared_divergence(capsys):
    ref = math.log(2.0) / (2.0 * math.pi)
    devs = []
    for k_min in (1e-2, 1e-3):
        step = force_perturbative(1.0, 1.0, k_min / 2.0) - force_perturbative(1.0, 1.0, k_min)
        devs.append(abs(step - ref) / ref)
    step_ok = all(d <= 5e-2 for d in devs)

    worst = 0.0
    for K in (1e-2, 0.1, 0.3, 1.0, 10.0, 100.0):
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 3.0):
                _, _, net = perturbative_integrands(K, a, b)
                part_b = b * (1.0 - 2.0 * K * a - 2.0 * math.exp(-2.0 * K * a)) / (4.0 * K * K)
                part_a = -b * (1.0 + 2.0 * K * a) / (4.0 * K * K)
                worst = max(worst, abs((part_b - part_a) - net) / abs(net))
    identity_ok = worst <= 1e-12

    with capsys.disabled():
        assert report(step_ok, "criterion-7 halving step",
                      f"dev vs (1/2pi)ln2: {['%.3f%%' % (100*d) for d in devs]}")
        assert report(identity_ok, "criterion-7 integrand identity",
                      f"worst rel residual {worst:.3e} on 54-point grid")


def test_criterion_8_special_function_conformance(capsys):
    zs = [0.0] + list(np.logspace(-3, 4, 120))
    worst_w = max(abs(airy_eval(z).wronskian_scaled() - 1.0 / math.pi) for z in zs)
    wronskian_ok = worst_w <= 1e-10

    # the raw values against 30-digit mpmath (3.8e-15 measured)
    worst_m = 0.0
    with mpmath.workdps(30):
        for z in np.linspace(0.0, 10.0, 41):
            got, x = airy_eval(float(z)), mpmath.mpf(float(z))
            ref = (mpmath.airyai(x), mpmath.airyai(x, 1), mpmath.airybi(x), mpmath.airybi(x, 1))
            for g, r in zip((got.ai, got.aip, got.bi, got.bip), map(float, ref)):
                worst_m = max(worst_m, rel(g, r))
    mpmath_ok = worst_m <= 4e-14

    with capsys.disabled():
        assert report(wronskian_ok, "criterion-8 wronskian", f"worst abs dev {worst_w:.3e}")
        assert report(mpmath_ok, "criterion-8 engine vs mpmath", f"worst rel {worst_m:.3e}")


def test_criterion_9_determinism(tmp_path, capsys):
    args = ["--eta-min", "0.05", "--eta-max", "50", "--points", "6", "--rel-tol", "1e-6"]
    a, b, c, d = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv", "d.csv"))
    cache = tmp_path / "cache.json"

    assert cli.main(["curve", *args, "--out", str(a), "--jobs", "1"]) == 0
    assert cli.main(["curve", *args, "--out", str(b), "--jobs", "3"]) == 0
    assert cli.main(["curve", *args, "--out", str(c), "--cache", str(cache)]) == 0
    assert cli.main(["curve", *args, "--out", str(d), "--cache", str(cache)]) == 0
    capsys.readouterr()

    parallel_ok = a.read_bytes() == b.read_bytes()
    cache_ok = (
        a.read_bytes() == c.read_bytes() == d.read_bytes()
        and len(json.loads(cache.read_text())) == 6
    )
    with capsys.disabled():
        assert report(parallel_ok, "criterion-9 parallel determinism",
                      "jobs=1 and jobs=3 byte-identical")
        assert report(cache_ok, "criterion-9 cache fidelity",
                      "cold run, caching run, cache-hit run all byte-identical")


def test_criterion_10_net_is_the_free_greens_log_derivative(capsys):
    # the paper's mechanism as an identity (docs/numerics.md section 1): net is
    # -d/dy ln G0(y, y) at y = z2, G0 the plate-free Green's function of
    # -d^2/dx^2 + K^2 + b|x|, G0(y, y) ~ Ai(y) [pi S Ai(y) - 2 pi Ai(z1) Ai'(z1) Bi(y)],
    # S = Ai'(z1) Bi(z1) + Ai(z1) Bi'(z1), z1 = kappa^2; built here from raw
    # 40-digit mpmath Airy values; kappa^2 = 38.44 and 40.96 straddle the
    # engine's Z_SWITCH = 40
    worst = 0.0
    with mpmath.workdps(40):
        for kappa in (0.0, 0.5, 2.0, 6.2, 6.4):
            z1 = mpmath.mpf(kappa) ** 2
            ai1, aip1 = mpmath.airyai(z1), mpmath.airyai(z1, 1)
            s = aip1 * mpmath.airybi(z1) + ai1 * mpmath.airybi(z1, 1)
            for eta in (1e-6, 1e-3, 1.0, 1e4):
                y = z1 + mpmath.cbrt(eta)
                ai, aip = mpmath.airyai(y), mpmath.airyai(y, 1)
                bi, bip = mpmath.airybi(y), mpmath.airybi(y, 1)
                below = mpmath.pi * (s * ai - 2 * ai1 * aip1 * bi)  # decays as x -> -inf
                d_below = mpmath.pi * (s * aip - 2 * ai1 * aip1 * bip)
                g0, d_g0 = ai * below, aip * below + ai * d_below
                worst = max(worst, rel(integrand_net(kappa, eta), float(-d_g0 / g0)))
    ok = worst <= 1e-11
    with capsys.disabled():
        assert report(ok, "criterion-10 net = -d ln G0/dy", f"worst rel {worst:.3e} on 20 points")
