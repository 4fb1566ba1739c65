"""Compute the mpmath reference values f(eta) that the benchmark checks against.

    python3 perfbench/refgen.py

writes perfbench/refs.json, using one process per core.  Each eta in `inputs.reference_etas()` is
computed twice, by two independent discretisations, and the pair must agree
to 1e-14 relative or the script stops:

  A: 26 digits, cutoff K, Gauss-Legendre on panels growing by 2x;
  B: 34 digits, cutoff 2K, Gauss-Legendre on panels growing by 3x.

The integrand is the closed form of docs/numerics.md, evaluated with mpmath
Airy functions and rearranged exactly with the Wronskian,

    net(kappa) = -(Ai Bi)'/(Ai Bi)(z2) + S / (pi D Bi(z2)),

so no step relies on the production kernel.  Beyond K = max(200, 60/s,
10 sqrt(s)), s = eta^(1/3), the second term is below e^-120 and the first
equals the Lorentzian 1/(2 (kappa^2 + s)) up to O(kappa^-8), so the tail is
atan(sqrt(s)/K) / (4 pi sqrt(s)) with an error far below 1e-20.  A naive
mp.quad(net, [0, inf]) is wrong here: z2 rounds to z1 at large kappa.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time

import mpmath as mp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

AGREE = 1e-14
CONFIGS = ((26, 1, 2), (34, 2, 3))  # (digits, cutoff multiple, panel growth)


def _net(k, s):
    z1 = k * k
    z2 = z1 + s
    a1, ap1 = mp.airyai(z1), mp.airyai(z1, 1)
    b1, bp1 = mp.airybi(z1), mp.airybi(z1, 1)
    a2, ap2 = mp.airyai(z2), mp.airyai(z2, 1)
    b2, bp2 = mp.airybi(z2), mp.airybi(z2, 1)
    s_sum = ap1 * b1 + a1 * bp1
    den = a2 * s_sum - 2 * a1 * ap1 * b2
    return -(bp2 / b2 + ap2 / a2) + s_sum / (mp.pi * den * b2)


def force_mp(eta: float, digits: int, k_mult: int, growth: int):
    with mp.workdps(digits):
        eta_m = mp.mpf(eta)
        s = mp.cbrt(eta_m)
        rs = mp.sqrt(s)
        cutoff = k_mult * max(mp.mpf(200), 60 / s, 10 * rs)
        x = min(mp.mpf(1) / 4, rs / 8)
        pts = [mp.mpf(0)]
        while x < cutoff:
            pts.append(x)
            x *= growth
        pts.append(cutoff)
        body = mp.quad(lambda k: _net(k, s), pts, method="gauss-legendre")
        tail = mp.atan(rs / cutoff) / (4 * mp.pi * rs)
        return eta_m ** (mp.mpf(2) / 3) * (body / (2 * mp.pi) + tail)


def reference(eta: float) -> dict:
    t0 = time.perf_counter()
    va, vb = (force_mp(eta, *cfg) for cfg in CONFIGS)
    with mp.workdps(40):
        rel = abs(va - vb) / abs(vb)
    return {"eta": eta, "f": mp.nstr(vb, 22, strip_zeros=False),
            "f_check": mp.nstr(va, 22, strip_zeros=False),
            "rel_diff": float(rel), "seconds": round(time.perf_counter() - t0, 2)}


def main() -> int:
    out = os.path.join(HERE, "refs.json")

    partial = os.path.join(HERE, "out", "refgen-partial.jsonl")
    os.makedirs(os.path.dirname(partial), exist_ok=True)
    done = {}
    if os.path.exists(partial):
        with open(partial) as fh:
            for line in fh:
                row = json.loads(line)
                done[row["eta"]] = row
    todo = [e for e in inputs.reference_etas() if e not in done]
    print(f"{len(done)} cached, {len(todo)} to compute", file=sys.stderr)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool, open(partial, "a") as fh:
        for row in pool.imap_unordered(reference, todo):
            fh.write(json.dumps(row) + "\n")
            fh.flush()
            done[row["eta"]] = row
            print(f"eta={row['eta']!r} rel_diff={row['rel_diff']:.1e} {row['seconds']}s",
                  file=sys.stderr)

    rows = [done[e] for e in inputs.reference_etas()]
    bad = [r for r in rows if not r["rel_diff"] <= AGREE]
    if bad:
        for r in bad:
            print(f"disagreement at eta={r['eta']!r}: {r['rel_diff']:.2e}", file=sys.stderr)
        return 1
    payload = {
        "about": "f(eta) from mpmath; f at 34 digits with cutoff 2K, f_check at 26 digits "
                 "with cutoff K; see refgen.py",
        "agree_rel": AGREE,
        "mpmath": mp.__version__,
        "refs": [{k: r[k] for k in ("eta", "f", "f_check", "rel_diff")} for r in rows],
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(rows)} references to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
