"""Output checks, run in the parent after the timed ops.

Each check returns a record {lat, failed, incorrect, ratio, err_miss}:
`failed` counts toward fail_share; `incorrect` (a reason, or None) marks
output that is wrong rather than a typed refusal, and makes the run's
`correct` false.  A typed CasimirError or a cli exit code 1 is a failure,
not a wrong answer: the docs allow either outcome.
"""

from __future__ import annotations

import json
import math
import re

import inputs
from stats import ref_ratio

FD_TOL = 1e-4  # force_from_fd against the reference, as in tests/test_oracle_ode.py
ODE_TOL = 1e-10  # airy_via_ode_oracle against mpmath, as in `verify`'s eval_vs_ode_oracle
DEFAULT_REL_TOL = 1e-9
CSV_HEADER = "eta,f_eta,err_est,kappa_max,n_evals"


def record(lat, failed=False, incorrect=None, ratio=None, err_miss=None) -> dict:
    return {"lat": lat, "failed": failed or incorrect is not None, "incorrect": incorrect,
            "ratio": ratio, "err_miss": err_miss}


class Checker:
    def __init__(self, refs: dict[float, float], schemas: dict):
        import jsonschema

        self.refs = refs
        self.validators = {k: jsonschema.Draft202012Validator(s) for k, s in schemas.items()}

    def _schema_errors(self, name: str, payload) -> str | None:
        errs = [e.message for e in self.validators[name].iter_errors(payload)]
        return f"{name} schema: {errs[0]}" if errs else None

    def _force(self, lat, v: dict, eta: float, tol: float, kmax=None) -> dict:
        f, err = v["f_eta"], v["err_est"]
        bad = None
        if v["eta"] != eta:
            bad = f"eta echoed as {v['eta']!r}, asked {eta!r}"
        elif not (math.isfinite(f) and f >= 0.0 and math.isfinite(err) and err >= 0.0):
            bad = f"non-finite or negative output f={f!r} err_est={err!r}"
        elif not (isinstance(v["n_evals"], int) and v["n_evals"] >= 1):
            bad = f"n_evals={v['n_evals']!r}"
        elif kmax is not None and v["kappa_max"] != kmax:
            bad = f"pinned kappa_max {kmax!r} reported as {v['kappa_max']!r}"
        if bad:
            return record(lat, incorrect=bad)
        ratio, miss = ref_ratio(f, self.refs[eta], tol, err)
        return record(lat, ratio=ratio, err_miss=miss)

    # -- in-process ops -------------------------------------------------------

    def inprocess(self, rec: dict) -> dict:
        op, lat = rec["op"], rec["lat"]
        if rec["error"] is not None:
            return record(lat, failed=True, incorrect=None if rec["typed"] else rec["error"])
        v, kind = rec["value"], op["kind"]
        if kind == "exact":
            out = {"eta": v["eta"], "f_eta": v["f"], "err_est": v["err"],
                   "kappa_max": v["kmax"], "n_evals": v["n"]}
            return self._force(lat, out, op["eta"], op["rel_tol"], op["kappa_max"])
        if kind == "fd":
            ratio, _ = ref_ratio(v["f"], self.refs[op["eta"]], FD_TOL, None)
            bad = None if ratio <= 1.0 else f"FD value off by {ratio:.2f} x {FD_TOL} at eta={op['eta']!r}"
            return record(lat, incorrect=bad, ratio=ratio)
        if kind == "ode":
            return record(lat, incorrect=self._ode_error(op["z"], v))
        if kind == "verify":
            return record(lat, incorrect=self._verify_error(v))
        raise ValueError(kind)

    def _ode_error(self, z: float, v: dict) -> str | None:
        import mpmath as mp

        with mp.workdps(30):
            want = {"ai": mp.airyai(z), "aip": mp.airyai(z, 1),
                    "bi": mp.airybi(z), "bip": mp.airybi(z, 1)}
            worst = max(float(abs(v[k] - w) / abs(w)) for k, w in want.items())
        return None if worst <= ODE_TOL else f"ODE oracle off by {worst:.1e} at z={z!r}"

    def _verify_error(self, res: dict) -> str | None:
        if res["code"] != 0:
            return f"verify exited {res['code']}: {res['stderr'][-200:]}"
        try:
            payload = json.loads(res["stdout"])
        except json.JSONDecodeError as exc:
            return f"verify --json is not JSON: {exc}"
        bad = self._schema_errors("verify_report", payload)
        if bad is None and payload.get("all_passed") is not True:
            bad = "verify did not report all_passed"
        return bad

    # -- cli subprocess ops ---------------------------------------------------

    def cli(self, rec: dict) -> dict:
        op, lat, code = rec["op"], rec["lat"], rec["code"]
        if code != 0:
            bad = None if code == 1 else f"exit {code}: {rec['stderr'][-200:]}"
            return record(lat, failed=True, incorrect=bad)
        kind, out = op["kind"], rec["stdout"]
        if kind in ("exact_eta", "exact_ab"):
            try:
                payload = json.loads(out)
            except json.JSONDecodeError as exc:
                return record(lat, incorrect=f"exact --json is not JSON: {exc}")
            bad = self._schema_errors("force_result", payload)
            if bad is None and kind == "exact_ab":
                want = payload["f_eta"] / (op["a"] * op["a"])
                if payload.get("t_xx") != want:
                    bad = f"t_xx={payload.get('t_xx')!r}, expected f/a^2={want!r}"
            if bad:
                return record(lat, incorrect=bad)
            return self._force(lat, payload, op["eta"], DEFAULT_REL_TOL)
        if kind == "classic":
            m = re.search(r"rel_diff\s*=\s*(\S+)", out)
            ok = m is not None and float(m.group(1)) <= 1e-8
            return record(lat, incorrect=None if ok else f"classic output: {out!r}")
        if kind == "perturb":
            inc = re.search(r"increase\s*=\s*(\S+)", out)
            exp = re.search(r"ln 2 = (\S+)", out)
            ok = inc and exp and abs(float(inc.group(1)) / float(exp.group(1)) - 1.0) <= 5e-2
            return record(lat, incorrect=None if ok else f"perturb output: {out!r}")
        if kind in ("curve", "curve_cache"):
            if "out" not in rec["files"]:
                return record(lat, incorrect="curve wrote no CSV")
            return self._curve(lat, rec["files"]["out"])
        if kind == "plot":
            svg = rec["files"].get("output", b"")
            pts = re.search(rb'<polyline[^>]* points="([^"]*)"', svg)
            ok = svg.startswith(b"<svg") and pts and len(pts.group(1).split()) == inputs.CURVE_POINTS
            return record(lat, incorrect=None if ok else "plot SVG lacks the 25-point polyline")
        raise ValueError(kind)

    def _curve(self, lat, data: bytes) -> dict:
        lines = data.decode().split("\n")
        grid = inputs.curve_grid()
        if lines[0] != CSV_HEADER or len(lines) != len(grid) + 2 or lines[-1] != "":
            return record(lat, incorrect="curve CSV has the wrong header or row count")
        worst, miss = 0.0, False
        for line, eta in zip(lines[1:], grid):
            e, f, err, _, _ = (float(x) for x in line.split(","))
            if e != eta:
                return record(lat, incorrect=f"curve row eta {e!r}, expected {eta!r}")
            ratio, m = ref_ratio(f, self.refs[eta], DEFAULT_REL_TOL, err)
            worst, miss = max(worst, ratio), miss or m
        return record(lat, ratio=worst, err_miss=miss)


def same_bytes(groups: dict[str, bytes]) -> str | None:
    """None when every curve file of a round is byte-identical to the --jobs 1 one."""
    base = groups["curve-j1.csv"]
    for name, data in groups.items():
        if data != base:
            return f"{name} differs from curve-j1.csv"
    return None
