"""How one op runs: in-process calls (worker side) and cli command lines (both sides)."""

from __future__ import annotations

import contextlib
import io
import os

from inputs import CURVE_ETA_MAX, CURVE_ETA_MIN, CURVE_POINTS


def cli_argv(op: dict, workdir: str, jobs_cap: int | None = None) -> list[str]:
    """Arguments after `python -m casimir_plate.cli` for one cli op.

    Files go to `workdir`; jobs_cap lowers --jobs (in-process tracing runs
    every curve with --jobs 1, since pool workers' spans are not seen).
    """
    kind = op["kind"]
    if kind == "exact_eta":
        return ["exact", "--eta", repr(op["eta"]), "--json"]
    if kind == "exact_ab":
        return ["exact", "--a", repr(op["a"]), "--b", repr(op["b"]), "--json"]
    if kind == "classic":
        return ["classic", "--a", repr(op["a"])]
    if kind == "perturb":
        return ["perturb", "--a", repr(op["a"]), "--b", repr(op["b"]), "--k-min", repr(op["k_min"])]
    if kind == "plot":
        return ["plot", "--input", os.path.join(workdir, "curve-j1.csv"),
                "--output", os.path.join(workdir, "curve.svg"), "--log-x"]
    curve = ["curve", "--eta-min", repr(CURVE_ETA_MIN), "--eta-max", repr(CURVE_ETA_MAX),
             "--points", str(CURVE_POINTS)]
    if kind == "curve":
        jobs = op["jobs"] if jobs_cap is None else min(op["jobs"], jobs_cap)
        return curve + ["--jobs", str(jobs), "--out", os.path.join(workdir, f"curve-j{op['jobs']}.csv")]
    if kind == "curve_cache":
        name = "warm" if op["warm"] else "cold"
        return curve + ["--out", os.path.join(workdir, f"curve-{name}.csv"),
                        "--cache", os.path.join(workdir, "cache.json")]
    raise ValueError(f"not a cli op: {kind!r}")


def run_cli_main(cli_mod, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def execute(cp, op: dict) -> dict:
    """Run one in-process op through the package's public names.

    Names are looked up at call time, so tracing wrappers installed on the
    package attributes see the call.
    """
    kind = op["kind"]
    if kind == "exact":
        spec = cp.QuadratureSpec(rel_tol=op["rel_tol"], kappa_max_policy=op["kappa_max"])
        r = cp.force_exact(op["eta"], spec)
        return {"eta": r.eta, "f": r.f_eta, "err": r.err_est, "kmax": r.kappa_max, "n": r.n_evals}
    if kind == "fd":
        return {"f": cp.force_from_fd(op["eta"])}
    if kind == "ode":
        v = cp.airy_via_ode_oracle(op["z"])
        return {"ai": v.ai, "aip": v.aip, "bi": v.bi, "bip": v.bip}
    if kind == "verify":
        import casimir_plate.cli as cli_mod
        return run_cli_main(cli_mod, ["verify", "--suite", "all", "--json"])
    raise ValueError(f"not an in-process op: {kind!r}")
