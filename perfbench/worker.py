"""Child process that runs the in-process side of one workload.

    python3 perfbench/worker.py <spec.json>

Prints `ready` once `casimir_plate` is imported and one warm-up force has
finished (the parent times set-up up to that line).  In-process workloads
then print `gap <seconds>` before each op and once after the last, and read
`go <loop seconds>` back (see parent_gap).  The last line is one JSON line
with the op records and, when tracing, the per-layer counters.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
from tracer import Tracer, install  # noqa: E402

# Hard stop for the fixed op lists; ops not started are reported as failed.
BUDGET_S = 120.0
# float64 arrays touched per node by one band solve: grid, q, rhs, two
# stencil diagonals, the 3-row band matrix and the solution (a model, not a
# measurement).
BYTES_PER_NODE = 9 * 8


def parent_gap(wait: float) -> tuple[float, float]:
    """Hand at least `wait` seconds to the parent; returns (its loop time, our CPU seconds).

    The parent runs the calibration loop in its own interpreter (at least
    calib.MIN_SAMPLES times, and until `wait` has passed) while this process
    blocks on the reply, so nothing this process runs shares an interpreter
    with the loop.  The reply is the gap's median loop time; the CPU time
    this process (any thread of it) used meanwhile is returned beside it.
    """
    cpu0 = time.process_time()
    print(f"gap {wait!r}", flush=True)
    cal = float(sys.stdin.readline().split()[1])
    return cal, time.process_time() - cpu0


def run_pass(cp, op_list, tracer=None, window: float = 0.0,
             gap=None) -> tuple[list[dict], float]:
    """Closed loop, one client: each op starts when the previous one returns.

    With `gap` (parent_gap), every op is preceded by a calibration gap, and
    op i starts no earlier than i * window / n seconds after the first: the
    ops are spread over the window, and a run samples the machine's speed
    across all of it rather than during one short burst.  The gap is think
    time, not op time.  Each record carries `gap_cal`, the loop time of the
    gap before it, and `gap_cpu`, the CPU time this process used during that
    gap; the parent rescales every op from its own samples.
    """
    records = []
    t_start = time.perf_counter()
    slot = window / max(len(op_list), 1)
    for i, op in enumerate(op_list):
        cal, cpu = gap(t_start + i * slot - time.perf_counter()) if gap else (None, None)
        if time.perf_counter() - t_start > BUDGET_S:
            records.append({"op": op, "lat": 0.0, "error": "NotStarted: time budget spent",
                            "typed": False, "value": None, "gap_cal": cal, "gap_cpu": cpu})
            continue
        if tracer is not None:
            tracer.op_id = i
            tracer.begin("op")
        t0 = time.perf_counter()
        error, typed, value = None, False, None
        try:
            value = ops.execute(cp, op)
        except cp.CasimirError as exc:
            error, typed = f"{type(exc).__name__}: {exc}", True
        except Exception as exc:  # an untyped error is a defect; record it and go on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        records.append({"op": op, "lat": t1 - t0, "error": error, "typed": typed,
                        "value": value, "gap_cal": cal, "gap_cpu": cpu})
    return records, time.perf_counter() - t_start


def scaled_s(records) -> float:
    """Op time at reference speed, estimated from the gap before each op."""
    return sum(calib.scale(r["lat"], r["gap_cal"]) for r in records)


def run_cli_pass(cli_mod, groups, out_dir, tracer=None) -> tuple[list[dict], float]:
    records = []
    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for i, op in enumerate(o for g in groups for o in g):
            argv = ops.cli_argv(op, workdir, jobs_cap=1)
            if tracer is not None:
                tracer.op_id = i
                tracer.begin("op")
            t0 = time.perf_counter()
            res = ops.run_cli_main(cli_mod, argv)
            lat = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            records.append({"op": op, "lat": lat, "code": res["code"]})
    return records, time.perf_counter() - t_start


def layer_metrics(tr: Tracer, n_ops: int, op_ns: int) -> dict:
    c, calls, self_ns, total_ns = tr.counts, tr.calls, tr.self_ns, tr.total_ns
    n = max(n_ops, 1)

    def share(num, den):
        return num / den if den else 0.0

    nodes = c["oracle_ode.grid_nodes"]
    out = {
        "airy_engine.calls": c["airy_engine.calls"] / n,
        "airy_engine.series_share": share(c["airy_engine.series"], c["airy_engine.calls"]),
        "airy_engine.self_us": (self_ns["airy_engine.airy_eval"] + self_ns["airy_engine.log_deriv"]) / n / 1e3,
        "airy_engine.ode_oracle_calls": calls["airy_engine.ode_oracle"] / n,
        "airy_engine.ode_oracle_self_share": share(self_ns["airy_engine.ode_oracle"], op_ns),
        "stress_kernel.integrand_calls": calls["stress_kernel.integrand_net"] / n,
        "stress_kernel.integrand_self_us": (self_ns["stress_kernel.integrand_net"]
                                            + self_ns["stress_kernel.integrand_side"]) / n / 1e3,
        "stress_kernel.segments": c["stress_kernel.segments"] / n,
        "stress_kernel.tail_checks": c["stress_kernel.tail_checks"] / n,
        "stress_kernel.tail_accept_ratio": share(c["stress_kernel.tail_ok"], c["stress_kernel.tail_checks"]),
        "quadrature.panels": c["quadrature.evals"] / 15 / n,
        "quadrature.self_share": share(self_ns["quadrature.integrate"]
                                       + self_ns["quadrature.integrate_semi_infinite"], op_ns),
        "quadrature.unconverged_share": share(c["quadrature.unconverged"], c["quadrature.calls"]),
        "greens.calls": c["greens.calls"] / n,
        "greens.self_share": share(self_ns["greens.eval"], op_ns),
        "oracle_ode.fd_integrand_calls": c["oracle_ode.fd_integrand_calls"] / n,
        "oracle_ode.grid_nodes": nodes / n,
        "oracle_ode.bytes_computed": nodes * BYTES_PER_NODE / n,
        "oracle_ode.self_share": share(self_ns["oracle_ode.integrand_from_fd"], op_ns),
        "verify.checks_failed": c["verify.checks_failed"],
    }
    for suite in ("airy", "greens", "stress"):
        out[f"verify.suite_share.{suite}"] = share(total_ns[f"verify.suite.{suite}"], op_ns)
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    out_dir = spec["out_dir"]
    sys.path.insert(0, spec["src"])
    import casimir_plate as cp

    cp.force_exact(inputs.WARMUP_ETA)
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0

    w, seed, trace = spec["workload"], spec["seed"], spec["trace"]
    rng = random.Random(seed)
    result: dict = {}
    if w in ("sweep", "edge"):
        # a traced run measures the list once without the window, then
        # again under the tracer
        op_list = inputs.sweep_ops(seed) if w == "sweep" else inputs.edge_ops(seed)
        records, wall = run_pass(cp, op_list, window=0.0 if trace else spec["seconds"],
                                 gap=parent_gap)
        parent_gap(0.0)
    elif w == "oracle":
        # verify once, then whole rounds while the run's seconds of op time
        # at reference speed last (so the round count does not follow the
        # host's speed); a traced run makes one round and repeats it under
        # the tracer
        op_list = [{"kind": "verify"}]
        records, wall = run_pass(cp, op_list, gap=parent_gap)
        while len(op_list) == 1 or (not trace and scaled_s(records) < spec["seconds"]):
            batch = inputs.oracle_round(rng)
            more, dt = run_pass(cp, batch, gap=parent_gap)
            records += more
            wall += dt
            op_list += batch
        parent_gap(0.0)
    elif w == "cli":
        import casimir_plate.cli as cli_mod
        groups = inputs.cli_round(rng)
        records, wall = run_cli_pass(cli_mod, groups, out_dir)
    else:
        raise ValueError(f"unknown workload {w!r}")
    result["records"] = records
    result["wall"] = wall
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        tracer = Tracer()
        restore = install(tracer)
        try:
            if w == "cli":
                t_records, _ = run_cli_pass(cli_mod, groups, out_dir, tracer)
            else:
                t_records, _ = run_pass(cp, op_list, tracer)
        finally:
            restore()
        # op time only: the untraced pass also holds calibration gaps
        n = len(t_records)
        op_s, t_op_s = (sum(r["lat"] for r in recs) for recs in (records, t_records))
        layers = layer_metrics(tracer, n, tracer.total_ns["op"])
        layers["trace.ops_per_s"] = n / t_op_s
        layers["trace.overhead"] = t_op_s / n / (op_s / len(records))
        if w == "cli":
            result["main_s"] = sum(r["lat"] for r in records) / len(records)
        result["layers"] = layers
        result["traced_records"] = t_records
        path = os.path.join(out_dir, f"spans-{w}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                       "dropped": tracer.dropped, "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
