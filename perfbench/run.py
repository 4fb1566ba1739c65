"""casimir-plate benchmark: four workloads through the public API and the CLI.

    python3 perfbench/run.py --workload {sweep,edge,cli,oracle} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  The package is imported from ./src; nothing
is installed.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced pass.  `all` runs every workload both ways and prints the
tables.  Every answer is checked (mpmath references, JSON schemas, byte
identity of curve CSVs, `verify` reporting all_passed); a check that cannot
run stops the benchmark with exit code 2 and no result.  Exit code 1 means
the result was printed but some output was wrong.

See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("sweep", "edge", "cli", "oracle")
# set-up samples per run: taken before and after the measured ops, so the
# median spans the run rather than one moment of a drifting machine
SETUP_BEFORE = 3
SETUP_AFTER = 2
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

class BenchError(Exception):
    """A check or a measurement could not run; no result is printed."""


class Bench:
    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ)
        for name in ("CASIMIR_REL_TOL", "CASIMIR_KAPPA_MAX"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.env.update({v: "1" for v in THREAD_VARS})
        self.refs = load_refs(os.path.join(HERE, "refs.json"))
        schema_dir = os.path.join(root, "docs", "schema")
        schemas = {}
        for name in ("force_result", "verify_report"):
            with open(os.path.join(schema_dir, f"{name}.schema.json")) as fh:
                schemas[name] = json.load(fh)
        self.checker = checks.Checker(self.refs, schemas)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            self.layer_units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}

    # -- child processes --------------------------------------------------

    def worker(self, workload: str, seed: int, seconds: float, mode: str, trace: bool):
        """Spawn a worker; returns (seconds until it reported ready, its result, gaps).

        Before each in-process op the worker asks for a gap (see
        worker.parent_gap); this process runs the calibration loop through
        it.  `gaps` is (samples, spans): the (time, loop_s) samples and, per
        gap, when it was asked for and when it ended, so op i ran between the
        end of gap i and the start of gap i + 1.
        """
        spec = {"workload": workload, "seed": seed, "seconds": seconds, "mode": mode,
                "trace": trace, "src": self.src, "out_dir": self.out_dir}
        fd, spec_path = tempfile.mkstemp(suffix=".json", dir=self.out_dir)
        with os.fdopen(fd, "w") as fh:
            json.dump(spec, fh)
        samples, spans, lines = [], [], []
        try:
            t0 = time.perf_counter()
            with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env,
                                  cwd=self.root, text=True) as proc:
                watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
                watchdog.start()
                try:
                    ready_line = proc.stdout.readline()
                    ready = time.perf_counter() - t0
                    for line in proc.stdout:
                        if not line.startswith("gap "):
                            lines.append(line)
                            continue
                        asked = time.perf_counter()
                        until = asked + float(line.split()[1])
                        first = len(samples)
                        while len(samples) - first < calib.MIN_SAMPLES or time.perf_counter() < until:
                            samples.append((time.perf_counter(), calib.loop_s()))
                        cal = statistics.median(v for _, v in samples[first:])
                        try:
                            proc.stdin.write(f"go {cal!r}\n")
                            proc.stdin.flush()
                        except BrokenPipeError:
                            break
                        spans.append((asked, time.perf_counter()))
                    proc.wait()
                finally:
                    watchdog.cancel()
        finally:
            os.unlink(spec_path)
        if ready_line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}")
        res = json.loads(lines[-1]) if mode == "run" else None
        return ready, res, (samples, spans)

    def cli(self, argv: list[str]) -> dict:
        cmd = [sys.executable, "-m", "casimir_plate.cli"] + argv
        cal0 = calib.sample()
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=CHILD_TIMEOUT_S)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, "", "timed out"
        lat = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
        cal = 0.5 * (cal0 + calib.sample())
        return {"lat": calib.scale(lat, cal), "lat_raw": lat, "code": code,
                "stdout": out, "stderr": err, "cpu": cpu}

    def import_times(self) -> dict:
        """Cumulative import seconds of two layer modules, median of fresh interpreters."""
        probes = {"casimir_plate.airy_engine": [], "casimir_plate.cli": []}
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import casimir_plate.cli"],
                                  capture_output=True, text=True, env=self.env, cwd=self.root,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"import probe failed: {proc.stderr[-300:]}")
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)$", line)
                if m and m.group(2) in probes:
                    probes[m.group(2)].append(int(m.group(1)) / 1e6)
        if any(len(v) != IMPORT_PROBES for v in probes.values()):
            raise BenchError("import probe did not list both layer modules")
        return {"airy_engine.import_s": statistics.median(probes["casimir_plate.airy_engine"]),
                "cli.import_s": statistics.median(probes["casimir_plate.cli"])}

    # -- workloads --------------------------------------------------------

    def inprocess(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        # One CPU for this process and the workers it spawns, so the
        # calibration loop (run here, in its own interpreter) times the core
        # the ops run on.  Five sweep seeds, IQR/median of ops_per_s and
        # op_tail_ms: 0.044 and 0.17 pinned, 0.064 and 0.30 unpinned.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            return self._inprocess(workload, seed, seconds, trace)
        finally:
            os.sched_setaffinity(0, cpus)

    def _inprocess(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        def sample():
            cal0 = calib.sample()
            ready = self.worker(workload, seed, seconds, "setup", False)[0]
            return {"lat": calib.scale(ready, 0.5 * (cal0 + calib.sample())), "lat_raw": ready}

        setup = [sample() for _ in range(SETUP_BEFORE - 1)]
        cal0 = calib.sample()
        # the worker goes on with its ops after `ready`, so only the loop
        # before the spawn sets this sample's speed
        ready, res, (samples, spans) = self.worker(workload, seed, seconds, "run", trace)
        setup += [{"lat": calib.scale(ready, cal0), "lat_raw": ready}]
        setup += [sample() for _ in range(SETUP_AFTER)]
        if len(spans) != len(res["records"]) + 1:
            raise BenchError(f"{workload} worker asked for {len(spans)} gaps around "
                             f"{len(res['records'])} ops")
        for i, r in enumerate(res["records"]):
            cal = calib.around(samples, spans[i][1], spans[i + 1][0])
            r["lat_raw"], r["lat"] = r["lat"], calib.scale(r["lat"], cal)
        checked = [self.checker.inprocess(r) for r in res["records"]]
        out = {"checked": checked, "wall": res["wall"], "setup": setup, "rss_mb": res["rss_mb"],
               "raw_lat": [r["lat_raw"] for r in res["records"]]}
        if trace:
            out["extra"] = [self.checker.inprocess(r) for r in res["traced_records"]]
            # CPU the worker used while the loop ran: ~0 unless the program
            # leaves work running between ops, which would slow the loop too
            gap_s = sum(end - asked for asked, end in spans[:-1])
            out["layers"] = dict(res["layers"], **{
                "calib.gap_cpu_share": sum(r["gap_cpu"] for r in res["records"]) / gap_s})
        return out

    def cli_workload(self, seed: int, seconds: float, trace: bool) -> dict:
        def sample():
            return self.cli(["exact", "--eta", repr(inputs.WARMUP_ETA), "--json"])

        setup = [sample() for _ in range(SETUP_BEFORE)]
        rng = random.Random(seed)
        raw, checked = [], []
        t_start = time.perf_counter()
        # whole rounds while the op time at reference speed is under `seconds`,
        # so the round count does not follow the host's speed
        while not raw or (not trace and sum(r["lat"] for r in raw) < seconds):
            round_raw, round_checked = self.cli_round(inputs.cli_round(rng))
            raw += round_raw
            checked += round_checked
        wall = time.perf_counter() - t_start
        setup += [sample() for _ in range(SETUP_AFTER)]
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        out = {"checked": checked, "wall": wall, "setup": setup, "rss_mb": rss_mb,
               "raw_lat": [r["lat_raw"] for r in raw]}
        if trace:
            _, res, _ = self.worker("cli", seed, seconds, "run", True)
            out["extra"] = [checks.record(r["lat"], incorrect=f"in-process cli {r['op']} exited {r['code']}")
                            for r in res["records"] + res["traced_records"] if r["code"] != 0]
            lat = {1: [], 2: []}
            for r in raw:
                if r["op"]["kind"] == "curve":
                    lat[r["op"]["jobs"]].append(r["lat"])
            cache = [r for r in raw if r["op"]["kind"] == "curve_cache"]
            hits = total = 0
            for r in cache:
                m = re.search(r"\((\d+) computed, (\d+) cached\)", r["stdout"])
                if m:
                    hits += int(m.group(2))
                    total += int(m.group(1)) + int(m.group(2))
            op_s = sum(r["lat_raw"] for r in raw) / len(raw)
            out["layers"] = dict(res["layers"], **{
                "cli.main_share": res["main_s"] / op_s,
                "cli.child_cpu_share": sum(r["cpu"] for r in raw) / len(raw) / op_s,
                "cli.pool_overhead_share": statistics.median(lat[2]) / statistics.median(lat[1]) - 1.0,
                "cli.cache_hit_share": hits / total if total else 0.0,
                "cli.bytes_written": sum(r["bytes"] for r in raw) / len(raw),
            })
        return out

    def cli_round(self, groups) -> tuple[list[dict], list[dict]]:
        workdir = tempfile.mkdtemp(dir=self.out_dir)
        try:
            raw = []
            for op in (o for g in groups for o in g):
                argv = ops.cli_argv(op, workdir)
                rec = dict(self.cli(argv), op=op, files={}, out_name=None)
                for flag in ("--out", "--output"):
                    if flag in argv:
                        path = argv[argv.index(flag) + 1]
                        if os.path.exists(path):
                            with open(path, "rb") as fh:
                                rec["files"][flag[2:]] = fh.read()
                            rec["out_name"] = os.path.basename(path)
                rec["bytes"] = sum(len(b) for b in rec["files"].values())
                cache = argv[argv.index("--cache") + 1] if "--cache" in argv else None
                if cache and os.path.exists(cache):
                    rec["bytes"] += os.path.getsize(cache)
                raw.append(rec)
        finally:
            shutil.rmtree(workdir)
        checked = [self.checker.cli(r) for r in raw]
        curves = {r["out_name"]: r["files"]["out"] for r in raw
                  if r["op"]["kind"] in ("curve", "curve_cache") and "out" in r["files"]}
        bad = checks.same_bytes(curves) if len(curves) == 4 else "a curve command wrote no CSV"
        if bad:
            for r, c in zip(raw, checked):
                if r["op"]["kind"] in ("curve", "curve_cache"):
                    c.update(failed=True, incorrect=bad)
        return raw, checked

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        if workload == "cli":
            res = self.cli_workload(seed, seconds, trace)
        else:
            res = self.inprocess(workload, seed, seconds, trace)
        metrics, detail = stats.end_to_end(res["checked"], res["wall"],
                                           [s["lat"] for s in res["setup"]], res["rss_mb"])
        wrong = [c["incorrect"] for c in res["checked"] + res.get("extra", []) if c["incorrect"]]
        if not math.isfinite(metrics["max_err_over_tol"][0]):
            wrong.append("no reference-checked op succeeded")
        lats = res["raw_lat"]
        detail.update(raw_p50_ms=1e3 * statistics.median(lats), raw_ops_per_s=len(lats) / sum(lats),
                      raw_setup_s=statistics.median(s["lat_raw"] for s in res["setup"]))
        if trace:
            # the times as measured next to the factor that scaled them, so a
            # gap between the JSON's times and the host's is visible
            factors = [c["lat"] / raw for c, raw in zip(res["checked"], lats) if raw > 0]
            measured = {"measured.setup_s": detail["raw_setup_s"],
                        "measured.op_p50_ms": detail["raw_p50_ms"],
                        "measured.ops_per_s": detail["raw_ops_per_s"],
                        "calib.scale": statistics.median(factors)}
            layers = {name: 0.0 for name in self.layer_units}
            for part in (res["layers"], self.import_times(), measured):
                unknown = set(part) - set(layers)
                if unknown:
                    raise BenchError(f"per_layer in BENCHMARK.json lacks {sorted(unknown)}")
                layers.update(part)
            res["layers"] = layers
        res.update(metrics=metrics, detail=detail, wrong=wrong)
        return res


def load_refs(path: str) -> dict[float, float]:
    with open(path) as fh:
        rows = json.load(fh)["refs"]
    refs = {r["eta"]: float(r["f"]) for r in rows}
    missing = [e for e in inputs.reference_etas() if e not in refs]
    if missing:
        raise BenchError(f"{len(missing)} etas lack a reference, e.g. {missing[0]!r}; rerun refgen.py")
    return refs


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "jsonschema": version("jsonschema"), "threads_per_child": 1, "clients": 1, "max_jobs": 2,
        "not_used": "no CPU frequency pinning, no file-cache dropping, no system-wide tracing",
    }


def print_result(workload: str, seed: int, trace: bool, res: dict, units: dict) -> None:
    d = res["detail"]
    print(f"# workload={workload} seed={seed} trace={int(trace)} ops={d['ops']} "
          f"failed={d['failed']} fail_share={d['fail_share']:.4f} wall={d['wall_s']:.2f}s")
    print(f"# times below are at reference speed (calib.py); as measured: "
          f"setup_s={d['raw_setup_s']:.6g} op_p50_ms={d['raw_p50_ms']:.6g} "
          f"ops_per_s={d['raw_ops_per_s']:.6g}")
    for name, (value, unit) in res["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"p{d['tail_percentile']:.1f}, {d['tail_beyond']} of {d['ops']} beyond"
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{s:.3f}" for s in d["setup_samples"])
        elif name == "tol_hit_share":
            note = f"{d['tol_misses']} of {d['ref_checked']} reference-checked ops over tol"
        elif name == "err_est_hold_share":
            note = f"{d['err_est_misses']} of {d['err_est_checked']} errors beyond err_est"
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    for name, value in res.get("layers", {}).items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for reason in res["wrong"][:5]:
        print(f"# WRONG: {reason}")


def result_json(res: dict, trace: bool, units: dict) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    return {"correct": not res["wrong"], "attempted": res["detail"]["ops"],
            "failed": res["detail"]["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="casimir-plate benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        for rel in ("BENCHMARK.json", "src/casimir_plate/__init__.py",
                    "docs/schema/force_result.schema.json",
                    "docs/schema/verify_report.schema.json"):
            if not os.path.isfile(os.path.join(root, rel)):
                raise BenchError(f"{rel} not found; run from the repository root")
        try:
            import jsonschema  # noqa: F401
            import mpmath  # noqa: F401
        except ImportError as exc:
            raise BenchError(f"output checks need {exc.name}") from None
        bench = Bench(root)
        print("# env " + json.dumps(environment(), sort_keys=True))
        if args.workload != "all":
            res = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
            print_result(args.workload, args.seed, bool(args.trace), res, bench.layer_units)
            out = result_json(res, bool(args.trace), bench.layer_units)
            print(json.dumps(out))
            return 0 if out["correct"] else 1
        combined = {}
        # cli first: its peak_rss_mb reads the largest child of this process
        for w in ("cli",) + tuple(w for w in WORKLOADS if w != "cli"):
            for trace in (False, True):
                res = bench.run(w, args.seed, args.seconds, trace)
                print_result(w, args.seed, trace, res, bench.layer_units)
                combined[f"{w}{'/trace' if trace else ''}"] = result_json(res, trace, bench.layer_units)
        print(json.dumps(combined))
        return 0 if all(r["correct"] for r in combined.values()) else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
