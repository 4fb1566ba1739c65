"""Tests of the benchmark's own machinery (not of casimir_plate).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calib  # noqa: E402
import checks  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, install  # noqa: E402


# -- percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 20, 25, 50, 480])
def test_tail_has_ten_samples_beyond(n):
    xs = [float(i) for i in range(n)]
    value, pct, beyond = stats.tail(xs[::-1])
    assert sum(x > value for x in xs) == beyond == 10
    # the next sample up would leave only nine beyond it
    assert sum(x > value + 1.0 for x in xs) == 9
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_too_few_samples_is_the_max():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# -- self time --------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # parent [0, 100]; a [10, 30]; b [40, 70] with grandchild g [45, 55]
    tr = Tracer(clock=FakeClock([0, 10, 30, 40, 45, 55, 70, 100]))
    tr.begin("parent")
    tr.begin("a")
    tr.end()
    tr.begin("b")
    tr.begin("g")
    tr.end()
    tr.end()
    tr.end()
    assert tr.self_ns == {"parent": 50, "a": 20, "b": 20, "g": 10}
    assert tr.total_ns == {"parent": 100, "a": 20, "b": 30, "g": 10}
    by_name = {s[1]: s for s in tr.spans}
    assert by_name["g"][4] == by_name["b"][0]
    assert by_name["a"][4] == by_name["b"][4] == by_name["parent"][0]
    assert by_name["parent"][4] is None


def test_span_ends_when_wrapped_call_raises():
    tr = Tracer(clock=FakeClock([0, 5]))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "boom")()
    assert tr.calls["boom"] == 1 and tr.total_ns["boom"] == 5 and not tr._stack


def test_install_reaches_consumer_bindings_and_restores():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import casimir_plate as cp
    from casimir_plate import airy_engine, stress_kernel

    originals = (cp.force_exact, stress_kernel.airy_eval, airy_engine.airy_eval,
                 stress_kernel.integrate_finite)
    tr = Tracer()
    restore = install(tr)
    try:
        for wrapped in (stress_kernel.airy_eval, airy_engine.airy_eval):
            assert wrapped is not originals[1] and wrapped.__wrapped__ is originals[1]
        cp.force_exact(1.0)
    finally:
        restore()
    assert (cp.force_exact, stress_kernel.airy_eval, airy_engine.airy_eval,
            stress_kernel.integrate_finite) == originals
    assert tr.calls["stress_kernel.force"] == 1
    assert tr.counts["airy_engine.calls"] > 0
    assert tr.counts["stress_kernel.segments"] >= 1
    assert tr.counts["quadrature.evals"] % 15 == 0


# -- failures are counted, not dropped -------------------------------------------------


class FakeError(Exception):
    pass


def fake_package(fail_at):
    def force_exact(eta, spec):
        if eta == fail_at:
            raise FakeError("did not converge")
        if eta < 0:
            raise ZeroDivisionError("untyped")
        return types.SimpleNamespace(eta=eta, f_eta=REFS[eta], err_est=1e-12,
                                     kappa_max=10.0, n_evals=15)

    return types.SimpleNamespace(CasimirError=FakeError, force_exact=force_exact,
                                 QuadratureSpec=lambda **kw: kw)


REFS = {1.0: 0.11450293526930285, 2.0: 0.2, -1.0: 1.0}


def load_checker():
    schemas = {}
    for name in ("force_result", "verify_report"):
        with open(os.path.join(ROOT, "docs", "schema", f"{name}.schema.json")) as fh:
            schemas[name] = json.load(fh)
    return checks.Checker(REFS, schemas)


def exact_op(eta, tol=1e-9):
    return {"kind": "exact", "eta": eta, "rel_tol": tol, "kappa_max": None}


def test_raising_op_is_counted_as_failed():
    records, wall = worker.run_pass(fake_package(fail_at=2.0), [exact_op(1.0), exact_op(2.0)])
    assert len(records) == 2 and records[1]["typed"]
    checked = [load_checker().inprocess(r) for r in records]
    metrics, detail = stats.end_to_end(checked, wall, [1.0], 50.0)
    assert detail["ops"] == 2 and detail["failed"] == 1
    assert metrics["ok_share"][0] == 0.5
    assert checked[1]["incorrect"] is None  # a typed refusal is not a wrong answer


def test_untyped_exception_is_failed_and_incorrect():
    records, _ = worker.run_pass(fake_package(fail_at=None), [exact_op(-1.0)])
    rec = load_checker().inprocess(records[0])
    assert rec["failed"] and "ZeroDivisionError" in rec["incorrect"]


# -- calibration ---------------------------------------------------------------------


def test_every_op_follows_a_gap_and_is_scaled_by_the_samples_around_it():
    waits = []

    def gap(wait):
        waits.append(wait)
        return 1e-3, 0.0

    records, _ = worker.run_pass(fake_package(fail_at=None), [exact_op(1.0), exact_op(2.0)], gap=gap)
    assert len(waits) == 2 and [r["gap_cal"] for r in records] == [1e-3, 1e-3]
    samples = [(0.0, 9.0), (1.0, 1e-3), (1.2, 3e-3), (1.3, 2e-3), (2.0, 9.0)]
    assert calib.around(samples, 1.1, 1.2) == 2e-3  # 0.85..1.45 holds three samples
    assert calib.scale(2.0, 2 * calib.REF_S) == 1.0


# -- reference check ----------------------------------------------------------------


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_reference_check_flags_value_perturbed_beyond_rel_tol(tol):
    checker = load_checker()
    ref = REFS[1.0]

    def check(f):
        rec = {"op": exact_op(1.0, tol), "lat": 1e-3, "error": None, "typed": False,
               "value": {"eta": 1.0, "f": f, "err": 0.75 * tol * ref, "kmax": 10.0, "n": 15}}
        return checker.inprocess(rec)

    inside, outside = check(ref * (1 + 0.5 * tol)), check(ref * (1 + 2.0 * tol))
    assert inside["ratio"] <= 1.0 and not inside["err_miss"]
    assert outside["ratio"] > 1.0 and outside["err_miss"]
    metrics, detail = stats.end_to_end([inside, outside], 1.0, [1.0], 50.0)
    assert detail["tol_misses"] == 1
    assert metrics["tol_hit_share"][0] == 0.5
    assert metrics["max_err_over_tol"][0] == pytest.approx(2.0, rel=1e-3)


def test_curve_files_must_match_byte_for_byte():
    same = {"curve-j1.csv": b"a", "curve-j2.csv": b"a", "curve-cold.csv": b"a"}
    assert checks.same_bytes(same) is None
    assert "curve-j2.csv" in checks.same_bytes(dict(same, **{"curve-j2.csv": b"b"}))


def test_benchmark_json_lists_what_run_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics, _ = stats.end_to_end(
        [checks.record(1e-3, ratio=0.5, err_miss=False)], 1.0, [1.0], 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
