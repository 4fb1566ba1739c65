"""Turning op records into the end-to-end metrics; pure functions, no I/O."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with >= 10 samples beyond.

    With n sorted samples that is the value at 0-based index n - 11: ten
    samples lie above it.  Fewer than 11 samples have no such percentile;
    the maximum is returned with percentile 100 and 0 samples beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def ref_ratio(f: float, ref: float, tol: float, err_est: float | None) -> tuple[float, bool | None]:
    """(|f - ref| / (tol |ref|), whether |f - ref| exceeds err_est)."""
    diff = abs(f - ref)
    miss = None if err_est is None else diff > err_est
    return diff / (tol * abs(ref)), miss


def end_to_end(checked: list[dict], wall: float, setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    """Metrics from checked records (lat, failed, ratio, err_miss); also returns a detail dict.

    ops_per_s counts op time only (the sum of latencies), so the think time
    that spreads sweep and edge ops over a run does not enter it.
    Failed ops stay in every count.  Shares of reference-checked ops use each
    op that returned a value and has a reference; the maximum error ratio uses
    those that also passed their checks.  A share with no op behind it is 1.
    """
    lats = [r["lat"] for r in checked]
    n = len(checked)
    failed = sum(r["failed"] for r in checked)
    ratios = [r for r in checked if r["ratio"] is not None]
    ok_ratios = [r["ratio"] for r in ratios if not r["failed"]]
    est = [r for r in ratios if r["err_miss"] is not None]
    tail_ms, pct, beyond = tail(lats)

    def hold(rows, key):
        return 1.0 - sum(bool(key(r)) for r in rows) / len(rows) if rows else 1.0

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (n / sum(lats), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lats), "ms"),
        "op_tail_ms": (1e3 * tail_ms, "ms"),
        "ok_share": (1.0 - failed / n, "ratio"),
        "max_err_over_tol": (max(ok_ratios) if ok_ratios else math.nan, "ratio"),
        "tol_hit_share": (hold(ratios, lambda r: r["ratio"] > 1.0), "ratio"),
        "err_est_hold_share": (hold(est, lambda r: r["err_miss"]), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "ops": n, "failed": failed, "fail_share": failed / n,
        "tail_percentile": pct, "tail_beyond": beyond,
        "ref_checked": len(ratios), "tol_misses": sum(r["ratio"] > 1.0 for r in ratios),
        "err_est_checked": len(est), "err_est_misses": sum(bool(r["err_miss"]) for r in est),
        "setup_samples": setup, "wall_s": wall,
    }
    return metrics, detail
