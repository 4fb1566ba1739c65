"""Machine-speed calibration for every timing the benchmark reports.

The benchmark runs on a shared host whose speed drifts: a fixed pure-Python
loop runs 1.5-2x slower in some spells of a few seconds than in others, and
cold CLI starts moved by 45% between runs an hour apart.  The parent process
times this loop right before and right after each op (or set-up), in its own
interpreter while the process under test waits, and scales the measured time
by REF_S / (loop time) to report the time the op would take at the reference
speed.  Measured over 60 s of sweep ops, raw per-6-s medians moved by ±23%
while the scaled ones moved by ±2%; over 150 s of cold `exact` starts, raw
per-15-s medians moved by ±11% and scaled ones by ±2%.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_S = 0.5e-3  # loop time that defines the reference speed
_N = 4000
# loop samples taken at least in each gap between two in-process ops, and
# the reach of the window around an op whose samples set its speed: long
# enough to average the loop's millisecond jitter, short against the
# seconds-long spells of a slower or faster host
MIN_SAMPLES = 4
HALF_S = 0.25


def loop_s() -> float:
    """Median of three timings of a fixed float loop (about 0.5 ms each)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(_N):
            s += (i * 0.5) ** 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sample() -> float:
    """Median of four loop timings: the speed estimate around one op."""
    return statistics.median(loop_s() for _ in range(4))


def around(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Median loop time of the (time, loop_s) samples from HALF_S before start to HALF_S after end."""
    lo = bisect.bisect_left(samples, start - HALF_S, key=lambda s: s[0])
    hi = bisect.bisect_right(samples, end + HALF_S, key=lambda s: s[0])
    return statistics.median(v for _, v in samples[lo:hi])


def scale(seconds: float, cal: float) -> float:
    """A time measured while the loop took `cal`, at the reference speed."""
    return seconds * REF_S / cal
