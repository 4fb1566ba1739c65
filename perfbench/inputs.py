"""Workload inputs: the committed eta pools and the seeded op lists built from them.

Every eta an op can see is listed here, so `refgen.py` can compute its mpmath
reference and `run.py` can refuse to start when one is missing.  The seed sets
the order of ops and, where a workload draws (cli `exact` etas and plate
heights, oracle Airy arguments), the draw; it never changes how many ops of
each kind a run makes, so pass/fail counts and accuracy maxima do not depend
on the seed.
"""

from __future__ import annotations

import random

SWEEP_POOL_SIZE = 240
SWEEP_TOLS = (1e-6, 1e-9)


def sweep_pool() -> list[float]:
    """log-uniform grid over [1e-3, 1e6], endpoints included."""
    n = SWEEP_POOL_SIZE
    return [10.0 ** (-3.0 + 9.0 * i / (n - 1)) for i in range(n)]


def _mid_pool(stride: int, offset: int) -> list[float]:
    """Every stride-th sweep-pool eta in [1e-2, 1e2], taken by position, not by outcome."""
    mid = [eta for eta in sweep_pool() if 1e-2 <= eta <= 1e2]
    return mid[offset::stride]


# (eta, rel_tol, pinned kappa_max).  Inputs the docs allow where the adaptive
# cutoff loop or the quadrature runs out: tiny and huge eta, rel_tol below
# 1e-9, pinned cutoffs.
EDGE_CASES = (
    [(eta, 1e-9, None) for eta in (1e-8, 1e-6, 1.47e-4, 5e-4, 3e6, 1e7, 1e8, 1e9, 1e12)]
    + [(eta, 1e-10, None) for eta in _mid_pool(3, 0)]
    + [(eta, 1e-11, None) for eta in (0.01, 0.1, 1.0, 10.0, 100.0)]
    + [(1.0, 1e-12, None)]
    + [(eta, 1e-9, 5.0) for eta in _mid_pool(9, 1)]
    + [(1.0, 1e-6, 5.0), (1.0, 1e-9, 1e5)]
)

# The 25-point curve every cli round writes; same grid formula as `cli curve`.
CURVE_ETA_MIN = 1e-2
CURVE_ETA_MAX = 1e2
CURVE_POINTS = 25


def curve_grid() -> list[float]:
    ratio = CURVE_ETA_MAX / CURVE_ETA_MIN
    return [CURVE_ETA_MIN * ratio ** (i / (CURVE_POINTS - 1)) for i in range(CURVE_POINTS)]


ORACLE_FD_ETAS = (0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
ORACLE_ODE_PER_ROUND = 6
ODE_Z_MAX = 50.0

# Force a fresh interpreter computes once before the first timed op.
WARMUP_ETA = 1.0


def reference_etas() -> list[float]:
    etas = set(sweep_pool()) | {c[0] for c in EDGE_CASES} | set(curve_grid())
    etas |= set(ORACLE_FD_ETAS) | {WARMUP_ETA}
    return sorted(etas)


def sweep_ops(seed: int) -> list[dict]:
    ops = [{"kind": "exact", "eta": eta, "rel_tol": tol, "kappa_max": None}
           for eta in sweep_pool() for tol in SWEEP_TOLS]
    random.Random(seed).shuffle(ops)
    return ops


def edge_ops(seed: int) -> list[dict]:
    ops = [{"kind": "exact", "eta": eta, "rel_tol": tol, "kappa_max": km}
           for eta, tol, km in EDGE_CASES]
    random.Random(seed).shuffle(ops)
    return ops


def oracle_round(rng: random.Random) -> list[dict]:
    ops = [{"kind": "fd", "eta": eta} for eta in ORACLE_FD_ETAS]
    ops += [{"kind": "ode", "z": rng.uniform(0.0, ODE_Z_MAX)} for _ in range(ORACLE_ODE_PER_ROUND)]
    rng.shuffle(ops)
    return ops


def cli_round(rng: random.Random) -> list[list[dict]]:
    """One round of cli commands, as groups whose inner order is fixed.

    `exact` etas are drawn from the curve grid, so every value a round
    produces has a reference and repeats a curve row bit for bit.
    """
    grid = curve_grid()
    k = rng.choice((-1, 0, 1, 2))  # a = 2**k keeps b*a**3 == eta exact
    eta_ab = rng.choice(grid)
    groups = [
        [{"kind": "exact_eta", "eta": rng.choice(grid)}],
        [{"kind": "exact_ab", "a": 2.0 ** k, "b": eta_ab / 8.0 ** k, "eta": eta_ab}],
        [{"kind": "classic", "a": rng.choice((0.5, 1.0, 2.0))}],
        [{"kind": "perturb", "a": 1.0, "b": rng.choice((0.5, 1.0, 2.0)), "k_min": 1e-2}],
        [{"kind": "curve", "jobs": 1}, {"kind": "plot"}],
        [{"kind": "curve", "jobs": 2}],
        [{"kind": "curve_cache", "warm": False}, {"kind": "curve_cache", "warm": True}],
    ]
    rng.shuffle(groups)
    return groups
