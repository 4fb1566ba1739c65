"""Deterministic adaptive quadrature built on a Gauss 7 / Kronrod 15 pair.

Each panel is evaluated once with the 15-point Kronrod rule; the embedded
7-point Gauss value supplies the error estimate.  The interval is never
evaluated as one panel: the first step evaluates its two halves, and the
panel with the worst estimate is then bisected until the summed estimate
meets tolerance.  Panels are ordered by (estimate, left endpoint), a total
order, and the final value is an exact compensated sum over panels, so
identical inputs produce bit-identical results.  That property is
load-bearing: the command-line layer promises byte-identical output across
reruns and worker counts.

Integrand contract: ``f`` takes a 1-D float array of nodes and returns a
sequence of as many values (an array, or a list from a scalar function
wrapped in a comprehension).  It is called once per step, on the 30 nodes
of both halves, in ascending order, so an array integrand pays its
per-call overhead once per step.  The Kronrod and Gauss sums of each panel
run node by node in Python floats in a fixed order, so the result does not
depend on how f computes its values, only on the values themselves.

No rule node ever touches a panel endpoint, so integrands may be left
unevaluated (or singular but integrable) at interval ends.  A panel whose
halves would have a node rounded onto an endpoint is at float resolution
and is not refined further; the result then reports converged=False if
the tolerance was not met.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "QuadratureSpec",
    "QuadResult",
    "integrate_finite",
    "integrate_semi_infinite",
]

# Kronrod-15 abscissae (positive half, descending) and weights; the Gauss-7
# subset sits at indices 1, 3, 5 plus the center.  Standard tabulated values.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


# change it whenever a force result moves, n_evals included, so that cached
# curve rows are recomputed rather than served stale
_KERNEL = "wronskian-split+halves"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and policies shared by all integrations.

    ``kappa_max_policy`` belongs to the force computations: the momentum
    scale k0 of the map kappa = k0 t/(1 - t) over the whole half line;
    ``None`` means max(eta^{1/6}, eta^{-1/3}).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    kappa_max_policy: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and > 0, got {self.abs_tol!r}")
        if int(self.max_subdivisions) < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if self.kappa_max_policy is not None:
            k = float(self.kappa_max_policy)
            # the map's far nodes reach about 1e16 k0, whose square must stay finite
            if not 0.0 < k <= 1e100:
                raise DomainError(f"fixed kappa_max must be > 0 and <= 1e100, got {k!r}")

    def fingerprint(self) -> str:
        """Stable identity of the kernel and tolerances; result caches key off this."""
        return (
            f"kernel={_KERNEL};rel={self.rel_tol!r};abs={self.abs_tol!r};"
            f"sub={self.max_subdivisions};kmax={self.kappa_max_policy!r}"
        )


@dataclass(frozen=True)
class QuadResult:
    """value, err_est (the summed estimates of the panels evaluated), n_evals, converged.

    err_est bounds the error only when converged is True: a panel at float
    resolution is not refined further, and the part of the integral it
    cannot resolve is in no estimate.
    """

    value: float
    err_est: float
    n_evals: int
    converged: bool


# f: 1-D array of nodes -> as many values
Integrand = Callable[[np.ndarray], Sequence[float]]


# the 15 Kronrod abscissae of [-1, 1], ascending
_X = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))


def _halves(lo: float, hi: float) -> Optional[tuple[float, np.ndarray]]:
    """(mid, the 30 Kronrod nodes of [lo, mid] and [mid, hi], ascending).

    None when a node would round onto an endpoint of its half: the panel
    is then at float resolution and cannot be refined.  c + half * (-x) has
    the bits of c - half * x, so each node is the one a scalar rule on the
    half would use.
    """
    mid = 0.5 * (lo + hi)
    c = np.array([0.5 * (lo + mid), 0.5 * (mid + hi)])
    half = np.array([0.5 * (mid - lo), 0.5 * (hi - mid)])
    x = (c[:, None] + half[:, None] * _X).ravel()
    if not (lo < x[0] and x[14] < mid < x[15] and x[29] < hi):
        return None
    return mid, x


def _gk15(fx: list[float], lo: float, hi: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| estimate from the 15 values at the nodes of [lo, hi]."""
    half = 0.5 * (hi - lo)
    fc = fx[7]
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        pair = fx[j] + fx[14 - j]
        resk += _WGK[j] * pair
        if j % 2 == 1:
            resg += _WG[j // 2] * pair
    return resk * half, abs(resk - resg) * abs(half)


def integrate_finite(
    f: Integrand,
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """Adaptive integral of f over [lo, hi]; f maps an array of nodes to values.

    The first step evaluates the two halves of [lo, hi]; every later step
    bisects the worst panel.  Each step counts against max_subdivisions.
    converged means the summed panel estimate met
    max(rel_tol*|value|, abs_tol) within that budget.  err_est is the sum
    of the estimates of the panels that were evaluated; it bounds the
    error only when converged is True (when refinement stops at a panel at
    float resolution, what that panel cannot resolve is in no estimate).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"bad interval [{lo!r}, {hi!r}]")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0, True)

    # heap entries: (-err, left, right, value); left endpoints are unique,
    # which makes the ordering total and the refinement deterministic.  The
    # root enters with no value and no estimate: it is bisected before it
    # is ever evaluated.
    heap = [(-0.0, lo, hi, 0.0)]
    total = 0.0
    total_err = 0.0
    splits = 0
    while splits == 0 or total_err > max(spec.rel_tol * abs(total), spec.abs_tol):
        if splits >= spec.max_subdivisions:
            break
        neg_err, plo, phi, pval = heap[0]
        step = _halves(plo, phi)
        if step is None:
            if splits == 0:
                raise DomainError(f"interval [{lo!r}, {hi!r}] is too narrow for rule nodes")
            break
        heapq.heappop(heap)
        mid, x = step
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != (30,):
            raise DomainError(f"integrand returned shape {fx.shape} for 30 nodes")
        fx = fx.tolist()
        v1, e1 = _gk15(fx[:15], plo, mid)
        v2, e2 = _gk15(fx[15:], mid, phi)
        total += (v1 + v2) - pval
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, plo, mid, v1))
        heapq.heappush(heap, (-e2, mid, phi, v2))
        splits += 1

    panels = sorted(heap, key=lambda p: p[1])
    value = math.fsum(p[3] for p in panels)
    err_est = math.fsum(-p[0] for p in panels)
    converged = err_est <= max(spec.rel_tol * abs(value), spec.abs_tol)
    return QuadResult(value, err_est, 30 * splits, converged)


def integrate_semi_infinite(
    f: Integrand,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """Integral of f over [0, infinity); f maps an array of nodes to values.

    The half line is mapped to (0, 1) by kappa = t/(1-t) and the
    transformed integrand is handled by the finite-interval routine; f must
    decay faster than kappa^{-1-delta} for the transform to be integrable.
    """
    def g(t: np.ndarray) -> np.ndarray:
        r = 1.0 - t
        return np.asarray(f(t / r), dtype=float) / (r * r)

    return integrate_finite(g, 0.0, 1.0, spec)
