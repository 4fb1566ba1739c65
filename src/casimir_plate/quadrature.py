"""Deterministic quadrature: adaptive Gauss 7 / Kronrod 15 on a finite
interval, a nested exp-sinh rule on the half line.

Each panel is evaluated once with the 15-point Kronrod rule; the embedded
7-point Gauss value supplies the error estimate.  The interval is never
evaluated as one panel: the first step evaluates its two halves, and
every later step bisects the panel with the worst estimate (QAG in
Piessens et al., QUADPACK, 1983), until the summed estimate meets
tolerance or _MAX_SUBDIVISIONS bisections are spent.  Panels are ordered
by (estimate, left endpoint), a total order, and the final value is an
exact compensated sum over panels, so identical inputs produce
bit-identical results.  That property is load-bearing: the command-line
layer promises byte-identical output across reruns and worker counts.

Integrand contract: ``f`` takes a 1-D float array of nodes and returns a
sequence of as many values (an array, or a list from a scalar function
wrapped in a comprehension).  It is called once per step, on the 30 nodes
of the two halves of the panel the step bisects.  The Kronrod and Gauss
sums of each panel run node by node in Python floats in a fixed order, so
the result does not depend on how f computes its values, only on the
values themselves.

No rule node ever touches a panel endpoint, so integrands may be left
unevaluated (or singular but integrable) at interval ends.  A panel whose
halves would have a node rounded onto an endpoint is at float resolution
and is not refined further; the result then reports converged=False if
the tolerance was not met.

The half line: the trapezoidal rule in s on kappa = e^{pi sinh s},
|s| <= _S, at h = 1/16, then h/2, h/4, h/8 (Takahasi and Mori, Publ. RIMS
9, 1974), each level evaluating only the nodes the coarser one lacks in one
call of f, and summed with math.fsum.  The estimate is the
difference from the coarser level (Bailey, Jeyabalan and Li, Exp. Math.
14, 2005) plus the part of the integral beyond each edge of the window,
which no level difference sees.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, check_real

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


# The exp-sinh nodes u = e^{pi sinh s} and weights pi cosh(s) u at s = k/_FINE,
# |s| <= _S.  Level h = step/_FINE holds the k divisible by step; _LEVELS
# lists (step, the indices a level adds, the indices it sums), ascending.
_S = 3.2
_FINE = 128
_K = np.arange(-int(_S * _FINE), int(_S * _FINE) + 1)
_U = np.exp(math.pi * np.sinh(_K / _FINE))
_W = math.pi * np.cosh(_K / _FINE) * _U
_LEVELS = [
    (st, np.flatnonzero((_K % st == 0) & ((_K % (2 * st) != 0) | (st == 8))),
     np.flatnonzero(_K % st == 0))
    for st in (8, 4, 2, 1)
]
_COARSE = np.flatnonzero(_K % 16 == 0)  # h = 1/8, held by the first level
_ENDS = _LEVELS[0][1][[0, 1, -1, -2]]  # the first level's two outermost nodes at each end
# the force kernel squares zeta = (2/3) z^{3/2}, z = kappa^2 + eps
# (airy_engine._series_terms): a momentum up to _KAPPA_MAX keeps kappa^6
# below an eighth of the float range, room for eps <= kappa^2 (eta up to
# _ETA_MAX), and a scale k0 up to _K0_MAX keeps the farthest node k0 u there
_ETA_MAX = sys.float_info.max / 8.0
_KAPPA_MAX = _ETA_MAX ** (1.0 / 6.0)
_K0_MAX = _KAPPA_MAX / _U[-1].item()


# bisections integrate_finite may spend on one interval, the first included
_MAX_SUBDIVISIONS = 200

# change it whenever a force result moves, n_evals included, so that cached
# curve rows are recomputed rather than served stale
_KERNEL = "wronskian-split+exp-sinh-tails+taylor-march"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and policies shared by all integrations.

    ``kappa_max_policy`` belongs to the force computations: the momentum
    scale k0 of the half-line rule's nodes kappa = k0 u, at most _K0_MAX;
    ``None`` means max(eta^{1/6}, eta^{-1/3}).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    kappa_max_policy: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", check_real(self.rel_tol, "rel_tol", strict=True))
        object.__setattr__(self, "abs_tol", check_real(self.abs_tol, "abs_tol", strict=True))
        if self.kappa_max_policy is not None:
            k = check_real(self.kappa_max_policy, "kappa_max_policy", strict=True, upper=_K0_MAX)
            object.__setattr__(self, "kappa_max_policy", k)

    def fingerprint(self) -> str:
        """Stable identity of the kernel and tolerances; result caches key off this."""
        return (
            f"kernel={_KERNEL};rel={self.rel_tol!r};abs={self.abs_tol!r};"
            f"kmax={self.kappa_max_policy!r}"
        )


@dataclass(frozen=True)
class QuadResult:
    """value, err_est, n_evals, converged, and edge, the window-edge part of err_est.

    err_est bounds the error only when converged is True: a panel at float
    resolution is not refined further, and the part of the integral it
    cannot resolve is in no estimate.  edge is 0 on a finite interval.
    """

    value: float
    err_est: float
    n_evals: int
    converged: bool
    edge: float = 0.0


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

    The first step evaluates the two halves of [lo, hi].  Every later step
    pops the panel with the worst estimate and evaluates its two halves in
    one call.  Each bisection, the first included, counts against
    _MAX_SUBDIVISIONS.  converged means the summed panel estimate met
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
    tol = spec.abs_tol  # max(rel_tol*|total|, abs_tol) at total = 0
    while splits == 0 or (total_err > tol and splits < _MAX_SUBDIVISIONS):
        halves = _halves(heap[0][1], heap[0][2])
        if halves is None:
            if splits == 0:
                raise DomainError(f"interval [{lo!r}, {hi!r}] is too narrow for rule nodes")
            break
        neg_err, plo, phi, pval = heapq.heappop(heap)
        mid, x = halves
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
        tol = max(spec.rel_tol * abs(total), spec.abs_tol)

    panels = sorted(heap, key=lambda p: p[1])
    value = math.fsum(p[3] for p in panels)
    err_est = math.fsum(-p[0] for p in panels)
    converged = err_est <= max(spec.rel_tol * abs(value), spec.abs_tol)
    return QuadResult(value, err_est, 30 * splits, converged)


def _tail(end: float, inner: float) -> float:
    """The integral beyond a window edge whose terms are end there and inner 1/16 inside it.

    |end| / rate, at the decay rate ln|inner/end| / (1/16) of the terms
    over that step; a decay whose rate grows outward, as every
    e^{-c pi sinh s} tail does, leaves less beyond the edge than this.  inf
    when the terms do not decay towards the edge.
    """
    end, inner = abs(end), abs(inner)
    if end == 0.0:
        return 0.0
    return end / (16.0 * math.log(inner / end)) if inner > end else math.inf


def integrate_semi_infinite(
    f: Integrand,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """Integral of f over [0, infinity); f maps an array of nodes to values.

    The first call evaluates all 103 nodes of h = 1/16, which hold those of
    2h; each later call the odd nodes of the next level.  err_est is
    |T_h - T_2h| + edge, where edge estimates the integral beyond the two
    ends of the window (_tail) from the first level's terms, the same at
    every level: when it alone misses the tolerance the result is not
    converged after the first level, since no refinement reaches what the
    window cuts off.
    converged means err_est met max(rel_tol*|value|, abs_tol) by h = 1/128.
    """
    terms = np.zeros(_U.size)  # w f(u) at the nodes evaluated so far
    coarse, edge, n = None, 0.0, 0
    for step, new, on in _LEVELS:
        fx = np.asarray(f(_U[new]), dtype=float)
        if fx.shape != new.shape:
            raise DomainError(f"integrand returned shape {fx.shape} for {new.size} nodes")
        terms[new] = _W[new] * fx
        n += new.size
        h = step / _FINE
        if coarse is None:
            coarse = 2.0 * h * math.fsum(terms[_COARSE].tolist())
            t = terms[_ENDS].tolist()
            edge = _tail(t[0], t[1]) + _tail(t[2], t[3])
        value = h * math.fsum(terms[on].tolist())
        err = abs(value - coarse) + edge
        tol = max(spec.rel_tol * abs(value), spec.abs_tol)
        if err <= tol or edge > tol:
            break
        coarse = value
    return QuadResult(value, err, n, err <= tol, edge)
