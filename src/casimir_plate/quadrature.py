"""Deterministic adaptive quadrature built on a Gauss 7 / Kronrod 15 pair.

Each panel is evaluated once with the 15-point Kronrod rule; the embedded
7-point Gauss value supplies the error estimate.  The panel with the worst
estimate is bisected until the summed estimate meets tolerance.  Panels are
ordered by (estimate, left endpoint), a total order, and the final value is
an exact compensated sum over panels, so identical inputs produce
bit-identical results.  That property is load-bearing: the command-line
layer promises byte-identical output across reruns and worker counts.

No rule node ever touches a panel endpoint, so integrands may be left
unevaluated (or singular but integrable) at interval ends.  Each node of
the force integrand costs two Airy evaluations (stress_kernel); the
analytic tail beyond a momentum cutoff is the force layer's business, not
this module's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and policies shared by all integrations.

    ``kappa_max_policy`` belongs to the force computations: ``None`` means
    the momentum cutoff is grown adaptively until the analytic tail model
    is admissible; a positive number pins the cutoff to that value.
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
            if not (math.isfinite(k) and k > 0.0):
                raise DomainError("fixed kappa_max must be finite and > 0")

    def fingerprint(self) -> str:
        """Stable identity string; result caches key off this."""
        return (
            f"rel={self.rel_tol!r};abs={self.abs_tol!r};"
            f"sub={self.max_subdivisions};kmax={self.kappa_max_policy!r}"
        )


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    n_evals: int
    converged: bool


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        dx = half * _XGK[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    return resk * half, abs(resk - resg) * abs(half)


def integrate_finite(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """Adaptive integral of f over [lo, hi].

    Worst-panel-first bisection; converged means the summed panel estimate
    met max(rel_tol*|value|, abs_tol) within the subdivision budget.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise DomainError(f"bad interval [{lo!r}, {hi!r}]")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0, True)

    val, err = _gk15(f, lo, hi)
    # heap entries: (-err, left, right, value); left endpoints are unique,
    # which makes the ordering total and the refinement deterministic
    heap = [(-err, lo, hi, val)]
    total = val
    total_err = err
    n_evals = 15
    splits = 0
    while total_err > max(spec.rel_tol * abs(total), spec.abs_tol):
        if splits >= spec.max_subdivisions:
            break
        neg_err, plo, phi, pval = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if not (plo < mid < phi):
            # interval is at rounding resolution; no further refinement possible
            heapq.heappush(heap, (neg_err, plo, phi, pval))
            break
        v1, e1 = _gk15(f, plo, mid)
        v2, e2 = _gk15(f, mid, phi)
        total += (v1 + v2) - pval
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, plo, mid, v1))
        heapq.heappush(heap, (-e2, mid, phi, v2))
        n_evals += 30
        splits += 1

    panels = sorted(heap, key=lambda p: p[1])
    value = math.fsum(p[3] for p in panels)
    err_est = math.fsum(-p[0] for p in panels)
    converged = err_est <= max(spec.rel_tol * abs(value), spec.abs_tol)
    return QuadResult(value, err_est, n_evals, converged)


def integrate_semi_infinite(
    f: Callable[[float], float],
    spec: QuadratureSpec = QuadratureSpec(),
) -> QuadResult:
    """Integral of f over [0, infinity).

    The half line is mapped to (0, 1) by kappa = t/(1-t) and the
    transformed integrand is handled by the finite-interval routine; f must
    decay faster than kappa^{-1-delta} for the transform to be integrable.
    """
    def g(t: float) -> float:
        r = 1.0 - t
        return f(t / r) / (r * r)

    return integrate_finite(g, 0.0, 1.0, spec)
