"""Deterministic quadrature: a nested Clenshaw-Curtis rule on a finite
interval, a nested exp-sinh rule on the half line.

Both rules refine by levels that nest: each level evaluates only the nodes
the coarser one lacks, in one call of f, and sums its weighted values with
one math.fsum, which is exact, so identical inputs produce bit-identical
results whatever the order of the terms.  That property is load-bearing:
the command-line layer promises byte-identical output across reruns and
worker counts.  The estimate is the difference from the coarser level
(Bailey, Jeyabalan and Li, Exp. Math. 14, 2005).  Each rule's one setting
is the rel_tol it stops on, checked before anything else: one that is not
finite and > 0 is a DomainError naming rel_tol.

Integrand contract: ``f`` takes a 1-D float array of nodes and returns a
sequence of as many values (an array, or a list from a scalar function
wrapped in a comprehension).  Both rules evaluate every level through one
check (_finite_values): a value that is not finite is a DomainError naming
its node.

The finite interval: Clenshaw-Curtis on n = _CC_FIRST, 2 n, ... up to
_CC_MAX intervals, on the nodes lo + (hi - lo) sin^2(theta/2), theta =
j pi/n (_cc_level).  The nodes include both ends, so f must be finite
there.  The rule converges geometrically on integrands analytic on the
interval (Trefethen, SIAM Review 50, 2008).

The half line: the trapezoidal rule in s on kappa = e^{pi sinh s},
|s| <= _S, at h = 1/16, then h/2, h/4, h/8 (Takahasi and Mori, Publ. RIMS
9, 1974).  Its estimate adds the part of the integral beyond each edge of
the window, which no level difference sees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, check_real

__all__ = [
    "QuadResult",
    "integrate_finite",
    "integrate_semi_infinite",
]

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

_CC_FIRST = 8  # intervals of the first Clenshaw-Curtis level
_CC_MAX = 1024  # intervals of the last


@dataclass(frozen=True)
class QuadResult:
    """value, err_est, n_evals, converged, and edge, the window-edge part of err_est.

    converged means err_est <= rel_tol*|value|, with no absolute floor, and
    err_est bounds the error only when converged is True: a level
    difference sees nothing that no level resolves.  edge is 0 on a
    finite interval.
    """

    value: float
    err_est: float
    n_evals: int
    converged: bool
    edge: float = 0.0


# f: 1-D array of nodes -> as many values
Integrand = Callable[[np.ndarray], Sequence[float]]


@functools.cache
def _cc_level(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-interval Clenshaw-Curtis rule on [0, 1], n even.

    Node j is sin^2(theta_j/2), theta_j = j pi/n, so nothing cancels near
    t = 0, 1 - t is exact near t = 1, and theta_j, hence every node, has
    the bits of node 2j of level 2n.  The weights are
    w_j = (c_j/2n) (1 - sum_{k=1}^{n/2} b_k cos(2 pi k j/n)/(4k^2 - 1)),
    c_j = 1 at the ends and 2 inside, b_k = 1 at k = n/2 and 2 below, each
    sum taken by math.fsum over libm cosines of arguments reduced mod 2 pi.
    """
    t = np.square([math.sin(j * math.pi / (2 * n)) for j in range(n + 1)])
    cosines = np.array([math.cos(2.0 * math.pi * min(m, n - m) / n) for m in range(n)])
    k = np.arange(1, n // 2 + 1)
    b = np.where(k == n // 2, 1.0, 2.0) / (4.0 * k * k - 1.0)
    sums = [math.fsum(row) for row in (b * cosines[np.outer(np.arange(n + 1), k) % n]).tolist()]
    w = np.array([1.0 - s for s in sums]) / n
    w[[0, -1]] *= 0.5
    for a in (t, w):  # every caller shares the cached arrays
        a.flags.writeable = False
    return t, w


def _finite_values(f: Integrand, x: np.ndarray) -> np.ndarray:
    """f at the nodes x, checked for shape and finiteness."""
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise DomainError(f"integrand returned shape {fx.shape} for {x.size} nodes")
    bad = np.flatnonzero(~np.isfinite(fx))
    if bad.size:
        j = bad[0]
        raise DomainError(f"integrand is {fx[j].item()!r} at the node x={x[j].item()!r}")
    return fx


def integrate_finite(f: Integrand, lo: float, hi: float, rel_tol: float = 1e-9) -> QuadResult:
    """Integral of f over [lo, hi] by nested Clenshaw-Curtis; f maps an array of nodes to values.

    The first call evaluates the _CC_FIRST + 1 nodes of the first level,
    both ends included; each later call the nodes that the next level, of
    twice the intervals, adds between them.  err_est is |I_n - I_{n/2}|;
    converged means it met rel_tol*|value| by _CC_MAX intervals (never, for
    a zero integral of nonzero samples).  A value that is not finite is a
    DomainError naming its node.
    """
    rel_tol = check_real(rel_tol, "rel_tol", strict=True)
    if not (lo <= hi and math.isfinite(hi - lo)):  # NaN fails too
        raise DomainError(f"bad interval [{lo!r}, {hi!r}]")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0, True)
    width, n = hi - lo, _CC_FIRST
    t, w = _cc_level(n)
    fx = _finite_values(f, lo + width * t)
    value, err, converged = width * math.fsum((w * fx).tolist()), math.inf, False
    while not converged and n < _CC_MAX:
        coarse, n = value, 2 * n
        t, w = _cc_level(n)
        fx = np.insert(fx, range(1, fx.size), _finite_values(f, lo + width * t[1::2]))
        value = width * math.fsum((w * fx).tolist())
        err = abs(value - coarse)
        converged = err <= rel_tol * abs(value)
    return QuadResult(value, err, n + 1, converged)


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


def integrate_semi_infinite(f: Integrand, rel_tol: float = 1e-9) -> QuadResult:
    """Integral of f over [0, infinity); f maps an array of nodes to values.

    The first call evaluates all 103 nodes of h = 1/16, which hold those of
    2h; each later call the odd nodes of the next level.  err_est is
    |T_h - T_2h| + edge, where edge estimates the integral beyond the two
    ends of the window (_tail) from the first level's terms, the same at
    every level: when it alone misses the tolerance the result is not
    converged after the first level, since no refinement reaches what the
    window cuts off.
    converged means err_est met rel_tol*|value| by h = 1/128.
    A value that is not finite is a DomainError naming its node.
    """
    rel_tol = check_real(rel_tol, "rel_tol", strict=True)
    terms = np.zeros(_U.size)  # w f(u) at the nodes evaluated so far
    coarse, edge, n = None, 0.0, 0
    for step, new, on in _LEVELS:
        terms[new] = _W[new] * _finite_values(f, _U[new])
        n += new.size
        h = step / _FINE
        if coarse is None:
            coarse = 2.0 * h * math.fsum(terms[_COARSE].tolist())
            t = terms[_ENDS].tolist()
            edge = _tail(t[0], t[1]) + _tail(t[2], t[3])
        value = h * math.fsum(terms[on].tolist())
        err = abs(value - coarse) + edge
        tol = rel_tol * abs(value)
        if err <= tol or edge > tol:
            break
        coarse = value
    return QuadResult(value, err, n, err <= tol, edge)
