"""Closed-form Green's functions of the plate problems, Euclidean variables.

All four constructors solve G'' - q(x) G = -delta(x - x') with a Dirichlet
zero at the plate and decay at the open end(s); q = K^2 for the flat
background and q(x) = b^{2/3} kappa^2 + b |x| for the linear one.  The
rotated (Euclidean) closed forms actually evaluated are:

  between two plates at 0 and a, flat background, 0 <= x' <= x <= a:

      G = sinh(K x') sinh(K (a - x)) / (K sinh(K a))

  above a single plate, flat background, a <= x <= x':

      G = e^{-K (x' - a)} sinh(K (x - a)) / K

  above a single plate, linear background, a <= x' <= x, with
  y(s) = kappa^2 + (s/a) eta^{1/3}:

      G = pi a eta^{-1/3} Ai(y(x)) [Ai(y(a)) Bi(y(x')) - Ai(y(x')) Bi(y(a))]
          / Ai(y(a))

  below a single plate, linear background: product u(x_<) v(x_>) of a left
  solution u (decays as x -> -infinity and crosses the potential kink at 0
  with value and slope continuous) and a right solution v (vanishes at the
  plate), normalized by their Wronskian.  The explicit coefficient algebra
  is spelled out in docs/numerics.md.

Every hyperbolic form is assembled from decaying exponentials, and every
Airy form from bounded mantissas of scaled values times e^{-gap}, each gap a
sum of non-negative zeta differences formed by ``zeta_gap``, so no
intermediate can overflow regardless of K a or kappa and no two large
zetas are subtracted.

The two linear constructors are array-first: x and x' may be floats or
arrays that broadcast together, a float pair being the 0-d case, and each
construction evaluates every Airy argument it needs (kappa^2, y(a) and each
point's y(|x|)) in one ``airy_scaled`` call.  Every step after it is
elementwise, so an element gets the bits it would get alone.  Points that
are not finite reals are a DomainError naming x and x'.  Their plate is a
PlateConfig, defined in errors and re-exported here.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .airy_engine import airy_scaled, zeta_gap
from .errors import DomainError, PlateConfig, SingularityError, check_real
from .stress_kernel import integrand_below

__all__ = [
    "PlateConfig",
    "greens_free_between",
    "greens_free_above",
    "greens_linear_above",
    "greens_linear_below",
]


def greens_free_between(x: float, xp: float, K: float, a: float) -> float:
    """Flat background between Dirichlet plates at 0 and a.

    Orderings are interchangeable (the kernel is symmetric); internally the
    points are sorted so the closed form is evaluated with x' <= x.
    """
    K = check_real(K, "momentum K", strict=True)
    a = check_real(a, "plate separation a", strict=True)
    lo, hi = _ordered(x, xp, scalar=True)
    if lo < 0.0 or hi > a:
        raise DomainError(f"points must satisfy 0 <= x, x' <= {a}, got {x!r}, {xp!r}")
    # sinh sinh / sinh rewritten with negative exponentials only:
    # e^{-K(x - x')} (1 - e^{-2 K x'}) (1 - e^{-2 K (a - x)}) / (2 K (1 - e^{-2 K a}))
    e1 = -math.expm1(-2.0 * K * lo)
    e2 = -math.expm1(-2.0 * K * (a - hi))
    e3 = -math.expm1(-2.0 * K * a)
    return math.exp(-K * (hi - lo)) * e1 * e2 / (2.0 * K * e3)


def greens_free_above(x: float, xp: float, K: float, a: float) -> float:
    """Flat background above a single Dirichlet plate at a; decay at infinity."""
    K = check_real(K, "momentum K", strict=True)
    a = check_real(a, "plate height a", strict=True)
    lo, hi = _ordered(x, xp, scalar=True)
    if lo < a:
        raise DomainError(f"both points must lie at or above the plate {a!r}")
    # e^{-K(x' - a)} sinh(K (x - a)) / K with x the inner point, stabilized:
    return -math.expm1(-2.0 * K * (lo - a)) * math.exp(-K * (hi - lo)) / (2.0 * K)


def _require_linear(cfg: PlateConfig, kappa: float) -> float:
    kappa = check_real(kappa, "kappa")
    if cfg.eta == 0.0:
        raise DomainError("eta = 0 has no linear-background form; use the flat-background kernels")
    return kappa


def _ordered(x, xp, scalar: bool = False):
    """(x_<, x_>) of finite reals x, x' broadcast together; two floats if scalar, arrays refused."""
    try:
        u, v = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
        finite = np.isfinite(u).all() and np.isfinite(v).all() and not (scalar and u.ndim + v.ndim)
    except (TypeError, ValueError):  # not numbers
        finite = False
    if not finite:
        raise DomainError(f"points must be finite reals, got x = {x!r}, x' = {xp!r}")
    u, v = np.broadcast_arrays(u, v)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    return (lo.item(), hi.item()) if scalar else (lo, hi)


# the largest Airy argument the linear forms take: zeta_gap forms y^3, which
# overflows from here on (measured: greens_linear_above's first nan is at
# y = 5.643803094122362e102, this bound)
_Y_MAX = sys.float_info.max ** (1.0 / 3.0)


def _airy_rows(kappa: float, cfg: PlateConfig, s: np.ndarray, x, xp):
    """Scaled Airy rows at z1 = kappa^2, za = z1 + w and y(s) = z1 + (|s|/a) w, w = eta^{1/3}.

    One airy_scaled call serves all three; returns w, (z1, za, y(s)) and
    the rows (ai_s, aip_s, bi_s, bip_s) at each, those at y(s) of shape
    (4, *s.shape).  An argument at or over _Y_MAX is a DomainError naming
    the points x, x' that s holds.
    """
    w = cfg.eta ** (1.0 / 3.0)
    z1 = kappa * kappa
    za = z1 + w
    y = z1 + (np.abs(s) / cfg.a) * w
    top = y.max(initial=za)
    if not top < _Y_MAX:  # inf fails too
        raise DomainError(f"points x = {x!r}, x' = {xp!r} at kappa = {kappa!r} put the Airy "
                          f"argument at {top:.3e}, over the {_Y_MAX:.3e} the closed forms take")
    rows = airy_scaled(np.concatenate(([z1, za], y.ravel())))
    return w, (z1, za, y), (rows[:, 0], rows[:, 1], rows[:, 2:].reshape((4,) + y.shape))


def greens_linear_above(x, xp, kappa: float, cfg: PlateConfig):
    """Linear background above the plate: Ai decay outside, Dirichlet at a.

    Evaluated from scaled Airy values; the two bracket terms carry the
    exponents e^{-(zeta_out - zeta_in)} and e^{-(zeta_out + zeta_in - 2 zeta_a)},
    both <= 1 in this region, so nothing can overflow.  At small eta it returns
    wrong values, not errors (docs/numerics.md section 2): 0.0 at x, x' = 2, 4,
    kappa = 1, a = 1, eta = 1e-100, where about 1 is right.
    """
    kappa = _require_linear(cfg, kappa)
    lo, hi = _ordered(x, xp)
    if (lo < cfg.a).any():
        raise DomainError(f"both points must lie at or above the plate {cfg.a!r}")
    rows = _airy_rows(kappa, cfg, np.stack((lo, hi)), x, xp)
    w, (_, ya, (yi, yo)), (_, va, (ai, _, bi, _)) = rows
    d_oi = zeta_gap(yo, yi)
    d_ia = zeta_gap(yi, ya)
    bracket = va[0] * bi[0] * np.exp(-d_oi) - ai[0] * va[2] * np.exp(-(d_oi + 2.0 * d_ia))
    return (math.pi * cfg.a / w * (ai[1] / va[0]) * bracket)[()]


def greens_linear_below(x, xp, kappa: float, cfg: PlateConfig):
    """Linear background below the plate; both points <= a, either side of 0.

    G = -pi a eta^{-1/3} u(x_<) v(x_>) / u(a): the Wronskian of the two
    homogeneous solutions reduces to (eta^{1/3} / (pi a)) u(a), which fixes
    the unit derivative jump at the source.  u decays as x -> -infinity:
    pure Ai(y) there, continued across the kink at 0 as pi [S1 Ai(y) - P Bi(y)]
    with S1 = (Ai Bi)'(kappa^2) and P = 2 Ai(kappa^2) Ai'(kappa^2); value and
    slope are continuous at 0 by the Wronskian.  v vanishes at the plate:
    Ai(y_a) Bi(y) - Bi(y_a) Ai(y) on [0, a), continued below 0 as
    gamma Ai(y) + delta Bi(y) with the same matching rule.  On both sides
    y = kappa^2 + (|x|/a) eta^{1/3}.  Each factor is a bounded mantissa of
    scaled values and gaps e^{-2 g}, and the exponents of u(x_<) v(x_>)/u(a)
    combine into -(zeta(y_max) - zeta(y_min)) with both points on one side
    of the kink, -(g1(y_<) + g1(y_>)) across it, g1(y) = zeta(y) - zeta(kappa^2).
    At small eta it returns wrong values, not errors (docs/numerics.md section
    2): at x = x' = -3, a = 1, where about 4 is right, 3.9985 at eta = 1e-40,
    kappa = 0, and -2.9e-6 at eta = 1e-40, kappa = 1000.
    """
    kappa = _require_linear(cfg, kappa)
    lo, hi = _ordered(x, xp)
    if (hi > cfg.a).any():
        raise DomainError(f"both points must lie at or below the plate {cfg.a!r}")
    w, (z1, za, y), (v1, va, (ai, _, bi, _)) = _airy_rows(kappa, cfg, np.stack((lo, hi)), x, xp)
    g1, ga = zeta_gap(y, z1), zeta_gap(za, z1)
    e1, ea = np.exp(-2.0 * g1), math.exp(-2.0 * ga)
    p, s1 = 2.0 * v1[0] * v1[1], v1[1] * v1[2] + v1[0] * v1[3]  # P e^{2 zeta_1}, S1
    mn = math.pi * (s1 * va[0] * ea - p * va[2])  # u(a) e^{2 zeta_1 - zeta_a}
    if mn == 0.0:
        raise SingularityError("normalization u(a) vanished; numerical fault")
    left = lo <= 0.0  # u(x_<): Ai(y) e^{zeta}, or pi [S1 Ai - P Bi] e^{2 zeta_1 - zeta}
    mu = np.where(left, ai[0], math.pi * (s1 * ai[0] * e1[0] - p * bi[0]))
    # v(x_>) right of the kink times e^{zeta - zeta_a}, y clipped at y_a (only
    # the left-of-kink elements that np.where discards pass it), and left of
    # it gamma Ai + delta Bi times e^{2 zeta_1 - zeta_a - zeta}
    right = hi >= 0.0
    v_right = va[0] * bi[1] * np.exp(-2.0 * zeta_gap(za, np.minimum(y[1], za))) - va[2] * ai[1]
    v_left = math.pi * (va[2] * (p * bi[1] - s1 * ai[1] * e1[1])
                        - va[0] * ea * (s1 * bi[1] - 2.0 * v1[2] * v1[3] * ai[1] * e1[1]))
    mv = np.where(right, v_right, v_left)
    gap = np.where(left & right, g1[0] + g1[1], zeta_gap(y.max(axis=0), y.min(axis=0)))
    return (-math.pi * cfg.a / w * (mu * mv / mn) * np.exp(-gap) + 0.0)[()]


def below_ratio_from_construction(kappa: float, cfg: PlateConfig) -> float:
    """Coincident-limit slope ratio -(a/eta^{1/3}) u'(a)/u(a) of the below kernel.

    The stress module's below side, integrand_below(kappa, eta): a second
    copy of that algebra on the same Airy values would be no cross-check.
    verify's stress_sides_from_fd (the sides against the Airy-free FD
    oracle) and fd_oracle_spots (the FD G against greens_linear_above/below)
    are the cross-checks.  Nothing in the package calls it and the package
    does not export it; it stays only because perfbench/tracer.py binds it
    by name.
    """
    return integrand_below(_require_linear(cfg, kappa), cfg.eta)
