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
Airy form from scaled values with exponents tracked as (mantissa, exponent)
pairs, so no intermediate can overflow regardless of K a or kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .airy_engine import airy_eval, zeta_gap
from .errors import DomainError, SingularityError

__all__ = [
    "PlateConfig",
    "greens_free_between",
    "greens_free_above",
    "greens_linear_above",
    "greens_linear_below",
    "below_ratio_from_construction",
]


@dataclass(frozen=True)
class PlateConfig:
    """Plate at height a > 0 over the kink of V(x) = b |x|; eta = b a^3.

    ``eta`` is derived storage: it is always recomputed from a and b on
    construction, and a caller-supplied value is only checked against the
    recomputation.
    """

    a: float
    b: float
    eta: Optional[float] = None

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        if not (math.isfinite(a) and a > 0.0):
            raise DomainError(f"plate height a must be finite and > 0, got {self.a!r}")
        if not (math.isfinite(b) and b >= 0.0):
            raise DomainError(f"potential slope b must be finite and >= 0, got {self.b!r}")
        derived = b * a**3
        if self.eta is not None and not math.isclose(
            float(self.eta), derived, rel_tol=1e-12, abs_tol=0.0
        ):
            raise DomainError(
                f"eta must equal b*a^3 = {derived!r}, got {self.eta!r}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "eta", derived)

    @classmethod
    def from_eta(cls, eta: float, a: float = 1.0) -> "PlateConfig":
        eta = float(eta)
        if not (math.isfinite(eta) and eta >= 0.0):
            raise DomainError(f"eta must be finite and >= 0, got {eta!r}")
        return cls(a=float(a), b=eta / float(a) ** 3)


def _check_momentum(K: float) -> float:
    K = float(K)
    if not (math.isfinite(K) and K > 0.0):
        raise DomainError(f"momentum must be finite and > 0, got {K!r}")
    return K


def greens_free_between(x: float, xp: float, K: float, a: float) -> float:
    """Flat background between Dirichlet plates at 0 and a.

    Orderings are interchangeable (the kernel is symmetric); internally the
    points are sorted so the closed form is evaluated with x' <= x.
    """
    K = _check_momentum(K)
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"plate separation must be > 0, got {a!r}")
    hi, lo = (x, xp) if x >= xp else (xp, x)
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
    K = _check_momentum(K)
    a = float(a)
    lo, hi = (x, xp) if x <= xp else (xp, x)
    if lo < a:
        raise DomainError(f"both points must lie at or above the plate {a!r}")
    # e^{-K(x' - a)} sinh(K (x - a)) / K with x the inner point, stabilized:
    return -math.expm1(-2.0 * K * (lo - a)) * math.exp(-K * (hi - lo)) / (2.0 * K)


def _require_linear(cfg: PlateConfig, kappa: float) -> float:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa!r}")
    if cfg.eta == 0.0:
        raise DomainError("eta = 0 has no linear-background form; use the flat-background kernels")
    return kappa


def greens_linear_above(x: float, xp: float, kappa: float, cfg: PlateConfig) -> float:
    """Linear background above the plate: Ai decay outside, Dirichlet at a.

    Evaluated from scaled Airy values; the two bracket terms carry the
    exponents e^{-(zeta_out - zeta_in)} and e^{-(zeta_out + zeta_in - 2 zeta_a)},
    both <= 1 in this region, so nothing can overflow.
    """
    kappa = _require_linear(cfg, kappa)
    lo, hi = sorted((float(x), float(xp)))
    if lo < cfg.a:
        raise DomainError(f"both points must lie at or above the plate {cfg.a!r}")
    w = cfg.eta ** (1.0 / 3.0)
    k2 = kappa * kappa
    ya = k2 + w
    yi = k2 + (lo / cfg.a) * w
    yo = k2 + (hi / cfg.a) * w
    va = airy_eval(ya)
    vi = airy_eval(yi)
    vo = airy_eval(yo)
    d_oi = zeta_gap(yo, yi)
    d_ia = zeta_gap(yi, ya)
    bracket = va.ai_s * vi.bi_s * math.exp(-d_oi) - vi.ai_s * va.bi_s * math.exp(
        -(d_oi + 2.0 * d_ia)
    )
    return math.pi * cfg.a / w * (vo.ai_s / va.ai_s) * bracket


def _esum(terms) -> tuple[float, float]:
    """Sum of m_i * e^{E_i} represented as (mantissa, exponent).

    The largest exponent is factored out so the mantissa sum stays O(1);
    term order is preserved, keeping the rounding deterministic.
    """
    live = [(m, e) for m, e in terms if m != 0.0]
    if not live:
        return 0.0, 0.0
    emax = max(e for _, e in live)
    return math.fsum(m * math.exp(e - emax) for m, e in live), emax


class _BelowParts:
    """Left/right homogeneous solutions below the plate, exponent-carried.

    u decays as x -> -infinity: pure Ai(kappa^2 - (x/a) eta^{1/3}) there,
    continued across the kink at 0 as pi [S1 Ai(y) - P Bi(y)] with
    y = kappa^2 + (x/a) eta^{1/3}, S1 = (Ai Bi)'(kappa^2) and
    P = 2 Ai(kappa^2) Ai'(kappa^2); value and slope are continuous at 0 by
    the Wronskian.  v vanishes at the plate: Ai(y_a) Bi(y) - Bi(y_a) Ai(y)
    on [0, a), continued below 0 as gamma Ai + delta Bi of the reflected
    argument with the same matching rule.  All coefficients are kept as
    (mantissa, exponent) pairs in zeta units.
    """

    def __init__(self, kappa: float, cfg: PlateConfig):
        self.cfg = cfg
        self.w = cfg.eta ** (1.0 / 3.0)
        self.z1 = kappa * kappa
        self.za = self.z1 + self.w
        self.v1 = airy_eval(self.z1)
        self.va = airy_eval(self.za)
        v1 = self.v1
        # S1 carries no exponent (the e^{+-zeta} factors cancel termwise);
        # P carries e^{-2 zeta_1}
        self.s1 = v1.aip_s * v1.bi_s + v1.ai_s * v1.bip_s
        self.p_m = 2.0 * v1.ai_s * v1.aip_s

    def _y_up(self, xx: float) -> float:
        return self.z1 + (xx / self.cfg.a) * self.w

    def _y_down(self, xx: float) -> float:
        return self.z1 - (xx / self.cfg.a) * self.w

    def u(self, xx: float) -> tuple[float, float]:
        if xx <= 0.0:
            vv = airy_eval(self._y_down(xx))
            return vv.ai_s, -vv.zeta
        vv = airy_eval(self._y_up(xx))
        return _esum(
            [
                (math.pi * self.s1 * vv.ai_s, -vv.zeta),
                (-math.pi * self.p_m * vv.bi_s, vv.zeta - 2.0 * self.v1.zeta),
            ]
        )

    def v(self, xx: float) -> tuple[float, float]:
        va = self.va
        if xx >= 0.0:
            vv = airy_eval(self._y_up(xx))
            return _esum(
                [
                    (va.ai_s * vv.bi_s, vv.zeta - va.zeta),
                    (-va.bi_s * vv.ai_s, va.zeta - vv.zeta),
                ]
            )
        v1 = self.v1
        gm, ge = _esum(
            [
                (2.0 * math.pi * va.ai_s * v1.bi_s * v1.bip_s, 2.0 * v1.zeta - va.zeta),
                (-math.pi * va.bi_s * self.s1, va.zeta),
            ]
        )
        dm, de = _esum(
            [
                (math.pi * va.bi_s * self.p_m, va.zeta - 2.0 * v1.zeta),
                (-math.pi * va.ai_s * self.s1, -va.zeta),
            ]
        )
        vv = airy_eval(self._y_down(xx))
        return _esum([(gm * vv.ai_s, ge - vv.zeta), (dm * vv.bi_s, de + vv.zeta)])


def greens_linear_below(x: float, xp: float, kappa: float, cfg: PlateConfig) -> float:
    """Linear background below the plate; both points < a, either side of 0.

    G = -pi a eta^{-1/3} u(x_<) v(x_>) / u(a): the Wronskian of the two
    homogeneous solutions reduces to (eta^{1/3} / (pi a)) u(a), which fixes
    the unit derivative jump at the source.
    """
    kappa = _require_linear(cfg, kappa)
    lo, hi = sorted((float(x), float(xp)))
    if hi > cfg.a:
        raise DomainError(f"both points must lie at or below the plate {cfg.a!r}")
    parts = _BelowParts(kappa, cfg)
    mu, eu = parts.u(lo)
    mv, ev = parts.v(hi)
    ma, ea = parts.u(cfg.a)
    if ma == 0.0:
        raise SingularityError("normalization u(a) vanished; numerical fault")
    return -math.pi * cfg.a / parts.w * (mu * mv / ma) * math.exp(eu + ev - ea) + 0.0


def below_ratio_from_construction(kappa: float, cfg: PlateConfig) -> float:
    """Coincident-limit slope ratio -(a/eta^{1/3}) u'(a)/u(a) of the below kernel.

    This is the stress integrand the below-plate construction implies,
    assembled from the u coefficients with the common exponent factored
    out.  It repeats the stress module's algebra on the same Airy values, so
    agreement is no cross-check; verify.integrand_from_greens is the one.
    """
    kappa = _require_linear(cfg, kappa)
    parts = _BelowParts(kappa, cfg)
    va = parts.va
    ee = math.exp(-2.0 * zeta_gap(parts.za, parts.z1))
    num = parts.p_m * va.bip_s - parts.s1 * va.aip_s * ee
    den = parts.s1 * va.ai_s * ee - parts.p_m * va.bi_s
    if den == 0.0:
        raise SingularityError("slope-ratio denominator vanished")
    return num / den
