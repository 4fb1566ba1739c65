"""Stress integrands at the plate and the forces built from them.

The net outward pressure on the plate is a single convergent integral over
Euclidean momentum.  With z1 = kappa^2 and z2 = kappa^2 + eta^{1/3}, the
two coincident-limit slope ratios at the plate are

    above(kappa) = Ai'(z2) / Ai(z2)

    below(kappa) = N / D
        N = 2 Ai(z1) Ai'(z1) Bi'(z2) - Ai'(z2) [Ai'(z1) Bi(z1) + Ai(z1) Bi'(z1)]
        D = Ai(z2) [Ai'(z1) Bi(z1) + Ai(z1) Bi'(z1)] - 2 Ai(z1) Ai'(z1) Bi(z2)

and each diverges linearly in kappa while their difference decays like
1/(2 kappa^2).  The net integrand is therefore never formed as that
difference but from its exact Wronskian rearrangement (``_sides``), and

    f(eta) = eta^{2/3} integral_0^inf dkappa/(2 pi) net(kappa)

is one integral over the whole half line, with no cutoff or tail model.
The integral hands the integrand a whole array of momenta per quadrature
step (``_net_array``), which serves every z1 and z2 of the step with one
``airy_engine._net_terms`` pass.  A one-momentum sample is the same pass
on the pair (z1, z2): above is ai2'/ai2 from its rows, net comes from
``_sides``, and below = above + net, which equals N/D exactly; N/D
itself is never evaluated.  D enters net in compensated form: the
common factor e^{zeta_2 - 2 zeta_1} is removed analytically, which leaves
every surviving term O(1) or exponentially small.  The naive unscaled
products underflow to zero near kappa ~ 8 and silently flip the sign of
the ratio, so that route is forbidden rather than merely discouraged.

The flat-background benchmark (two plates, attractive -pi/(24 a^2)) and the
leading-order perturbative estimate (infrared divergent by design; it
exists to demonstrate why the exact route is needed) live here as well.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .airy_engine import Z_SWITCH, _net_terms
from .errors import DomainError, SingularityError, ToleranceError
from .quadrature import QuadratureSpec, integrate_semi_infinite

__all__ = [
    "StressIntegrandSample",
    "ForceResult",
    "integrand_above",
    "integrand_below",
    "integrand_net",
    "tail_mismatch",
    "force_exact",
    "force_classic",
    "perturbative_integrands",
    "force_perturbative",
]


@dataclass(frozen=True)
class StressIntegrandSample:
    """Integrand values at one momentum.

    net is computed without the subtraction below - above (``_sides``),
    and below is then above + net, the N/D form rearranged, so
    below == above + net holds exactly.  On the algebraic eta = 0 path the
    sides are not evaluated at all (the cancellation is an identity, not a
    numerical statement), so ``above`` and ``below`` are None there and
    ``net`` is exactly 0.0.
    """

    kappa: float
    above: Optional[float]
    below: Optional[float]
    net: float


@dataclass(frozen=True)
class ForceResult:
    eta: float
    f_eta: float
    err_est: float
    kappa_max: float
    n_evals: int

    def __post_init__(self):
        if not math.isfinite(self.f_eta):
            raise ToleranceError(f"force value is not finite: {self.f_eta!r}")
        if self.f_eta < 0.0:
            raise ToleranceError(f"force value must be >= 0, got {self.f_eta!r}")
        if not (self.err_est >= 0.0):
            raise ToleranceError(f"error estimate must be >= 0, got {self.err_est!r}")

    def as_dict(self) -> dict:
        return {
            "eta": self.eta,
            "f_eta": self.f_eta,
            "err_est": self.err_est,
            "kappa_max": self.kappa_max,
            "n_evals": self.n_evals,
        }


def _check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa!r}")
    return kappa


def _check_eta_positive(eta: float) -> float:
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be finite and > 0, got {eta!r}")
    return eta


def _sides(
    kappa: np.ndarray, z1: np.ndarray, z2: np.ndarray, t: np.ndarray, eta: float
) -> np.ndarray:
    """net at every momentum of a 1-D array.

    t holds the rows (ai_s, aip_s, bi_s, w) of airy_engine._net_terms, the
    n columns at z1 = kappa^2, then the n at z2 = kappa^2 + eta^{1/3}, with
    w = S at z1 and -(Ai Bi)'/(Ai Bi) at z2.  net is not below - above,
    which cancels to 1/(2 kappa^2) from two numbers of size kappa, but its
    exact Wronskian rearrangement

        net = -(Ai Bi)'/(Ai Bi)(z2) + S E / (pi bi2 D_c)
        D_c = S ai2 E - 2 ai1 aip1 bi2,   E = e^{-2 (zeta_2 - zeta_1)}

    with scaled Airy values and S = aip1 bi1 + ai1 bip1.  The zeta gap in
    E is formed from eps = eta^{1/3}, never from z2 - z1, which carries the
    rounding of z2 (docs/numerics.md section 2).  Every step is
    elementwise, so an element's bits do not depend on its batch.  Callers
    validate kappa >= 0 and eta > 0.
    """
    n = kappa.size
    ai1, aip1, _, s = t[:, :n]
    ai2, _, bi2, lnd2 = t[:, n:]
    gap = (2.0 / 3.0) * eta ** (1.0 / 3.0) * (z2 * z2 + z2 * z1 + z1 * z1) / (
        z2 * np.sqrt(z2) + z1 * np.sqrt(z1))
    ee = np.exp(-2.0 * gap)
    den = s * ai2 * ee - 2.0 * ai1 * aip1 * bi2
    if not den.all():
        k = kappa[den == 0.0][0].item()
        raise SingularityError(f"below-plate denominator vanished at kappa={k!r}, eta={eta!r}")
    return lnd2 + s * ee / (math.pi * bi2 * den)


def _z_pair(kappa, eta: float):
    """z1 = kappa^2 and z2 = kappa^2 + eta^{1/3}, for a float or an array of kappa."""
    z1 = kappa * kappa
    return z1, z1 + eta ** (1.0 / 3.0)


def _net_array(kappa: np.ndarray, eta: float) -> np.ndarray:
    """net at an ascending 1-D array of momenta, from one _net_terms pass on all z1 and z2.

    Quadrature nodes arrive ascending, which is what lets _net_terms cut
    the step at Z_SWITCH; any other order is a DomainError.
    """
    if not (kappa[1:] >= kappa[:-1]).all():  # NaN fails too
        raise DomainError("momenta must arrive in ascending order")
    z1, z2 = _z_pair(kappa, eta)
    return _sides(kappa, z1, z2, _net_terms(z1, z2), eta)


def _sample(kappa: float, eta: float) -> tuple[float, float, float]:
    """(above, below, net) at one momentum, from one _net_terms pass on the pair (z1, z2).

    above is ai2'/ai2, read from that pass; net comes from _sides, and
    below is above + net, which equals the N/D form exactly.
    """
    k = np.array([kappa])
    z1, z2 = _z_pair(k, eta)
    t = _net_terms(z1, z2)
    net = _sides(k, z1, z2, t, eta).item()
    above = t[1, 1].item() / t[0, 1].item()
    return above, above + net, net


def integrand_above(kappa: float, eta: float) -> float:
    """Slope ratio just above the plate: Ai'(z)/Ai(z) at z = kappa^2 + eta^{1/3}."""
    return _sample(_check_kappa(kappa), _check_eta_positive(eta))[0]


def integrand_below(kappa: float, eta: float) -> float:
    """Slope ratio just below the plate, the N/D form, evaluated as above + net."""
    return _sample(_check_kappa(kappa), _check_eta_positive(eta))[1]


def integrand_net(kappa: float, eta: float) -> StressIntegrandSample:
    """Net integrand below - above, from its cancellation-free rearrangement.

    eta = 0 short-circuits to net = 0 exactly: the two sides coincide as an
    algebraic identity (Wronskian algebra), and no Airy function is
    evaluated on that path.
    """
    kappa = _check_kappa(kappa)
    eta = float(eta)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise DomainError(f"eta must be finite and >= 0, got {eta!r}")
    if eta == 0.0:
        return StressIntegrandSample(kappa=kappa, above=None, below=None, net=0.0)
    above, below, net = _sample(kappa, eta)
    return StressIntegrandSample(kappa=kappa, above=above, below=below, net=net)


def tail_mismatch(kappa_max: float, eta: float) -> tuple[bool, float]:
    """(mismatch below 1 percent, relative mismatch) of net against 1/(2 z2) at kappa_max.

    A probe of the large-momentum law, which verify checks.
    """
    net = integrand_net(kappa_max, eta).net
    model = 0.5 / (kappa_max * kappa_max + eta ** (1.0 / 3.0))
    if not (net > 0.0) or not math.isfinite(net):
        return False, math.inf
    delta = abs(net - model) / net
    return delta < 0.01, delta


# Relative rounding error of the integrated kernel, in units of the double
# epsilon u, calibrated against mpmath (docs/numerics.md section 3): about
# _ROUND_LIB u while scipy serves some z2 < Z_SWITCH, plus _ROUND_EPS u
# divided by min(1, eps), eps = eta^{1/3}, from the cancellation between
# the two terms of net at small eps.
_ROUND_LIB = 1000.0
_ROUND_EPS = 10.0
# The |Kronrod - Gauss| estimate can undershoot the true quadrature error
# (twice in scans of 8936 (eta, rel_tol) pairs, by up to 6.2x); force_exact
# reports this multiple of it and asks the quadrature for as much less,
# which left no undershoot in the same scans.
_GK_MARGIN = 4.0


def force_exact(eta: float, spec: QuadratureSpec = QuadratureSpec()) -> ForceResult:
    """Dimensionless force coefficient f(eta); pressure is f(eta)/a^2 at hbar = c = 1.

    f(eta) = eta^{2/3} integral_0^inf dkappa/(2 pi) net(kappa)

    as one integrate_semi_infinite call under kappa = k0 t/(1 - t).  The
    map's scale k0 is spec.kappa_max_policy when set, otherwise
    max(eta^{1/6}, eta^{-1/3}): sqrt(eps) at large eta, and at small eta
    the crossover kappa ~ 1/eps where net turns from eps/kappa to
    1/(2 kappa^2), eps = eta^{1/3}.  It is reported as kappa_max.  err_est is
    _GK_MARGIN times the quadrature estimate plus the kernel's rounding
    term, and a result whose err_est exceeds rel_tol * f raises
    ToleranceError naming the input.
    eta = 0 returns exactly zero without integrating (the net integrand is
    identically zero by the cancellation identity).
    """
    eta = float(eta)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise DomainError(f"eta must be finite and >= 0, got {eta!r}")
    if eta == 0.0:
        return ForceResult(eta=0.0, f_eta=0.0, err_est=0.0, kappa_max=0.0, n_evals=0)

    k0 = spec.kappa_max_policy
    k0 = max(eta ** (1.0 / 6.0), eta ** (-1.0 / 3.0)) if k0 is None else float(k0)

    def net(u: np.ndarray) -> np.ndarray:
        return k0 * _net_array(k0 * u, eta)

    eps = eta ** (1.0 / 3.0)
    lib = _ROUND_LIB if eps < Z_SWITCH else 0.0
    rounding = sys.float_info.epsilon * (lib + _ROUND_EPS / min(1.0, eps))
    # the quadrature gets what the rounding term leaves of rel_tol
    budget = (spec.rel_tol - rounding) / _GK_MARGIN
    r = integrate_semi_infinite(net, replace(spec, rel_tol=budget) if budget > 0.0 else spec)
    scale = eta ** (2.0 / 3.0) / (2.0 * math.pi)
    f_eta = scale * r.value
    err = _GK_MARGIN * scale * r.err_est + rounding * f_eta
    if not (r.converged and err <= spec.rel_tol * f_eta):
        raise ToleranceError(
            f"momentum integral did not reach rel_tol (n_evals={r.n_evals}); "
            f"eta={eta!r}, rel_tol={spec.rel_tol!r}, err_est={err:.3e}, f_eta={f_eta:.6e}"
        )
    return ForceResult(eta=eta, f_eta=f_eta, err_est=err, kappa_max=k0, n_evals=r.n_evals)


def force_classic(a: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Attraction between two flat-background plates a apart: -pi/(24 a^2).

    The coincident-limit stress difference of the two flat kernels reduces
    to the kernel K (coth(K a) - 1) = 2 K / (e^{2 K a} - 1); the derivation
    is in docs/numerics.md.  The K -> 0 limit of the integrand is the
    finite value -1/(2 pi a), and the quadrature never evaluates K = 0.
    """
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"plate separation must be finite and > 0, got {a!r}")

    def f(K: float) -> float:
        w = 2.0 * K * a
        if w > 700.0:
            # e^w - 1 == e^w to machine precision; K e^{-w} underflows to -0.0
            # long before K matters, so this branch cannot overflow
            return -K * math.exp(-w) / math.pi
        return -K / (math.pi * math.expm1(w))

    r = integrate_semi_infinite(lambda ks: [f(K) for K in ks.tolist()], spec)
    if not r.converged:
        raise ToleranceError(
            f"flat-background force integral did not converge (err_est={r.err_est:.3e})"
        )
    return r.value


def perturbative_integrands(K: float, a: float, b: float) -> tuple[float, float, float]:
    """Leading-order-in-b stress integrands (below, above, net) at momentum K.

    below = -K + b (1 - 2 K a - 2 e^{-2 K a}) / (4 K^2)
    above = -K - b (1 + 2 K a) / (4 K^2)
    net   =  b (1 - e^{-2 K a}) / (2 K^2)

    The three printed forms satisfy net = below - above identically; the
    function re-checks that to 1e-12 relative on every call and treats a
    violation as an internal fault.  net blows up like a b / K as K -> 0:
    the infrared divergence that makes the perturbative route an estimate
    rather than an answer.
    """
    K = float(K)
    a = float(a)
    b = float(b)
    if not (math.isfinite(K) and K > 0.0):
        raise DomainError(f"K must be finite and > 0, got {K!r}")
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"a must be finite and > 0, got {a!r}")
    if not (math.isfinite(b) and b >= 0.0):
        raise DomainError(f"b must be finite and >= 0, got {b!r}")
    em = math.exp(-2.0 * K * a)
    k2_4 = 4.0 * K * K
    part_below = b * (1.0 - 2.0 * K * a - 2.0 * em) / k2_4
    part_above = -b * (1.0 + 2.0 * K * a) / k2_4
    below = -K + part_below
    above = -K + part_above
    net = b * (-math.expm1(-2.0 * K * a)) / (2.0 * K * K)
    # check on the b-parts: the -K pieces cancel symbolically, and comparing
    # after that cancellation keeps the check conditioned like the identity
    # itself instead of like ulp(K).  The absolute floor covers the regime
    # Ka << 1 where the parts are ~1/(2Ka) times larger than net and their
    # own rounding (a few ulp of the parts) would otherwise read as a
    # violation; a genuine algebra fault is O(net), far above the floor.
    floor = 32.0 * sys.float_info.epsilon * max(abs(part_below), abs(part_above))
    if not math.isclose(part_below - part_above, net, rel_tol=1e-12, abs_tol=floor):
        raise ToleranceError(
            f"perturbative identity net = below - above violated at K={K!r}"
        )
    return below, above, net


def force_perturbative(
    a: float, b: float, k_min: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Leading-order net force with an explicit infrared cutoff.

    b * integral_{k_min}^inf dK/(2 pi) (1 - e^{-2 K a}) / (2 K^2).

    Positive, and grows like (a b / 2 pi) ln 2 per halving of k_min once
    k_min << 1/a: the cutoff dependence is the point of this operation, so
    it is quarantined from the exact force entirely.
    """
    a = float(a)
    b = float(b)
    k_min = float(k_min)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"a must be finite and > 0, got {a!r}")
    if not (math.isfinite(b) and b >= 0.0):
        raise DomainError(f"b must be finite and >= 0, got {b!r}")
    if not (math.isfinite(k_min) and k_min > 0.0):
        raise DomainError(f"k_min must be finite and > 0, got {k_min!r}")

    def f(u: float) -> float:
        K = k_min + u
        return b * (-math.expm1(-2.0 * K * a)) / (4.0 * math.pi * K * K)

    r = integrate_semi_infinite(lambda us: [f(u) for u in us.tolist()], spec)
    if not r.converged:
        raise ToleranceError(
            f"perturbative force integral did not converge (err_est={r.err_est:.3e})"
        )
    return r.value
