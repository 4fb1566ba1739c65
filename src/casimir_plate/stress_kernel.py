"""Stress integrands at the plate and the forces built from them.

The net outward pressure on the plate is a single convergent integral over
Euclidean momentum.  With z1 = kappa^2 and z2 = kappa^2 + eta^{1/3}, the
two coincident-limit slope ratios at the plate are

    above(kappa) = Ai'(z2) / Ai(z2)

    below(kappa) = N / D
        N = 2 Ai(z1) Ai'(z1) Bi'(z2) - Ai'(z2) [Ai'(z1) Bi(z1) + Ai(z1) Bi'(z1)]
        D = Ai(z2) [Ai'(z1) Bi(z1) + Ai(z1) Bi'(z1)] - 2 Ai(z1) Ai'(z1) Bi(z2)

and each diverges linearly in kappa while their difference decays like
1/(2 kappa^2), so only the difference is ever integrated:

    f(eta) = eta^{2/3} [ integral_0^kmax dkappa/(2 pi) (below - above)
                         + tail(kmax, eta) ]

with the analytic Lorentzian tail handling the remainder.  N and D are
evaluated in compensated form: the common factor e^{zeta_2 - 2 zeta_1} is
removed analytically, which leaves every surviving term O(1) or
exponentially small.  The naive unscaled products underflow to zero near
kappa ~ 8 and silently flip the sign of the ratio, so that route is
forbidden rather than merely discouraged.

The flat-background benchmark (two plates, attractive -pi/(24 a^2)) and the
leading-order perturbative estimate (infrared divergent by design; it
exists to demonstrate why the exact route is needed) live here as well.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .airy_engine import airy_eval, zeta_gap
from .errors import DomainError, SingularityError, TailError, ToleranceError
from .quadrature import QuadratureSpec, integrate_finite, integrate_semi_infinite

__all__ = [
    "StressIntegrandSample",
    "ForceResult",
    "integrand_above",
    "integrand_below",
    "integrand_net",
    "tail_model",
    "tail_mismatch",
    "force_exact",
    "force_classic",
    "perturbative_integrands",
    "force_perturbative",
]


@dataclass(frozen=True)
class StressIntegrandSample:
    """Integrand values at one momentum; net = below - above as computed.

    On the algebraic eta = 0 path the sides are not evaluated at all (the
    cancellation is an identity, not a numerical statement), so ``above``
    and ``below`` are None there and ``net`` is exactly 0.0.
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


def _slopes(kappa: float, eta: float) -> tuple[float, float]:
    """(above, below) slope ratios from one Airy evaluation at each of z1, z2.

    above is ai2'/ai2 from the scaled values.  below is the N/D form in
    compensated evaluation: with E = e^{-2 (zeta_2 - zeta_1)} and scaled
    Airy values, the factored ratio is

        N_c = 2 ai1 aip1 bip2 - aip2 S E
        D_c = S ai2 E - 2 ai1 aip1 bi2
        S   = aip1 bi1 + ai1 bip1   (exponent-free combination)

    The zeta difference is computed by zeta_gap, never by subtracting the
    two zetas: at large kappa those agree to all stored digits.  Callers
    validate kappa >= 0 and eta > 0.
    """
    z1 = kappa * kappa
    z2 = z1 + eta ** (1.0 / 3.0)
    v1 = airy_eval(z1)
    v2 = airy_eval(z2)
    s = v1.aip_s * v1.bi_s + v1.ai_s * v1.bip_s
    a2 = 2.0 * v1.ai_s * v1.aip_s
    ee = math.exp(-2.0 * zeta_gap(z2, z1))
    num = a2 * v2.bip_s - v2.aip_s * s * ee
    den = s * v2.ai_s * ee - a2 * v2.bi_s
    if den == 0.0:
        raise SingularityError(
            f"below-plate denominator vanished at kappa={kappa!r}, eta={eta!r}"
        )
    return v2.aip_s / v2.ai_s, num / den


def integrand_above(kappa: float, eta: float) -> float:
    """Slope ratio just above the plate: Ai'(z)/Ai(z) at z = kappa^2 + eta^{1/3}."""
    return _slopes(_check_kappa(kappa), _check_eta_positive(eta))[0]


def integrand_below(kappa: float, eta: float) -> float:
    """Slope ratio just below the plate (the N/D form), compensated evaluation."""
    return _slopes(_check_kappa(kappa), _check_eta_positive(eta))[1]


def integrand_net(kappa: float, eta: float) -> StressIntegrandSample:
    """Cancellation-safe difference below - above.

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
    above, below = _slopes(kappa, eta)
    return StressIntegrandSample(kappa=kappa, above=above, below=below, net=below - above)


def tail_mismatch(kappa_max: float, eta: float) -> tuple[bool, float]:
    """Admissibility of the Lorentzian tail model at the cutoff.

    Returns (admissible, relative mismatch), where the model integrand is
    1/(2 (kappa^2 + eta^{1/3})) and admissible means the mismatch against
    the true net integrand at kappa_max is below 1 percent.
    """
    net = integrand_net(kappa_max, eta).net
    model = 0.5 / (kappa_max * kappa_max + eta ** (1.0 / 3.0))
    if not (net > 0.0) or not math.isfinite(net):
        return False, math.inf
    delta = abs(net - model) / net
    return delta < 0.01, delta


def _tail_value(kappa_max: float, eta: float) -> float:
    s6 = eta ** (1.0 / 6.0)
    return math.atan(s6 / kappa_max) / (4.0 * math.pi * s6)


def tail_model(kappa_max: float, eta: float) -> float:
    """Analytic integral of the tail model beyond the cutoff.

    integral_{kmax}^inf dkappa/(2 pi) 1/(2 (kappa^2 + eta^{1/3}))
        = arctan(eta^{1/6}/kmax) / (4 pi eta^{1/6})

    (the arctan-of-reciprocal form; the textbook pi/2 - arctan(kmax/s)
    difference loses digits exactly where the tail is small).  Raises
    TailError when the model is not admissible at this cutoff.
    """
    kappa_max = float(kappa_max)
    if not (math.isfinite(kappa_max) and kappa_max > 0.0):
        raise DomainError(f"kappa_max must be finite and > 0, got {kappa_max!r}")
    eta = _check_eta_positive(eta)
    ok, delta = tail_mismatch(kappa_max, eta)
    if not ok:
        raise TailError(
            f"tail model mismatch {delta:.3e} at kappa_max={kappa_max!r}; "
            "increase the cutoff"
        )
    return _tail_value(kappa_max, eta)


_MAX_DOUBLINGS = 48


def force_exact(eta: float, spec: QuadratureSpec = QuadratureSpec()) -> ForceResult:
    """Dimensionless force coefficient f(eta); pressure is f(eta)/a^2 at hbar = c = 1.

    f(eta) = eta^{2/3} [ integral_0^kmax dkappa/(2 pi) net(kappa)
                         + tail(kmax) ]

    eta = 0 returns exactly zero without integrating (the net integrand is
    identically zero by the cancellation identity).  The cutoff either
    comes from spec.kappa_max_policy or grows geometrically from
    10 * max(1, eta^{1/6}) until the tail model is admissible and the
    tail's error bound, (tail mismatch) * (tail value), is negligible at
    the requested tolerance.  The tail value itself is part of f and is
    never required to vanish: pushing the cutoff until it did would leave
    the integrand with nothing but cancellation noise.  The same
    mismatch * tail product enters the error estimate alongside the
    quadrature estimate.
    """
    eta = float(eta)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise DomainError(f"eta must be finite and >= 0, got {eta!r}")
    if eta == 0.0:
        return ForceResult(eta=0.0, f_eta=0.0, err_est=0.0, kappa_max=0.0, n_evals=0)

    scale = eta ** (2.0 / 3.0)
    two_pi = 2.0 * math.pi

    def net(k: float) -> float:
        return integrand_net(k, eta).net

    n_evals = 0
    if spec.kappa_max_policy is not None:
        kmax = float(spec.kappa_max_policy)
        ok, delta = tail_mismatch(kmax, eta)
        n_evals += 1
        if not ok:
            raise TailError(
                f"fixed kappa_max={kmax!r} rejects the tail model "
                f"(mismatch {delta:.3e}); raise the cutoff"
            )
        r = integrate_finite(net, 0.0, kmax, spec)
        if not r.converged:
            raise ToleranceError(
                f"momentum integral did not converge by kappa_max={kmax!r} "
                f"(err_est={r.err_est:.3e}, n_evals={r.n_evals})"
            )
        value = r.value
        qerr = r.err_est
        n_evals += r.n_evals
    else:
        kmax = 10.0 * max(1.0, eta ** (1.0 / 6.0))
        value = 0.0
        qerr = 0.0
        delta = math.inf
        lo = 0.0
        for _ in range(_MAX_DOUBLINGS + 1):
            r = integrate_finite(net, lo, kmax, spec)
            if not r.converged:
                raise ToleranceError(
                    f"momentum integral did not converge on [{lo!r}, {kmax!r}]"
                )
            value += r.value
            qerr += r.err_est
            n_evals += r.n_evals
            ok, delta = tail_mismatch(kmax, eta)
            n_evals += 1
            tail = _tail_value(kmax, eta)
            if ok and delta * tail <= 0.1 * spec.rel_tol * abs(value / two_pi + tail):
                break
            lo = kmax
            kmax *= 2.0
        else:
            raise TailError(
                f"tail model still inadmissible or dominant at kappa_max={kmax!r}"
            )

    tail = _tail_value(kmax, eta)
    f_eta = scale * (value / two_pi + tail)
    err = scale * (qerr / two_pi + delta * tail)
    return ForceResult(eta=eta, f_eta=f_eta, err_est=err, kappa_max=kmax, n_evals=n_evals)


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

    r = integrate_semi_infinite(f, spec)
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

    r = integrate_semi_infinite(f, spec)
    if not r.converged:
        raise ToleranceError(
            f"perturbative force integral did not converge (err_est={r.err_est:.3e})"
        )
    return r.value
