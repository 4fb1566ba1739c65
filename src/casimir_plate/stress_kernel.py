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
difference but from its exact Wronskian rearrangement (``_net_above``),
and

    f(eta) = eta^{2/3} integral_0^inf dkappa/(2 pi) net(kappa)

is one integral over the whole half line, with no cutoff or tail model.
``_net_above`` takes a whole array of momenta in any order, a quadrature
step's or a single sample's, and eps = eta^{1/3}, and serves every z1
and z2 of it with one ``airy_engine._net_terms`` pass.  It returns net
and above = ai2'/ai2.  The one-momentum views return floats: net, above,
and below = above + net, which equals N/D exactly; N/D is never
evaluated.  D enters net in compensated form: the common factor
e^{zeta_2 - 2 zeta_1} is removed analytically, which leaves every
surviving term O(1) or exponentially small.  The naive unscaled products
underflow to zero near kappa ~ 8 and silently flip the sign of the
ratio, so that route is forbidden rather than merely discouraged.

The two flat-background references live here as well.  The two-plate
benchmark (attractive, -pi/(24 a^2)) is one integral on the a-free
variable t = 2 K a, scaled by 1/a^2.  The leading-order perturbative
estimate (infrared divergent by design; it exists to demonstrate why the
exact route is needed) is a closed form in the exponential integral E1,
with no quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .airy_engine import Z_SWITCH, _net_terms
from .errors import _U, DomainError, QuadratureSpec, SingularityError, ToleranceError, check_real
from .quadrature import _U as _EXP_SINH_NODES, integrate_semi_infinite

__all__ = [
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

# the kernel squares zeta = (2/3) z^{3/2}, z = kappa^2 + eps (airy_engine._series_terms):
# a momentum up to _KAPPA_MAX keeps kappa^6 below an eighth of the float range, room for
# eps <= kappa^2 (eta up to _ETA_MAX); a scale k0 up to _K0_MAX keeps the farthest node there
_ETA_MAX = sys.float_info.max / 8.0
_KAPPA_MAX = _ETA_MAX ** (1.0 / 6.0)
_K0_MAX = _KAPPA_MAX / _EXP_SINH_NODES[-1].item()


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
        return asdict(self)


def _net_above(kappa: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(net, above) at every momentum of a 1-D array, in any order, at eps = eta^{1/3}.

    One airy_engine._net_terms pass serves z1 = kappa^2 and
    z2 = kappa^2 + eps together; above is Ai'/Ai at z2.  net is not
    below - above, which cancels to 1/(2 kappa^2) from two numbers of size
    kappa, but its exact Wronskian rearrangement

        net = L(z2) + S E / (pi bi2 D_c)
        D_c = S ai2 E - 2 ai1 aip1 bi2,   E = e^{-2 (zeta_2 - zeta_1)}

    with scaled Airy values, S = Ai' Bi + Ai Bi' at z1 and
    L = -(Ai Bi)'/(Ai Bi).  The zeta gap in E is formed from eps, never
    from z2 - z1, which carries the rounding of z2 (docs/numerics.md
    section 2).  Every step is elementwise, so an element's bits do not
    depend on its batch or its place in it.  Callers validate
    0 <= kappa <= _KAPPA_MAX and 0 < eps <= _ETA_MAX^{1/3}.
    """
    n = kappa.size
    z1 = kappa * kappa
    z2 = z1 + eps
    # each row of _net_terms, split into its z1 and z2 halves
    (ai1, ai2), (aip1, aip2), (_, bi2), (s, _), (_, lnd2) = _net_terms(
        np.concatenate((z1, z2))).reshape(5, 2, n)
    gap = (2.0 / 3.0) * eps * (z2 * z2 + z2 * z1 + z1 * z1) / (z2 * np.sqrt(z2) + z1 * np.sqrt(z1))
    ee = np.exp(-2.0 * gap)
    den = s * ai2 * ee - 2.0 * ai1 * aip1 * bi2
    if not den.all():
        k = kappa[den == 0.0][0].item()
        raise SingularityError(f"below-plate denominator vanished at kappa={k!r}, eps={eps!r}")
    return lnd2 + s * ee / (math.pi * bi2 * den), aip2 / ai2


def _integrand(kappa, eta, strict: bool = True) -> tuple[float, float | None]:
    """(net, above) at one checked momentum; kappa beyond _KAPPA_MAX is refused unsquared.

    At eta = 0, which only strict=False admits, the sides coincide as an
    identity: net is 0.0, above None, and no Airy function is evaluated.
    """
    kappa = check_real(kappa, "kappa", upper=_KAPPA_MAX)
    eta = check_real(eta, "eta", strict=strict, upper=_ETA_MAX)
    if eta == 0.0:
        return 0.0, None
    net, above = _net_above(np.array([kappa]), eta ** (1.0 / 3.0))
    return net.item(), above.item()


def integrand_above(kappa: float, eta: float) -> float:
    """Slope ratio just above the plate: Ai'(z)/Ai(z) at z = kappa^2 + eta^{1/3}."""
    return _integrand(kappa, eta)[1]


def integrand_below(kappa: float, eta: float) -> float:
    """Slope ratio just below the plate, the N/D form, evaluated as above + net."""
    net, above = _integrand(kappa, eta)
    return above + net


def integrand_net(kappa: float, eta: float) -> float:
    """Net integrand below - above, from its cancellation-free rearrangement; 0.0 at eta = 0.

    kappa must be at most _KAPPA_MAX, the farthest node force_exact evaluates.
    """
    return _integrand(kappa, eta, strict=False)[0]


def tail_mismatch(kappa_max: float, eta: float) -> tuple[bool, float]:
    """(mismatch below 1 percent, relative mismatch) of net against 1/(2 z2) at kappa_max.

    No package code calls it; it keeps its name for perfbench/tracer.py.
    verify's large_kappa_net_law measures the law with its bound in CHECKS.
    """
    net = integrand_net(kappa_max, eta)
    model = 0.5 / (kappa_max * kappa_max + eta ** (1.0 / 3.0))
    if not (net > 0.0) or not math.isfinite(net):
        return False, math.inf
    delta = abs(net - model) / net
    return delta < 0.01, delta


# Relative rounding error of the integrated kernel, in units of u = 2^-52
# (errors._U), calibrated against mpmath (docs/numerics.md section 3):
# _ROUND_LIB u while the Taylor table serves some z2 < Z_SWITCH (at most
# 72 u measured, 59 u beyond the quadrature's estimate), plus _ROUND_EPS u
# divided by min(1, eps), eps = eta^{1/3}, from the cancellation between
# the two terms of net at small eps; or, if larger, _ROUND_POW u |ln eta|,
# twice the 2.78e-17 ln eta that the rounded exponents 2/3 and 1/3 take off
# f at large eta (the larger one only from ln eta = 40 up).
_ROUND_LIB = 100.0
_ROUND_EPS = 10.0
_ROUND_POW = 0.25


def _refusal(n_evals: int, cause: str, eta: float, spec: QuadratureSpec, err: str,
             k0: float) -> ToleranceError:
    return ToleranceError(
        f"momentum integral did not reach rel_tol (n_evals={n_evals}, cause: {cause}); "
        f"eta={eta!r}, rel_tol={spec.rel_tol!r}, err_est={err}, k0={k0!r}"
    )


def force_exact(eta: float, spec: QuadratureSpec = QuadratureSpec()) -> ForceResult:
    """Dimensionless force coefficient f(eta); pressure is f(eta)/a^2 at hbar = c = 1.

    f(eta) = eta^{2/3} integral_0^inf dkappa/(2 pi) net(kappa)

    as one integrate_semi_infinite call on kappa = k0 u.  The scale k0 is
    spec.kappa_max_policy when set, otherwise max(eta^{1/6}, eta^{-1/3}):
    sqrt(eps) at large eta, and at small eta the crossover kappa ~ 1/eps
    where net turns from eps/kappa to 1/(2 kappa^2), eps = eta^{1/3}.  It
    is reported as kappa_max.  err_est is the quadrature estimate plus a
    rounding term (the kernel's, or that of the pow exponents, ~ ln eta),
    and a result whose err_est exceeds rel_tol * f raises ToleranceError
    naming the input (eta, rel_tol, k0) and the part of err_est that
    missed: the level difference, the window edge or rounding.  When the
    rounding term alone exceeds rel_tol, that error is raised before any
    node is evaluated (n_evals=0); an integral that comes out zero or
    negative is refused the same way.
    A k0 above _K0_MAX, pinned or the default one (eta outside
    [1.6e-104, 3.7e207]), raises DomainError naming eta and k0.
    eta = 0 returns exactly zero without integrating (the net integrand is
    identically zero by the cancellation identity).
    """
    eta = check_real(eta, "eta")
    # a pinned k0 is bounded at eta = 0 too, where no default is formed
    k0 = spec.kappa_max_policy or (eta and max(eta ** (1.0 / 6.0), eta ** (-1.0 / 3.0)))
    if k0 > _K0_MAX or eta > _ETA_MAX:
        raise DomainError(f"eta={eta!r} with k0={k0!r} is out of range (k0 <= {_K0_MAX!r}, "
                          "eta <= 2.2e307): the farthest node's zeta^2 would overflow")
    if eta == 0.0:
        return ForceResult(eta=0.0, f_eta=0.0, err_est=0.0, kappa_max=0.0, n_evals=0)
    eps = eta ** (1.0 / 3.0)

    def net(u: np.ndarray) -> np.ndarray:
        return k0 * _net_above(k0 * u, eps)[0]

    lib = _ROUND_LIB if eps < Z_SWITCH else 0.0
    rounding = _U * max(lib + _ROUND_EPS / min(1.0, eps), _ROUND_POW * abs(math.log(eta)))
    # the quadrature gets what the rounding term leaves of rel_tol; when
    # nothing is left, no integral can meet it
    budget = spec.rel_tol - rounding
    if not budget > 0.0:
        raise _refusal(0, "rounding", eta, spec, f"{rounding:.3e} * f_eta", k0)
    r = integrate_semi_infinite(net, budget)
    scale = eta ** (2.0 / 3.0) / (2.0 * math.pi)
    f_eta = scale * r.value
    err = scale * r.err_est + rounding * abs(f_eta)
    # f(eta) > 0 for every eta > 0; zero or below is the kernel's rounding
    # on a vanishing integral, or every node of a tiny pinned k0 underflowing
    if not (r.converged and f_eta > 0.0 and err <= spec.rel_tol * f_eta):
        # a window edge that alone misses the quadrature's tolerance stops it
        # at the first level; otherwise the finest level ran out
        edge_missed = r.edge > budget * abs(r.value)
        cause = ("value not positive" if r.converged and not f_eta > 0.0
                 else "rounding" if r.converged
                 else "window edge" if edge_missed else "level difference")
        raise _refusal(r.n_evals, cause, eta, spec, f"{err:.3e}, f_eta={f_eta:.6e}", k0)
    return ForceResult(eta=eta, f_eta=f_eta, err_est=err, kappa_max=k0, n_evals=r.n_evals)


# the separations whose -pi/(24 a^2) is a normal float
_A_MIN = math.sqrt(math.pi / 24.0) / math.sqrt(sys.float_info.max)
_A_MAX = math.sqrt(math.pi / 24.0 / sys.float_info.min)


def force_classic(a: float, rel_tol: float = 1e-9) -> float:
    """Attraction between two flat-background plates a apart: -pi/(24 a^2).

    The coincident-limit stress difference of the two flat kernels reduces
    to -integral_0^inf dK/pi K / (e^{2 K a} - 1) = -I/(4 pi a^2), with
    I = integral_0^inf t/(e^t - 1) dt on the a-free t = 2 K a (docs/numerics.md
    section 4), to rel_tol.  A rel_tol that is not finite and > 0, checked
    first, or an a outside [_A_MIN, _A_MAX] raises DomainError.
    """
    rel_tol = check_real(rel_tol, "rel_tol", strict=True)
    a = check_real(a, "plate separation a", strict=True)
    if not _A_MIN <= a <= _A_MAX:
        raise DomainError(f"plate separation a must be in [{_A_MIN!r}, {_A_MAX!r}], outside "
                          f"which -pi/(24 a^2) is not a normal float, got {a!r}")
    # t e^{-t} / (1 - e^{-t}): no overflow at large t, and 1 as t -> 0
    r = integrate_semi_infinite(lambda t: t * np.exp(-t) / -np.expm1(-t), rel_tol)
    if not r.converged:
        raise ToleranceError(f"flat-background force integral did not converge (n_evals={r.n_evals}"
                             f"); a={a!r}, rel_tol={rel_tol!r}, err_est={r.err_est:.3e}")
    # a^2 is never formed: it leaves the normal floats inside the range
    return -r.value / (4.0 * math.pi * a) / a


def perturbative_integrands(K: float, a: float, b: float) -> tuple[float, float, float]:
    """Leading-order-in-b stress integrands (below, above, net) at momentum K.

    below = -K + b (1 - 2 K a - 2 e^{-2 K a}) / (4 K^2)
    above = -K - b (1 + 2 K a) / (4 K^2)
    net   =  b (1 - e^{-2 K a}) / (2 K^2)

    The three printed forms satisfy net = below - above identically
    (verify's perturbative_identity checks it).  net blows up like a b / K as K -> 0:
    the infrared divergence that makes the perturbative route an estimate
    rather than an answer.  A K at which a side leaves the float range (below
    K ~ 3.7e-155 at b = 1, where b/(4 K^2) overflows) is a DomainError naming K.
    """
    K = check_real(K, "K", strict=True)
    a = check_real(a, "a", strict=True)
    b = check_real(b, "b")
    k2_4 = 4.0 * K * K
    if k2_4 > 0.0:
        below = -K + b * (1.0 - 2.0 * K * a - 2.0 * math.exp(-2.0 * K * a)) / k2_4
        above = -K - b * (1.0 + 2.0 * K * a) / k2_4
        net = b * (-math.expm1(-2.0 * K * a)) / (2.0 * K * K)
        if math.isfinite(below) and math.isfinite(above) and math.isfinite(net):
            return below, above, net
    raise DomainError(f"K={K!r} puts the perturbative integrands outside the float range "
                      f"(a={a!r}, b={b!r})")


_EULER = 0.5772156649015329


def _e1(c: float) -> float:
    """E1(c), c > 0, to 3e-16: the series DLMF 6.6.2 (fsum) up to c = 1, and above
    it the even continued fraction DLMF 6.9.1, summed up from a depth that converges."""
    if c <= 1.0:
        terms, term, n = [-_EULER, -math.log(c)], -1.0, 0
        while abs(term) > 1e-17:  # E1 >= 0.219 here
            n += 1
            term *= -c / n
            terms.append(term / n)
        return math.fsum(terms)
    t = 0.0
    for n in range(int(100.0 / c) + 8, 0, -1):
        t = n * n / (c + (2 * n + 1) - t)
    return math.exp(-c) / (c + 1.0 - t)


def force_perturbative(a: float, b: float, k_min: float) -> float:
    """Leading-order net force with an explicit infrared cutoff k_min.

    b integral_{k_min}^inf dK/(2 pi) (1 - e^{-2 K a}) / (2 K^2) = (a b / 2 pi) [phi(c) + E1(c)]
    by parts, c = 2 a k_min, phi(c) = (1 - e^{-c})/c (docs/numerics.md section 5).  It grows
    by (a b / 2 pi) ln 2 per halving of k_min << 1/a: that cutoff dependence is the point, so
    it is quarantined from the exact force.  Where a b / 2 pi or the force is not a normal
    float (as where c overflows), DomainError names a, b and k_min.
    """
    a = check_real(a, "a", strict=True)
    b = check_real(b, "b")
    k_min = check_real(k_min, "k_min", strict=True)
    scale = a * b / (2.0 * math.pi)
    c = 2.0 * a * k_min
    if c < sys.float_info.min:
        # c has lost bits to underflow; phi(c) + E1(c) = 1 - gamma - ln c to the last bit
        force = scale * (1.0 - _EULER - math.log(2.0 * a) - math.log(k_min))
    else:
        force = scale * (-math.expm1(-c) / c + _e1(c))  # 0 where c overflows
    if b > 0.0 and not (scale >= sys.float_info.min and sys.float_info.min <= force < math.inf):
        raise DomainError(f"perturbative force at a={a!r}, b={b!r}, k_min={k_min!r} is out of "
                          f"range: a b / 2 pi = {scale!r}, c = {c!r}, force = {force!r}")
    return force
