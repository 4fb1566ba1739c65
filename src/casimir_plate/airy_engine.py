"""Airy functions on the nonnegative real axis, in overflow-safe scaled form.

Ai and Bi are the two solutions of w'' = z w.  For z >= 0 define
zeta = (2/3) z^{3/2} and the scaled quadruple

    ai_s  = Ai(z)  e^{+zeta}      bi_s  = Bi(z)  e^{-zeta}
    aip_s = Ai'(z) e^{+zeta}      bip_s = Bi'(z) e^{-zeta}

which stay O(z^{1/4}) for every representable z, while the raw values
underflow (Ai, near z ~ 106) and overflow (Bi, near z ~ 700).  Every ratio
and cross product downstream is assembled from the scaled values with the
exponents cancelled in closed form.  The Wronskian

    Ai(z) Bi'(z) - Ai'(z) Bi(z) = 1/pi

turns into ai_s * bip_s - aip_s * bi_s = 1/pi with no exponentials left,
and that identity is the main conformance handle of the whole module.

``airy_scaled`` evaluates the scaled quadruple on a whole array of
arguments: scipy's scaled evaluator serves the elements below ``Z_SWITCH``
in one call and an in-house asymptotic series serves the rest as array
operations.  scipy's evaluator degrades to NaN near z ~ 1e6 while the force
integrals need arguments up to ~1e20; the asymptotic series of the scaled
functions is accurate to machine precision from roughly z = 20 upward, so
the two regimes overlap over a wide band and their agreement across that
band is asserted in the test suite.  Each element gets the same bits it
would get alone, so batching never changes a result; ``airy_eval`` is the
one-argument view of the same evaluator.  The two exponent-free
combinations the force kernel needs, -(Ai Bi)'/(Ai Bi) and Ai' Bi + Ai Bi',
are differences of nearly equal products at large z; above ``Z_SWITCH``
they come from Cauchy products of the same series.  ``_net_terms`` is the
one place that assembles them, for the force kernel's quadrature steps and
its one-sample integrands alike: given ascending z1 and z2, it cuts each at
``Z_SWITCH`` with ``searchsorted``, makes one ``airye`` call on both heads
and one series pass, with one zeta, on both tails, and computes only what
the net needs.  Its scaled values carry the bits ``airy_scaled`` gives.

``airy_via_ode_oracle`` provides reference values on [0, 50] by a route
independent of both evaluators: adaptive high-order integration of
w'' = t w seeded with closed-form values at t = 0 (for Bi) and with
scipy's ``airye`` at t = 50 (for Ai, marched downward; the upward
direction is exponentially unstable for the decaying solution).  The first
oracle call imports ``scipy.integrate``, computes the Ai seed and
integrates both trajectories over the whole range with dense output; they
are kept for the life of the process and every call evaluates them at its
argument.  The production path (one ``_net_terms`` call per quadrature
step) never pays for any of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import airye as _scipy_airye

from .errors import DomainError, OracleError

__all__ = [
    "AiryValues",
    "airy_eval",
    "airy_scaled",
    "log_deriv_ai",
    "log_deriv_bi",
    "airy_via_ode_oracle",
    "zeta_of",
    "zeta_gap",
    "AI_ZERO",
    "AIP_ZERO",
    "BI_ZERO",
    "BIP_ZERO",
    "Z_SWITCH",
]

# Closed forms at the origin:
#   Ai(0) = 3^{-2/3}/Gamma(2/3)   Ai'(0) = -3^{-1/3}/Gamma(1/3)
#   Bi(0) = 3^{-1/6}/Gamma(2/3)   Bi'(0) =  3^{1/6}/Gamma(1/3)
AI_ZERO = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
AIP_ZERO = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
BI_ZERO = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
BIP_ZERO = 3.0 ** (1.0 / 6.0) / math.gamma(1.0 / 3.0)

# scipy below, asymptotic series above; both are good to a few ulp here.
Z_SWITCH = 40.0

_ODE_MAX = 50.0  # oracle range; the Ai seed sits at this point


@dataclass(frozen=True)
class AiryValues:
    """Ai, Bi and first derivatives at one argument, raw and scaled.

    The raw fields are best-effort: beyond representability they underflow
    to 0.0 (Ai side) or overflow to inf (Bi side) without raising.  The
    scaled fields are accurate for every z the constructor accepts.
    """

    z: float
    ai: float
    aip: float
    bi: float
    bip: float
    zeta: float
    ai_s: float
    aip_s: float
    bi_s: float
    bip_s: float

    def wronskian_scaled(self) -> float:
        """ai_s*bip_s - aip_s*bi_s; equals 1/pi for exact values."""
        return self.ai_s * self.bip_s - self.aip_s * self.bi_s


def zeta_of(z: float) -> float:
    """zeta(z) = (2/3) z^{3/2} for z >= 0."""
    return (2.0 / 3.0) * z * math.sqrt(z)


def zeta_gap(z_hi: float, z_lo: float) -> float:
    """zeta(z_hi) - zeta(z_lo) without cancellation for nearby arguments.

    Uses a^{3/2} - b^{3/2} = (a - b)(a^2 + ab + b^2)/(a^{3/2} + b^{3/2}),
    exact in the reals.  Direct subtraction of the two zetas loses every
    significant digit once (z_hi - z_lo)/z_hi drops toward machine epsilon,
    which happens routinely in the force integrand at large momentum.
    """
    if z_hi < z_lo:
        raise DomainError("zeta_gap expects z_hi >= z_lo")
    if z_hi == z_lo:
        return 0.0
    num = (z_hi - z_lo) * (z_hi * z_hi + z_hi * z_lo + z_lo * z_lo)
    den = z_hi * math.sqrt(z_hi) + z_lo * math.sqrt(z_lo)
    return (2.0 / 3.0) * num / den


# ---------------------------------------------------------------------------
# Large-z series of the scaled functions.
#
#   ai_s  ~ (2 sqrt(pi) z^{1/4})^{-1} sum (-1)^k u_k zeta^{-k}
#   aip_s ~ -(z^{1/4} / (2 sqrt(pi))) sum (-1)^k v_k zeta^{-k}
#   bi_s  ~ (sqrt(pi) z^{1/4})^{-1} sum u_k zeta^{-k}
#   bip_s ~ (z^{1/4} / sqrt(pi)) sum v_k zeta^{-k}
#
# with u_0 = v_0 = 1, u_k = u_{k-1} (6k-5)(6k-3)(6k-1) / (216 k (2k-1)),
# v_k = u_k (6k+1)/(1-6k).

_N_TERMS = 24
_U = [1.0]
for _k in range(1, _N_TERMS + 1):
    _U.append(
        _U[-1]
        * (6.0 * _k - 5.0)
        * (6.0 * _k - 3.0)
        * (6.0 * _k - 1.0)
        / (216.0 * _k * (2.0 * _k - 1.0))
    )
_V = [1.0] + [_U[_k] * (6.0 * _k + 1.0) / (1.0 - 6.0 * _k) for _k in range(1, _N_TERMS + 1)]
# row k: the coefficients of zeta^{-k} in the four sums (ai_s, aip_s, bi_s,
# bip_s); the alternating sign is folded in, which is exact
_COEF = np.array([[(-1.0) ** _k * _U[_k], (-1.0) ** _k * _V[_k], _U[_k], _V[_k]]
                  for _k in range(_N_TERMS + 1)])
# times (rp/q, rp q, rp/q, rp q): the prefactors (0.5 rp)/q, (-0.5 rp) q, rp/q
# and rp q of the four sums, bit for bit, because halving is exact
_HALVES = np.array([[0.5], [-0.5], [1.0], [1.0]])
# With A, A', B, B' the four sums above (sign folded in), the Cauchy products
#   P = A' B - B' A = zeta^{-1} sum_m p_m zeta^{-2m}   (odd orders only)
#   Q = A B         =           sum_m q_m zeta^{-2m}   (even orders only)
# because the other orders cancel exactly; row m holds (p_m, q_m).
_PQ = np.array([[2.0 * sum((-1.0) ** j * _V[j] * _U[k - j] for j in range(k + 1)),
                 sum((-1.0) ** j * _U[j] * _U[k - 1 - j] for j in range(k))]
                for k in range(1, _N_TERMS, 2)])


# the stop-rule magnitudes of the product sums, one per order in zeta^{-2}
_PQ_STOP = np.abs(_PQ).max(axis=1).tolist()


def _stop_order(coef, x: float) -> int:
    """First order k with coef[k] / x^k below 1e-20, or the last order.

    x is the batch's smallest expansion variable, whose terms are the
    largest, so one order serves every element: one that alone would have
    stopped earlier only adds terms far below half an ulp of its sums.
    """
    p = 1.0
    for last, c in enumerate(coef):
        if c * p < 1e-20:
            return last
        p /= x
    return last


def _sum_orders(coef: np.ndarray, stop, x: np.ndarray) -> np.ndarray:
    """Rows sum_k coef[k, r] x^{-k} at a 1-D array x, shape (rows, n).

    Orders 0..K are summed, K = _stop_order(stop, min x), one after
    another as a scalar sum would (np.add.reduce promises no order, and
    may sum pairwise).  Powers of 1/x are built by repeated division: x**k
    overflows long before the series stops being useful.
    """
    last = _stop_order(stop, float(x.min()))
    powers = np.empty((last + 1, x.size))
    powers[0] = 1.0
    powers[1:] = x
    np.divide.accumulate(powers, axis=0, out=powers)  # row k: x^{-k}
    return np.add.accumulate(coef[: last + 1, :, None] * powers[:, None, :], axis=0)[-1]


def _zeta(z: np.ndarray) -> np.ndarray:
    return (2.0 / 3.0) * z * np.sqrt(z)


def _series_rows(z: np.ndarray, zeta: np.ndarray, rows: int) -> np.ndarray:
    """The first rows of (ai_s, aip_s, bi_s, bip_s) from the large-z series at a 1-D array z.

    Stop rule: orders 0..K are summed, K being the first order at which
    every element's term u_k zeta^{-k} is below 1e-20 (at most _N_TERMS).
    The element with the smallest zeta has the largest terms, so it sets
    K.  For z >= 20 that comes well before the divergent turn of the
    series, and an element that alone would have stopped earlier gets the
    same bits: each of its sums is 1 +- 2e-3, and adding a later term,
    smaller still than 1e-20, cannot change it.  z^{1/4} is taken per
    element with Python's pow, because numpy's power differs from it in
    the last bit on some arguments.
    """
    q = np.array([x**0.25 for x in z.tolist()])
    rp = 1.0 / math.sqrt(math.pi)
    inv, fwd = rp / q, rp * q
    pre = _HALVES[:rows] * np.array((inv, fwd, inv, fwd)[:rows])
    return pre * _sum_orders(_COEF[:, :rows], _U, zeta)


def _asymptotic_scaled(z: np.ndarray) -> np.ndarray:
    """(ai_s, aip_s, bi_s, bip_s) rows from the large-z series at a 1-D array z."""
    return _series_rows(z, _zeta(z), 4)


def airy_scaled(z) -> np.ndarray:
    """Scaled (ai_s, aip_s, bi_s, bip_s) rows, shape (4, n), at a 1-D array of n z >= 0.

    One scipy ``airye`` call serves the elements below Z_SWITCH and one
    array pass of the asymptotic series the rest.  Every element equals,
    bit for bit, what a one-element array holding it returns.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError(f"expected a 1-D array of arguments, got shape {z.shape}")
    if not z.size:
        return np.empty((4, 0))
    z_min, z_max = z.min(), z.max()
    if not (z_min >= 0.0 and z_max < math.inf):  # NaN fails too
        bad = z[~((z >= 0.0) & (z < math.inf))][0]
        raise DomainError(f"argument must be finite and >= 0, got {bad.item()!r}")
    if z_max < Z_SWITCH:
        return np.array(_scipy_airye(z))
    if z_min >= Z_SWITCH:
        return _asymptotic_scaled(z)
    low = z < Z_SWITCH
    out = np.empty((4, z.size))
    out[:, low] = _scipy_airye(z[low])
    out[:, ~low] = _asymptotic_scaled(z[~low])
    return out


def _product_series(z: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-(Ai Bi)'/(Ai Bi), Ai' Bi + Ai Bi') from the product series at a 1-D array z.

    -(Ai Bi)'/(Ai Bi) = sqrt(z) P/Q and Ai' Bi + Ai Bi' = -P/(2 pi), with P
    and Q the Cauchy products of _PQ, summed in zeta^{-2} under the stop
    rule of _series_rows, so an element's bits do not depend on its batch.
    Accurate where the Airy series is (z >= 20 or so).
    """
    p, q = _sum_orders(_PQ, _PQ_STOP, zeta * zeta)
    return 1.5 * p / (z * q), -p / (2.0 * math.pi * zeta)  # sqrt(z)/zeta = 3/(2z)


def _net_terms(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Rows (ai_s, aip_s, bi_s, w) at ascending z1, then at ascending z2 >= z1; shape (4, 2n).

    w is Ai' Bi + Ai Bi' at z1 and -(Ai Bi)'/(Ai Bi) at z2: with the scaled
    values, everything the stress kernel's net needs.  Two searchsorted
    cuts split z1 and z2 at Z_SWITCH; one ``airye`` call serves both heads,
    and one series pass, with one zeta, both tails (bip_s is not needed
    there and not computed).  The series stop order comes from the
    smallest zeta of both tails together, so an element's bits do not
    depend on its batch, and ai_s, aip_s and bi_s are those of airy_scaled.
    """
    n = z1.size
    if n and not (z1[0] >= 0.0 and z2[-1] < math.inf):  # NaN fails too
        raise DomainError(f"arguments must be finite and >= 0, got [{z1[0]!r}, {z2[-1]!r}]")
    i1, i2 = int(z1.searchsorted(Z_SWITCH)), int(z2.searchsorted(Z_SWITCH))  # i2 <= i1
    out = np.empty((4, 2 * n))
    if i1:
        # below the switch both are formed from the scaled values
        ai, aip, bi, bip = _scipy_airye(np.concatenate((z1[:i1], z2[:i2])))
        s, lnd = aip * bi + ai * bip, -(aip / ai + bip / bi)
        out[:, :i1] = ai[:i1], aip[:i1], bi[:i1], s[:i1]
        out[:, n : n + i2] = ai[i1:], aip[i1:], bi[i1:], lnd[i1:]
    if i2 < n:
        m = n - i1
        z = np.concatenate((z1[i1:], z2[i2:]))
        zeta = _zeta(z)
        rows = _series_rows(z, zeta, 3)
        lnd, s = _product_series(z, zeta)
        out[:3, i1:n], out[3, i1:n] = rows[:, :m], s[:m]
        out[:3, n + i2 :], out[3, n + i2 :] = rows[:, m:], lnd[m:]
    return out


def _exp_soft(t: float) -> float:
    """exp(t) saturating to 0.0 / inf instead of raising OverflowError."""
    if t > 709.0:
        return math.inf
    if t < -745.0:
        return 0.0
    return math.exp(t)


def _validate(z: float) -> float:
    try:
        zf = float(z)
    except (TypeError, ValueError):
        raise DomainError(f"argument must be a real number, got {z!r}") from None
    if not math.isfinite(zf) or zf < 0.0:
        raise DomainError(f"argument must be finite and >= 0, got {z!r}")
    return zf


def airy_eval(z: float) -> AiryValues:
    """Evaluate Ai, Bi and derivatives at z >= 0.

    Scaled fields are accurate over the whole domain; raw fields saturate
    gracefully once e^{+-zeta} leaves the representable range.
    """
    zf = _validate(z)
    zeta = zeta_of(zf)
    ai_s, aip_s, bi_s, bip_s = airy_scaled(np.array([zf]))[:, 0].tolist()
    em = _exp_soft(-zeta)
    ep = _exp_soft(zeta)
    return AiryValues(
        z=zf,
        ai=ai_s * em,
        aip=aip_s * em,
        bi=bi_s * ep,
        bip=bip_s * ep,
        zeta=zeta,
        ai_s=ai_s,
        aip_s=aip_s,
        bi_s=bi_s,
        bip_s=bip_s,
    )


def log_deriv_ai(z: float) -> float:
    """Ai'(z)/Ai(z), strictly negative; tends to -sqrt(z) - 1/(4z) at large z.

    Computed from the scaled values, so the exponentials cancel exactly and
    the ratio stays accurate far beyond where Ai itself underflows.
    """
    v = airy_eval(z)
    return v.aip_s / v.ai_s


def log_deriv_bi(z: float) -> float:
    """Bi'(z)/Bi(z), strictly positive; tends to +sqrt(z) - 1/(4z) at large z."""
    v = airy_eval(z)
    return v.bip_s / v.bi_s


# ---------------------------------------------------------------------------
# ODE oracle.


def _ode_rhs(t, y):
    return (y[1], t * y[0])


@functools.cache
def _trajectories():
    """(Bi, Ai) dense-output solutions of w'' = t w over [0, 50], and the Ai seed.

    The seed is scipy's airye at 50, not the series airy_eval serves there.
    Built by the first oracle call and kept; an integration that fails
    raises and leaves nothing cached, so the next call tries again.
    """
    from scipy.integrate import solve_ivp  # oracle only; kept off the import path

    e = math.exp(-zeta_of(_ODE_MAX))
    seed = tuple(float(v) * e for v in _scipy_airye(_ODE_MAX)[:2])
    sols = []
    for t0, y0, t1 in ((0.0, (BI_ZERO, BIP_ZERO), _ODE_MAX), (_ODE_MAX, seed, 0.0)):
        sol = solve_ivp(
            _ode_rhs, (t0, t1), list(y0), method="DOP853",
            rtol=1e-13, atol=1e-300, dense_output=True,
        )
        if not sol.success:
            raise OracleError(f"integration of w'' = t w failed: {sol.message}")
        sols.append(sol.sol)
    return sols[0], sols[1], seed


def _assemble_from_raw(z: float, ai: float, aip: float, bi: float, bip: float) -> AiryValues:
    # e^{zeta(50)} ~ 1e102: representable, so raw <-> scaled is safe here
    zeta = zeta_of(z)
    ep = math.exp(zeta)
    em = math.exp(-zeta)
    return AiryValues(
        z=z, ai=ai, aip=aip, bi=bi, bip=bip, zeta=zeta,
        ai_s=ai * ep, aip_s=aip * ep, bi_s=bi * em, bip_s=bip * em,
    )


def airy_via_ode_oracle(z: float) -> AiryValues:
    """Reference Airy values on [0, 50] by direct integration of w'' = t w.

    Bi is integrated upward from the closed-form origin values: the growing
    solution is the stable direction, so rounding noise stays bounded.  Ai
    upward is hopeless; any rounding injects a Bi component amplified by
    e^{2 zeta}, a factor ~1e18 already at t = 10.  Ai is therefore seeded
    at t = 50 from scipy's ``airye`` (within 2e-16 of 40-digit mpmath there,
    and separate code from the series airy_eval uses above Z_SWITCH) and
    marched downward, the stable direction for the decaying solution.  The
    closed-form origin values give an end-to-end check of that sweep,
    exercised in the test suite.

    Both trajectories span the whole range and are integrated once per
    process, on the first call; each call reads their dense output at z
    (within 2.1e-12 of 30-digit mpmath on [0, 50]).  z = 0 returns the
    closed forms and z = 50 the Ai seed itself.
    """
    zf = _validate(z)
    if zf > _ODE_MAX:
        raise DomainError(f"oracle covers [0, {_ODE_MAX}], got {z!r}")
    if zf == 0.0:
        return _assemble_from_raw(0.0, AI_ZERO, AIP_ZERO, BI_ZERO, BIP_ZERO)
    bi_sol, ai_sol, seed = _trajectories()
    bi, bip = bi_sol(zf).tolist()
    ai, aip = seed if zf == _ODE_MAX else ai_sol(zf).tolist()
    return _assemble_from_raw(zf, ai, aip, bi, bip)
