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
arguments: a Taylor table serves the elements below ``Z_SWITCH`` and an
in-house asymptotic series serves the rest, each as array operations.
The table holds, at the nodes j/8 of [0, Z_SWITCH], 16 Taylor coefficients
of each scaled function, which follow from the value and slope at the
node because Ai and Bi solve w'' = z w.  Those seeds are marched along
the same equation once per process, each solution in its stable
direction: Bi up from its closed forms at 0, Ai down from the series at
``Z_SWITCH``, and Ai is then rescaled at every node to the Wronskian.
Every seed is within 8 ulp of 40-digit mpmath, and the errors of
neighbouring nodes follow one another, so differences across a cell edge
keep them small.  No library Airy function is called on this path, and
importing the module loads no scipy.  The asymptotic series of
the scaled functions is accurate to machine precision from roughly z = 20
upward, so the two regimes overlap over a wide band and their agreement
across that band is asserted in the test suite (the force integrals need
arguments up to ~1e20).  Each element gets the same bits it would get
alone, so neither batching nor order ever changes a result; ``airy_eval``
is the one-argument view of the same evaluator.  The two exponent-free
combinations the force kernel needs, Ai' Bi + Ai Bi' and -(Ai Bi)'/(Ai Bi),
are differences of nearly equal products at large z; above ``Z_SWITCH``
they come from Cauchy products of the same series.  ``_net_terms`` is the
one place that assembles them, for the force kernel's quadrature steps and
its one-sample integrands alike: it returns the rows (ai_s, aip_s, bi_s,
S, L) at every element of one array of arguments in any order.
``airy_scaled`` and ``_net_terms`` share one dispatcher, ``_branches``,
which validates the array and splits it at ``Z_SWITCH`` by a mask: one
table pass below, one series pass, with one zeta, at and above.  The
scaled values of ``_net_terms`` carry the bits ``airy_scaled`` gives.

``airy_via_ode_oracle`` integrates w'' = t w over [0, 50] with
``solve_ivp``, Bi up from its closed forms at 0 and Ai down from scipy's
``airye`` at 50, once per process on its first call.  ``airy_eval``,
``log_deriv_ai``/``_bi`` and the oracle keep their names and signatures
for perfbench, which binds and calls them; no package code and no verify
row calls them (verify compares ``airy_scaled`` with ``airye`` directly).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OracleError, check_real

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

# the Taylor table below, the asymptotic series at and above; both are good
# to a few ulp here
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


def zeta_of(z):
    """zeta(z) = (2/3) z^{3/2} for z >= 0, elementwise on arrays."""
    return (2.0 / 3.0) * z * np.sqrt(z)


def zeta_gap(z_hi, z_lo):
    """zeta(z_hi) - zeta(z_lo) without cancellation for nearby arguments, elementwise.

    Uses a^{3/2} - b^{3/2} = (a - b)(a^2 + ab + b^2)/(a^{3/2} + b^{3/2}),
    exact in the reals.  Direct subtraction of the two zetas loses every
    significant digit once (z_hi - z_lo)/z_hi drops toward machine epsilon,
    which happens routinely in the force integrand at large momentum.
    Equal arguments give 0 exactly.  An argument that is not finite and
    >= 0 is a DomainError naming it.
    """
    z_hi, z_lo = np.asarray(z_hi, dtype=float), np.asarray(z_lo, dtype=float)
    for name, z in (("z_hi", z_hi), ("z_lo", z_lo)):
        ok = (z >= 0.0) & (z < math.inf)  # NaN fails too
        if not ok.all():
            raise DomainError(f"zeta_gap's {name} must be finite and >= 0, "
                              f"got {z[~ok].flat[0].item()!r}")
    if (z_hi < z_lo).any():
        raise DomainError("zeta_gap expects z_hi >= z_lo")
    num = (z_hi - z_lo) * (z_hi * z_hi + z_hi * z_lo + z_lo * z_lo)
    den = z_hi * np.sqrt(z_hi) + z_lo * np.sqrt(z_lo)
    return np.divide((2.0 / 3.0) * num, den, out=np.zeros(num.shape), where=den > 0.0)[()]


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
    q = np.fromiter((x**0.25 for x in z.tolist()), float, z.size)
    rp = 1.0 / math.sqrt(math.pi)
    inv, fwd = rp / q, rp * q
    pre = _HALVES[:rows] * np.array((inv, fwd, inv, fwd)[:rows])
    return pre * _sum_orders(_COEF[:, :rows], _U, zeta)


def _asymptotic_scaled(z: np.ndarray) -> np.ndarray:
    """(ai_s, aip_s, bi_s, bip_s) rows from the large-z series at a 1-D array z."""
    return _series_rows(z, zeta_of(z), 4)


# ---------------------------------------------------------------------------
# Taylor table below Z_SWITCH.
#
# Ai and Bi solve w'' = z w (DLMF 9.2), so about a node z_j the Taylor
# coefficients of either solution obey (n+2)(n+1) c_{n+2} = z_j c_n + c_{n-1}
# from its value and slope at z_j.  Seeded with the scaled values there,
# the sums give Ai e^{zeta_j} and Bi e^{-zeta_j} at z, and a factor
# e^{+-(zeta(z) - zeta_j)} rescales them to z.  The nodes are j/8: the
# step is a power of two, so 8 z and d = z - z_j are exact, and |d| <= 1/16.

_NODE_STEP = 0.125
_ORDERS = 16  # orders 0..15: at z = 40, |d| = 1/16, the last term is below 1e-18 of the sum
# the rescale's exponents per (3/2) gap: e^{+gap} for ai_s, aip_s, e^{-gap} for bi_s, bip_s
_GAP_SIGNS = (2.0 / 3.0) * np.array([1.0, 1.0, -1.0, -1.0])
# orders 0..19 per march step of 1/8; 18 left Bi up to 11 u from mpmath, 19
# and more give the same seeds
_MARCH_ORDERS = 20


def _taylor_coefficients(z, w, p, orders: int) -> list:
    """Taylor coefficients c_0 ... c_{orders-1} about z of y'' = z y, y = w and y' = p there."""
    c = [w, p, z * w / 2.0]
    for n in range(1, orders - 2):
        c.append((z * c[n] + c[n - 1]) / ((n + 2) * (n + 1)))
    return c


def _march() -> np.ndarray:
    """Scaled (ai_s, aip_s, bi_s, bip_s) at the nodes j/8 of [0, Z_SWITCH], shape (4, n).

    Each solution is carried node to node in its stable direction: Bi up
    from the closed forms at 0, Ai down from the asymptotic series at
    Z_SWITCH (DLMF 9.7).  A step of +-1/8 sums the Taylor series about the
    node, coefficients from _taylor_coefficients, in Horner form for the
    value and the slope, and multiplies both by e^{-gap},
    gap = zeta(z_{j+1}) - zeta(z_j) formed without cancellation and
    divided by the exact 3/2 (multiplying by a rounded 2/3 biases every
    step the same way).  Ai lands on AI_ZERO and AIP_ZERO, and Bi
    on the series at Z_SWITCH, within 10 u and 6.5 u (u the double epsilon).
    """
    zs = [j * _NODE_STEP for j in range(int(Z_SWITCH / _NODE_STEP) + 1)]
    hi, lo = np.array(zs[1:]), np.array(zs[:-1])
    gap = _NODE_STEP * (hi * hi + hi * lo + lo * lo) / (hi * np.sqrt(hi) + lo * np.sqrt(lo)) / 1.5
    shrink = np.exp(-gap).tolist()  # cell j: [z_j, z_{j+1}]
    ks = range(_MARCH_ORDERS - 1, 0, -1)

    def step(z: float, w: float, p: float, h: float, e: float) -> tuple[float, float]:
        c = _taylor_coefficients(z, w, p, _MARCH_ORDERS)
        v = s = 0.0
        for k in ks:
            v = v * h + c[k]
            s = s * h + k * c[k]
        return (v * h + w) * e, s * e

    n = len(zs)
    out = np.empty((4, n))
    w, p = BI_ZERO, BIP_ZERO
    out[2:, 0] = w, p
    for j in range(n - 1):
        w, p = step(zs[j], w, p, _NODE_STEP, shrink[j])
        out[2:, j + 1] = w, p
    w, p = _asymptotic_scaled(np.array([Z_SWITCH]))[:2, 0].tolist()
    out[:2, -1] = w, p
    for j in range(n - 1, 0, -1):
        w, p = step(zs[j], w, p, -_NODE_STEP, shrink[j - 1])
        out[:2, j - 1] = w, p
    return out


def _seeds() -> np.ndarray:
    """The table's seeds: the march, with Ai rescaled to the Wronskian at every node.

    Bi starts from its closed forms, and ai_s bip_s - aip_s bi_s = 1/pi
    (DLMF 9.2.7) then fixes the scale of Ai, whose march error is mostly
    one common factor of value and slope (5.5-15 u in the Wronskian).
    Left in, that bias has one sign over the whole table and does not
    average out of the force integral at small eps.
    """
    ai, aip, bi, bip = out = _march()
    wronskian = math.pi * (ai * bip - aip * bi)
    out[:2] /= wronskian
    return out


@functools.cache
def _taylor_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coefficients, z_j, sqrt(z_j)) on the nodes j/8 of [0, Z_SWITCH], built once.

    _seeds gives every node's values.  coefficients[j, r, k] is the
    coefficient of d^k about node j in row r of (ai_s, aip_s, bi_s,
    bip_s).  sqrt(z_j) is the smallest subnormal at node 0 instead of 0,
    so the gap's denominator never vanishes; z = 0 gets gap 0 exactly.
    """
    ai, aip, bi, bip = _seeds()
    zj = np.arange(ai.size) * _NODE_STEP
    c = np.array(_taylor_coefficients(zj, np.array((ai, bi)), np.array((aip, bip)), _ORDERS + 1))
    slope = np.arange(1, _ORDERS + 1)[:, None, None] * c[1:]  # order k: (k+1) c_{k+1}
    coef = np.stack((c[:_ORDERS, 0], slope[:, 0], c[:_ORDERS, 1], slope[:, 1]), axis=1)
    roots = np.sqrt(zj)
    roots[0] = 5e-324
    return np.ascontiguousarray(coef.transpose(2, 1, 0)), zj, roots


def _taylor_scaled(z: np.ndarray) -> np.ndarray:
    """(ai_s, aip_s, bi_s, bip_s) rows, shape (4, n), at a 1-D array of 0 <= z < Z_SWITCH.

    One gather of the nearest node's coefficients, the powers of
    d = z - z_j, one contraction, and the rescale by e^{+-gap},
    gap = zeta(z) - zeta(z_j) formed from d without cancellation, by
    zeta_gap's identity taken through square roots,
    a^{3/2} - b^{3/2} = (a - b)(a + sqrt(ab) + b)/(sqrt(a) + sqrt(b)).
    The contraction sums each element's 16 terms on their own, and every
    other step is elementwise, so an element's bits do not depend on its
    batch.
    """
    coef, nodes, roots = _taylor_table()
    j = np.rint(z * (1.0 / _NODE_STEP)).astype(np.intp)
    zj = nodes[j]
    d = z - zj
    powers = np.empty((z.size, _ORDERS))
    powers[:, 0] = 1.0
    powers[:, 1:] = d[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)  # column k: d^k
    sums = np.einsum("mrk,mk->mr", coef[j], powers)
    rz, rzj = np.sqrt(z), roots[j]
    gap = d * (z + rz * rzj + zj) / (rz + rzj)  # times 3/2
    return (sums * np.exp(gap[:, None] * _GAP_SIGNS)).T


def _branches(z, rows: int, table, series) -> np.ndarray:
    """Rows, shape (rows, n), at a 1-D array of n z >= 0 in any order.

    The one place that validates z and splits it at Z_SWITCH: table(z)
    serves the elements below, series(z) those at and above, each one
    array pass, and a mask puts their columns back in place.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DomainError(f"expected a 1-D array of arguments, got shape {z.shape}")
    if not z.size:
        return np.empty((rows, 0))
    z_min, z_max = z.min(), z.max()
    if not (z_min >= 0.0 and z_max < math.inf):  # NaN fails too
        bad = z[~((z >= 0.0) & (z < math.inf))][0]
        raise DomainError(f"argument must be finite and >= 0, got {bad.item()!r}")
    if z_max < Z_SWITCH:
        return table(z)
    if z_min >= Z_SWITCH:
        return series(z)
    low = z < Z_SWITCH
    high = ~low
    out = np.empty((rows, z.size))
    out[:, low] = table(z[low])
    out[:, high] = series(z[high])
    return out


def airy_scaled(z) -> np.ndarray:
    """Scaled (ai_s, aip_s, bi_s, bip_s) rows, shape (4, n), at a 1-D array of n z >= 0.

    One Taylor-table pass serves the elements below Z_SWITCH and one
    array pass of the asymptotic series the rest.  Every element equals,
    bit for bit, what a one-element array holding it returns.
    """
    return _branches(z, 4, _taylor_scaled, _asymptotic_scaled)


def _table_terms(z: np.ndarray) -> np.ndarray:
    """_net_terms' rows from the table's scaled values at a 1-D array of z < Z_SWITCH."""
    ai, aip, bi, bip = _taylor_scaled(z)
    return np.array((ai, aip, bi, aip * bi + ai * bip, -(aip / ai + bip / bi)))


def _series_terms(z: np.ndarray) -> np.ndarray:
    """_net_terms' rows from the series at a 1-D array z, accurate from z ~ 20 upward.

    S = -P/(2 pi) and L = sqrt(z) P/Q, with P and Q the Cauchy products of
    _PQ, summed in zeta^{-2} under the stop rule of _series_rows, so an
    element's bits do not depend on its batch.
    """
    zeta = zeta_of(z)
    p, q = _sum_orders(_PQ, _PQ_STOP, zeta * zeta)
    s, lnd = -p / (2.0 * math.pi * zeta), 1.5 * p / (z * q)  # sqrt(z)/zeta = 3/(2z)
    return np.concatenate((_series_rows(z, zeta, 3), (s, lnd)))


def _net_terms(z) -> np.ndarray:
    """Rows (ai_s, aip_s, bi_s, S, L), shape (5, n), at a 1-D array of n z >= 0 in any order.

    S = Ai' Bi + Ai Bi' and L = -(Ai Bi)'/(Ai Bi): with the scaled values,
    everything the stress kernel's net needs.  Below Z_SWITCH both are
    formed from the table's scaled values; at and above it they come from
    the product series, and bip_s is not computed there.  ai_s, aip_s and
    bi_s are those of airy_scaled, and every element has the bits of its
    one-element call.
    """
    return _branches(z, 5, _table_terms, _series_terms)


def _exp_soft(t: float) -> float:
    """exp(t) saturating to 0.0 / inf instead of raising OverflowError."""
    if t > 709.0:
        return math.inf
    if t < -745.0:
        return 0.0
    return math.exp(t)


def airy_eval(z: float) -> AiryValues:
    """Evaluate Ai, Bi and derivatives at z >= 0.

    Scaled fields are accurate over the whole domain; raw fields saturate
    gracefully once e^{+-zeta} leaves the representable range.  Kept for
    perfbench (module docstring).
    """
    zf = check_real(z, "argument z")
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
    the ratio stays accurate far beyond where Ai itself underflows.  Kept,
    with log_deriv_bi, for perfbench (module docstring).
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
    from scipy.special import airye  # a seed from outside the package

    e = math.exp(-zeta_of(_ODE_MAX))
    seed = tuple(float(v) * e for v in airye(_ODE_MAX)[:2])
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
    closed forms and z = 50 the Ai seed itself.  Kept for perfbench
    (module docstring).
    """
    zf = check_real(z, "argument z")
    if zf > _ODE_MAX:
        raise DomainError(f"oracle covers [0, {_ODE_MAX}], got {z!r}")
    if zf == 0.0:
        return _assemble_from_raw(0.0, AI_ZERO, AIP_ZERO, BI_ZERO, BIP_ZERO)
    bi_sol, ai_sol, seed = _trajectories()
    bi, bip = bi_sol(zf).tolist()
    ai, aip = seed if zf == _ODE_MAX else ai_sol(zf).tolist()
    return _assemble_from_raw(zf, ai, aip, bi, bip)
