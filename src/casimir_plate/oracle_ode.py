"""Brute-force finite-difference verification layer, with no Airy function in any path.

The mode equation w'' = q(x) w, q(x) = b^{2/3} kappa^2 + b |x|, is
discretized with Numerov weighting on a uniform grid in physical x and
solved as one tridiagonal system, the plate on a node and a WKB decay
closure at each open end; each row scaled by its Numerov weight makes the
band symmetric positive definite, which LAPACK's dptsv solves without
pivoting.  One checked path (_solve) solves it for w decaying
away from the plate with w = 1 on it.  Its slope there is one side's
stress integrand (integrand_from_fd); the net integrand is one positive
integral over both sides (_net_fd, on two nested grids sharing their
nodes), which force_from_fd integrates over all momenta by the nested
Clenshaw-Curtis rule integrate_finite.  With a unit source and G = 0 at
the plate the band gives the Green's function (solve_bvp_above/_full).
Nothing but errors (PlateConfig and the argument checks) and the finite
rule of quadrature is shared with the closed forms; docs/numerics.md
section 6 derives it all.  When
cfg.b == 0 (the eta = 0 cross-checks) kappa is the physical momentum K.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, OracleError, PlateConfig, ToleranceError, as_real, check_real
from .quadrature import integrate_finite

__all__ = ["GridSpec", "solve_bvp_above", "solve_bvp_full", "integrand_from_fd", "fd_setup",
           "force_from_fd"]


# most nodes a grid may have, above the 3,089,577 of the force's largest grid
# at eta = 1e-14 (kappa = 0; it grows as eta^{-1/3}); a net sample peaks at
# about 6.5 float arrays of its fine grid's n entries (nodes, q and weights,
# then the band's c, diagonal, off-diagonal and right-hand side), 32 MB each
# at the cap
_MAX_NODES = 4_000_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid for the band solver; spacing h = (x_hi - x_lo)/(n - 1).

    n is an integer in [1000, _MAX_NODES], checked before any node is built.
    """

    x_lo: float
    x_hi: float
    n: int = 4001
    h: float = field(init=False, repr=False, compare=False)  # formed once, read by every user

    def __post_init__(self):
        for name in ("x_lo", "x_hi"):
            v = as_real(getattr(self, name), f"grid bound {name}")
            if not math.isfinite(v):
                raise DomainError(f"grid bound {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not self.x_lo < self.x_hi:
            raise DomainError(f"need x_lo < x_hi, got [{self.x_lo!r}, {self.x_hi!r}]")
        try:
            operator.index(self.n)
        except TypeError:
            raise DomainError(f"grid size n must be an integer, got {self.n!r}") from None
        if self.n < 1000:
            raise DomainError(f"grid needs at least 1000 points, got {self.n!r}")
        if self.n > _MAX_NODES:
            raise DomainError(f"grid needs {self.n!r} points, over the cap of {_MAX_NODES}")
        object.__setattr__(self, "h", (self.x_hi - self.x_lo) / (self.n - 1))


def _momentum_factor(cfg: PlateConfig) -> float:  # b = 0: kappa is the physical momentum
    return cfg.b ** (2.0 / 3.0) if cfg.b > 0.0 else 1.0


def _bcube(cfg: PlateConfig) -> float:  # integrands divide by b^{1/3}, by 1 when b = 0
    return cfg.b ** (1.0 / 3.0) if cfg.b > 0.0 else 1.0


@functools.cache
def _dptsv():  # LAPACK's SPD band solver, bound on first use: scipy stays off the import path
    from scipy.linalg.lapack import dptsv

    return dptsv


def _solve_tridiagonal_bvp(h: float, q: np.ndarray, source: Optional[int], plate: str,
                           kink: int = -1, jump: float = 0.0) -> np.ndarray:
    """Band solve of w'' = q w, the plate on the first, last or middle node ('lo', 'hi', 'mid').

    source None: w = 1 at the plate; else G'' - q G = -delta at node
    source, G = 0 at the plate.  The plate row decouples the two sides;
    each open end gets the WKB closure through a centered ghost node.
    Numerov's rows miss the exact solution by h^3 jump w/12 where q' jumps
    by jump, which row kink's diagonal takes back; the spread source dents
    its node by exactly -h/12, corrected after the solve.  Row i is scaled
    by its weight c_i = 1 - h^2 q_i/12 (a closure row by c_0 c_1/2) and
    negated, and the plate's known value moves to its neighbours' right-hand
    sides: the band is then symmetric, and with 0 < c_i <= 1 (h^2 q < 12,
    _grid_values) diagonally dominant with a positive diagonal, so positive
    definite, and LAPACK's dptsv solves it without pivoting.  The unknown
    stays g, and info != 0 is a fault.
    """
    n = q.size
    at = {"lo": 0, "hi": n - 1, "mid": (n - 1) // 2}[plate]
    # row i: c_{i-1} g_{i-1} - 2 (1 + (5 h^2/12) q_i) g_i + c_{i+1} g_{i+1}, c = 1 - (h^2/12) q,
    # times -c_i: diagonal c_i (2 + 2 (5 h^2/12) q_i) (doubling is exact), off-diagonal -c_i c_{i+1}
    c = q * -(h * h / 12.0)
    c += 1.0
    d = q * (2.0 * (5.0 * h * h / 12.0))
    d += 2.0
    d *= c
    e = c[:-1] * c[1:]
    e *= -1.0
    if kink >= 0:
        d[kink] += c[kink] * (h * h * h * jump / 12.0)
    # closure row -(2 + 2 h sqrt(q) + h^2 q) g_0 + 2 g_1 times -c_0 c_1/2 (the last row alike)
    if at > 0:  # q, e as floats: numpy's scalars would make each product a numpy call
        q_edge = q.item(0)
        d[0] = -e.item(0) * (1.0 + h * math.sqrt(q_edge) + 0.5 * h * h * q_edge)
    if at < n - 1:
        q_edge = q.item(n - 1)
        d[n - 1] = -e.item(n - 2) * (1.0 + h * math.sqrt(q_edge) + 0.5 * h * h * q_edge)
    rhs = np.zeros(n)
    if source is None:  # w = 1 at the plate: its neighbours' rows carry c_i c_plate to the right
        rhs[at] = 1.0
        if at > 0:
            rhs[at - 1] = -e[at - 1]
        if at < n - 1:
            rhs[at + 1] = -e[at]
    else:
        w = h / 12.0
        rhs[source - 1 : source + 2] = (c[source - 1] * w, c[source] * (10.0 * w),
                                        c[source + 1] * w)
    d[at] = 1.0
    e[max(at - 1, 0) : at + 1] = 0.0
    g, info = _dptsv()(d, e, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)[2:]
    if info != 0:
        raise OracleError(f"tridiagonal solve failed: LAPACK dptsv returned info={info}")
    if source is not None:
        g[source] += h / 12.0
    return g


def _common_checks(kappa: float, cfg: PlateConfig) -> float:
    kappa = check_real(kappa, "kappa")
    if cfg.b == 0.0 and kappa == 0.0:
        raise DomainError("flat background with zero momentum has no decaying solution")
    return kappa


def _plate_side(side: str) -> tuple[str, float]:
    """(grid edge at the plate, direction away from it) for 'above' or 'below'."""
    if side == "above":
        return "lo", 1.0
    if side == "below":
        return "hi", -1.0
    raise DomainError(f"side must be 'above' or 'below', got {side!r}")


def _q_plate(kappa: float, cfg: PlateConfig) -> float:
    return _momentum_factor(cfg) * kappa * kappa + cfg.b * cfg.a


def _nodes(kappa: float, cfg: PlateConfig, grid: GridSpec) -> tuple:  # x, q, unchecked
    xs = np.arange(grid.n, dtype=float)  # np.linspace's nodes i h + x_lo, built in place
    xs *= grid.h
    xs += grid.x_lo
    xs[-1] = grid.x_hi
    q = np.abs(xs)
    q *= cfg.b
    q += _momentum_factor(cfg) * kappa * kappa
    return xs, q


def _efolds(width: float, q_near: float, q_far: float) -> float:
    """Integral of sqrt(q) over a stretch of the given width on which q >= 0 is linear.

    (2/3) W (A^2 + A B + B^2)/(A + B), A and B = sqrt(q) at its ends, not
    both 0, taken as (2/3) W A (1 + r + r^2)/(1 + r) with A the larger and
    r = B/A <= 1: the form _span inverts, with no cancellation and no
    overflow.
    """
    big = max(q_near, q_far)
    r = math.sqrt(min(q_near, q_far) / big)
    return 2.0 / 3.0 * width * math.sqrt(big) * (1.0 + r + r * r) / (1.0 + r)


def _closure_efolds(kappa: float, cfg: PlateConfig, x_end: float, q_end: float) -> float:
    """Integral of sqrt(q) from the plate x = a to an open end x_end, q_end = q(x_end).

    Exact (_efolds), split at the kink x = 0 when x_end lies past it.
    """
    q_kink, q_a = _momentum_factor(cfg) * kappa * kappa, _q_plate(kappa, cfg)
    if x_end < 0.0:
        return _efolds(cfg.a, q_a, q_kink) + _efolds(-x_end, q_kink, q_end)
    return _efolds(abs(x_end - cfg.a), q_a, q_end)


def _grid_values(kappa: float, cfg: PlateConfig, grid: GridSpec, plate: str,
                 values: tuple = ()) -> tuple:
    """values, else _nodes, once h^2 q < 12 at both ends and each open end is >= 8 e-folds out.

    plate ('lo', 'hi' or 'mid', as for the band) says which ends are open;
    the e-folds are _closure_efolds from the plate to each.
    """
    xs, q = values = values or _nodes(kappa, cfg, grid)
    # Numerov's weights c = 1 - h^2 q/12 must stay positive for the scaled band to
    # be positive definite; q = b^{2/3} kappa^2 + b |x| peaks at an end of the
    # grid, so two products stand in for a pass over the band
    h, q_lo, q_hi = grid.h, q.item(0), q.item(-1)
    hq_lo, hq_hi = h * h * q_lo, h * h * q_hi
    if not (hq_lo < 12.0 and hq_hi < 12.0):  # NaN fails too
        raise DomainError(f"kappa={kappa!r} breaks the Numerov bound h^2 q < 12: h^2 q reaches "
                          f"{max(hq_lo, hq_hi):.3e} at an end of the grid (h = {h:.3e})")
    for x_end, q_end, end in ((grid.x_lo, q_lo, "lo"), (grid.x_hi, q_hi, "hi")):
        if end == plate:
            continue
        margin = _closure_efolds(kappa, cfg, x_end, q_end)
        if not margin >= 8.0:  # NaN fails too
            raise DomainError(f"kappa={kappa!r}: domain too short: integral of sqrt(q) from "
                              f"the plate to x = {x_end!r} is {margin:.2f}, need >= 8 for the "
                              f"decay closure to be trustworthy")
    return values


def _source_index(xp: float, grid: GridSpec) -> int:
    """The node nearest xp, which must be a finite real inside the grid and off its edges."""
    xp = as_real(xp, "source xp")
    if not grid.x_lo < xp < grid.x_hi:
        raise DomainError(f"source xp must be inside the grid, got {xp!r}")
    j = int(round((xp - grid.x_lo) / grid.h))
    if not 2 <= j <= grid.n - 3:
        raise DomainError(f"source {xp!r} too close to the domain edge")
    return j


_W1 = object()  # _solve's source when there is none: w = 1 at the plate


def _solve(kappa: float, cfg: PlateConfig, side: str, grid: GridSpec, xp: object = _W1,
           values: tuple = ()) -> tuple[float, np.ndarray, np.ndarray]:
    """Every FD band solve: (checked kappa, nodes, solution).

    The grid starts ('above') or ends ('below') at the plate, or, for side
    'both' with no source, has it as its middle node.  Checks kappa, the
    side, the plate node, the source xp and the band, in that order, then
    makes the one _solve_tridiagonal_bvp call; no source solves for w = 1
    at the plate.  A node on the kink x = 0 (to 1e-6 h) gets the kink row.
    """
    kappa = _common_checks(kappa, cfg)
    if side == "both" and xp is _W1:
        plate, verb = "mid", "center"
        at = grid.x_lo + (grid.n - 1) // 2 * grid.h if grid.n % 2 else math.nan
    else:
        plate, _ = _plate_side(side)
        verb, at = ("start", grid.x_lo) if plate == "lo" else ("end", grid.x_hi)
    if not abs(at - cfg.a) <= 1e-12 * max(1.0, abs(cfg.a)):
        raise DomainError(f"grid must {verb} at the plate x = {cfg.a!r}")
    node = None if xp is _W1 else _source_index(xp, grid)
    xs, q = _grid_values(kappa, cfg, grid, plate, values)
    h = grid.h
    j = round(-grid.x_lo / h) if grid.x_lo < 0.0 < grid.x_hi else -1  # the node nearest x = 0
    kink = j if j >= 0 and abs(xs[j]) <= 1e-6 * h else -1
    return kappa, xs, _solve_tridiagonal_bvp(h, q, node, plate, kink, 2.0 * cfg.b)


def solve_bvp_above(kappa: float, cfg: PlateConfig, xp: float,
                    grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) above the plate on a grid starting at it; xp snaps to the nearest node."""
    return _solve(kappa, cfg, "above", grid, xp)[1:]


def solve_bvp_full(kappa: float, cfg: PlateConfig, xp: float,
                   grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) below the plate on a grid ending at it; a node on x = 0 gets the kink row."""
    return _solve(kappa, cfg, "below", grid, xp)[1:]


def _plate_slope(g: Sequence[float], h: float) -> float:
    """d/ds at s = 0 of samples g[k] at s = k h, by the 5-point one-sided O(h^4) rule."""
    return (-25.0 * g[0] + 48.0 * g[1] - 36.0 * g[2] + 16.0 * g[3] - 3.0 * g[4]) / (12.0 * h)


def integrand_from_fd(kappa: float, cfg: PlateConfig, side: str, grid: GridSpec) -> float:
    """Coincident-limit stress integrand at the plate on one side, Airy-free.

    w'(0) of the solution w decaying away from the plate with w(0) = 1 (one
    _solve), by the 5-point one-sided O(h^4) slope on w read plate-first,
    divided by b^{1/3} (by 1 when b = 0).  The grid must meet the plate on
    the given side; fd_setup's puts x = 0, where q' jumps, on a node at
    least 16 cells from the plate.
    """
    _, away = _plate_side(side)
    kappa, _, w = _solve(kappa, cfg, side, grid)
    return _plate_slope((w[:5] if away > 0.0 else w[:-6:-1]).tolist(), grid.h) / _bcube(cfg)


def _span(q0: float, slope: float, efolds: float) -> float:
    """Distance t over which sqrt(q0 + slope s), s in [0, t], integrates to efolds.

    t = 1.5 efolds (A + B)/(A^2 + A B + B^2), B = sqrt(q0), A = sqrt(q0 + slope t),
    from A^3 - B^3 = 1.5 slope efolds: no slope != 0 needed, no cancellation, and
    no overflow with A, B in units of m = max(B, (1.5 efolds |slope|)^{1/3}).
    """
    root, c = math.sqrt(q0), abs(slope) ** (1.0 / 3.0)
    m = max(root, (1.5 * efolds) ** (1.0 / 3.0) * c)
    u, v = root / m, c / m
    w = max(u**3 + math.copysign(1.5 * efolds * v**3, slope), 0.0) ** (1.0 / 3.0)
    return 1.5 * efolds * (w + u) / (w * w + w * u + u * u) / m


_EFOLDS = 16.0  # e-folds of sqrt(q) every grid reaches from the plate


def _reach(kappa: float, cfg: PlateConfig, side: str, efolds: float) -> float:
    """Distance from the plate over which sqrt(q) integrates to efolds on a side (_span).

    A reach below ulp(a), where a grid would collapse onto the plate, is a
    DomainError naming kappa, and so is a NaN one, where q(a) overflows.
    """
    q_plate = _q_plate(kappa, cfg)
    if side == "above":
        reach = _span(q_plate, cfg.b, efolds)
    else:
        # (0, a) holds f_a e-folds, x = 0 where q = ks2
        ks2 = _momentum_factor(cfg) * kappa * kappa
        f_a = _efolds(cfg.a, q_plate, ks2)
        reach = (cfg.a + _span(ks2, cfg.b, efolds - f_a) if f_a < efolds
                 else _span(q_plate, -cfg.b, efolds))
    if not reach >= math.ulp(cfg.a):  # NaN fails too
        raise DomainError(f"eta={cfg.eta!r}, kappa={kappa!r}: the finite-difference grid "
                          f"would span {reach:.3e}, below one ulp of a = {cfg.a!r}")
    return reach


def _grid(kappa: float, cfg: PlateConfig, x_lo: float, x_hi: float, n: int) -> GridSpec:
    """GridSpec(x_lo, x_hi, n) for a sample at kappa; a refusal (n over the cap) names eta too."""
    try:
        return GridSpec(x_lo, x_hi, n)
    except DomainError as exc:
        raise DomainError(f"eta={cfg.eta!r}, kappa={kappa!r}: {exc}") from None


_DENSITY = 640.0  # least cells per decay length 1/sqrt(q(a)) on a one-side grid


def fd_setup(kappa: float, cfg: PlateConfig, side: str) -> GridSpec:
    """Grid for integrand_from_fd, from the plate to _EFOLDS e-folds, >= 1000 nodes.

    Spacing h = a/m, m >= 16 the least whole number with h <=
    1/(_DENSITY sqrt(q(a))): a grid that reaches x = 0 has it on a node,
    which gets the kink row, and the slope's 5 nodes stay clear of it.
    _reach refuses a kappa whose grid would collapse onto the plate.
    """
    kappa = _common_checks(kappa, cfg)
    plate, _ = _plate_side(side)
    reach = _reach(kappa, cfg, side, _EFOLDS)
    h = cfg.a / max(16, math.ceil(_DENSITY * cfg.a * math.sqrt(_q_plate(kappa, cfg))))
    n = max(math.ceil(reach / h) + 1, 1000)
    lo, hi = (cfg.a, cfg.a + (n - 1) * h) if plate == "lo" else (cfg.a - (n - 1) * h, cfg.a)
    return _grid(kappa, cfg, lo, hi, n)


_add = np.add.reduce  # ndarray.sum's reduction, bit for bit, without its Python wrapper
_NET_CELLS = 800  # least cells a side on the coarse grid
_NET_DENSITY = 50.0  # least coarse cells per decay length 1/sqrt(q(a))


def _net_grid(kappa: float, cfg: PlateConfig, m: int, p: int) -> GridSpec:  # p cells of a/m a side
    return _grid(kappa, cfg, cfg.a - p * (cfg.a / m), cfg.a + p * (cfg.a / m), 2 * p + 1)


def _net_values(kappa: float, cfg: PlateConfig, grid: GridSpec) -> tuple:
    """_nodes on a _net_grid, then the weights min(a, s) at the distances s = k h, k <= p."""
    s = np.arange(grid.n // 2 + 1, dtype=float)
    s *= grid.h
    return (*_nodes(kappa, cfg, grid), np.minimum(s, cfg.a, out=s))


def _net_simpson(kappa: float, cfg: PlateConfig, grid: GridSpec, values: tuple = ()) -> float:
    """net by Simpson's rule on a _net_grid (m, p even) and its _net_values, if given."""
    p = grid.n // 2
    values = values or _net_values(kappa, cfg, grid)
    w = _solve(kappa, cfg, "both", grid, values=values[:2])[2]
    f = values[2] * w[p:]  # 2 b min(a, s) w_a w_b / (2 b)
    f *= w[p::-1]
    simpson = f.item(0) + f.item(p) + 4.0 * float(_add(f[1::2])) + 2.0 * float(_add(f[2:p:2]))
    return 2.0 * cfg.b / _bcube(cfg) * grid.h / 3.0 * simpson


def _net_fd(kappa: float, cfg: PlateConfig) -> tuple[float, float]:
    """(net, err_est) at one momentum from the variable-phase form, one positive integral,

        net b^{1/3} = integral_0^inf 2 b min(a, s) w_a(s) w_b(s) ds,

    s the distance from the plate, w_a and w_b (one _solve) decaying away
    from it above and below with w(0) = 1.  Spacing a/m, m even, puts the
    kink s = a on a Simpson panel edge; the weight is formed from s, never
    as q_a - q_b.  One Richardson step over m and 2m removes the h^4 term;
    err_est is its size.  The coarse grid takes the fine grid's _net_values'
    even entries, bit for bit its own, and runs every check of _solve.
    """
    kappa = _common_checks(kappa, cfg)
    reach = max(_reach(kappa, cfg, "above", _EFOLDS), _reach(kappa, cfg, "below", _EFOLDS))
    cells = max(_NET_CELLS / reach, _NET_DENSITY * math.sqrt(_q_plate(kappa, cfg)))
    m = 2 * math.ceil(cfg.a * cells / 2.0)
    p = 2 * math.ceil(reach * m / (2.0 * cfg.a))
    coarse, fine = _net_grid(kappa, cfg, m, p), _net_grid(kappa, cfg, 2 * m, 2 * p)
    values = _net_values(kappa, cfg, fine)
    xs, q, weights = values
    s_m = _net_simpson(kappa, cfg, coarse, (xs[::2], q[::2], weights[::2]))
    s_2m = _net_simpson(kappa, cfg, fine, values)
    step = (s_2m - s_m) / 15.0
    return s_2m + step, abs(step)


# half of the FD force's 1e-8 f error budget: the rule stops once its level
# difference is below it, and the samples' part (2.7e-9 f on eta = 1e-8 ... 1e6)
# takes the other half.  A tighter stop buys nothing: at 1e-9, eta = 0.03 ... 1
# go on to 64 samples, though I_32 is within 2.3e-13 of I_256 there
_FD_REL_TOL = 5e-9


def _force_fd(eta: float) -> tuple[float, float]:
    """(f(eta), err_est): eta^{2/3}/(2 pi) times the integral of _net_fd over kappa >= 0.

    integrate_finite (nested Clenshaw-Curtis, not force_exact's rule) runs
    over kappa = k0 t/(1 - t), t in [0, 1], with no cutoff; k0 =
    max(eta^{1/6}, eta^{-1/3}) is where net turns over.  The node t = 1,
    kappa = inf, is never sampled: as net -> 1/(2 kappa^2), the integrand
    k0 net/(1 - t)^2 tends to 1/(2 k0) there.  err_est is one budget of
    1e-8 f in two halves: the rule's level difference, at most _FD_REL_TOL
    f once it stops, plus f times the largest relative sample err_est, a
    bound on the samples' part as every weight and sample is positive,
    which stays under _FD_REL_TOL f (2.7e-9 f measured).  A miss of
    _FD_REL_TOL raises ToleranceError naming eta.
    """
    eta = check_real(eta, "eta", strict=True)
    cfg = PlateConfig.from_eta(eta)
    k0 = max(eta ** (1.0 / 6.0), eta ** (-1.0 / 3.0))
    worst = 0.0

    def integrand(t: np.ndarray) -> list[float]:
        nonlocal worst
        values = []
        for tj in t.tolist():
            u = 1.0 - tj
            if u == 0.0:  # kappa = inf
                values.append(0.5 / k0)
                continue
            net, err = _net_fd(k0 * tj / u, cfg)
            worst = max(worst, err / net)
            values.append(k0 * net / (u * u))
        return values

    r = integrate_finite(integrand, 0.0, 1.0, _FD_REL_TOL)
    scale = eta ** (2.0 / 3.0) / (2.0 * math.pi)
    if not r.converged:  # err_est in units of f, as force_exact reports it
        raise ToleranceError(f"FD momentum integral did not converge on kappa in [0, inf); "
                             f"eta={eta!r}, rel_tol={_FD_REL_TOL!r}, "
                             f"err_est={scale * r.err_est:.3e}")
    return scale * r.value, scale * r.err_est + worst * scale * abs(r.value)


def force_from_fd(eta: float) -> float:
    """f(eta) end to end by the finite-difference route (_force_fd), Airy-free throughout."""
    return _force_fd(eta)[0]
