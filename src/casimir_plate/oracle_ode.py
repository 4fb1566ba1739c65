"""Brute-force finite-difference verification layer, with no Airy function in any path.

The mode equation w'' = q(x) w, q(x) = b^{2/3} kappa^2 + b |x|, is discretized with Numerov
weighting on a uniform grid in physical x, the plate on a node and a WKB decay closure at each
open end; each row scaled by its Numerov weight makes the band symmetric positive definite
(_band).  The solution w decaying away from the plate with w = 1 on it needs only LAPACK's
factorization: stored from each open end to the plate, w is a running product of the factor's
ratios (_w1_ratios).  w's slope at the plate is one side's stress integrand (integrand_from_fd);
the net integrand is one positive integral over both sides (_net_fd), which force_from_fd
integrates over all momenta by the nested Clenshaw-Curtis rule integrate_finite.  With a unit
source and G = 0 at the plate, dptsv solves the band for the Green's function
(solve_bvp_above/_full).  Every grid's checks run in one place (_check_grid).  Nothing but
errors (PlateConfig and the argument checks) and the finite rule of quadrature is shared with
the closed forms; docs/numerics.md section 6 derives it all.  When cfg.b == 0 (the eta = 0
cross-checks) kappa is the physical momentum K.
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
# at eta = 1e-14 (kappa = 0; it grows as eta^{-1/3}); a net sample peaks at 4.5
# float arrays of its fine grid's n entries (tracemalloc: q, the weights, then
# the band's c, diagonal and off-diagonal), 32 MB each at the cap
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


def _bcube(cfg: PlateConfig) -> float:  # integrands divide by b^{1/3}, by 1 when b = 0
    return cfg.b ** (1.0 / 3.0) if cfg.b > 0.0 else 1.0


@functools.cache
def _lapack(name: str):  # a LAPACK routine, bound on first use: scipy stays off the import path
    from scipy.linalg import lapack

    return getattr(lapack, name)


def _band(h: float, q: np.ndarray, kink: int, jump: float, ends: set) -> tuple:
    """(c, d, e): Numerov's rows c_{i-1} g_{i-1} - 2 (1 + (5 h^2/12) q_i) g_i + c_{i+1} g_{i+1}.

    c = 1 - (h^2/12) q; row i times -c_i is symmetric, off-diagonal -c_i c_{i+1}, stored as e_i =
    c_i c_{i+1} (diag((-1)^i) A diag((-1)^i), A's pivots).  Row kink takes back Numerov's miss h^3
    jump w/12 where q' jumps by jump; each open end i in ends has the WKB closure -(2 + 2 h sqrt(q)
    + h^2 q) g_i + 2 g_j (j = i + 1, or i - 1 last) times -c_i c_j/2.  With 0 < c <= 1 (h^2 q < 12,
    _check_grid) the band is diagonally dominant, so positive definite: LAPACK needs no pivoting.
    """
    c = q * -(h * h / 12.0)
    c += 1.0
    d = q * (2.0 * (5.0 * h * h / 12.0))  # doubling is exact
    d += 2.0
    d *= c
    e = c[:-1] * c[1:]
    if kink >= 0:
        d[kink] += c[kink] * (h * h * h * jump / 12.0)
    for i in ends:  # q, e as floats: numpy's scalars would make each product a numpy call
        q_edge = q.item(i)
        d[i] = e.item(min(i, q.size - 2)) * (1.0 + h * math.sqrt(q_edge) + 0.5 * h * h * q_edge)
    return c, d, e


def _w1_ratios(h: float, q: np.ndarray, at: int, kink: int = -1, jump: float = 0.0) -> np.ndarray:
    """Ratios l of the solution w that decays away from the plate with w = 1 on it.

    q as _nodes(..., at) stores it: each side from its far end, the plate last.  The plate row
    dropped and a zero link between the sides, one LAPACK dpttrf call factors both (_band) as
    L D L^T, l_i = e_i/d'_i, and leaves the right-hand side, zero but for the plate link r =
    c_i c_plate next to the plate, alone until that row: w = r/d' there and w_i = l_i w_{i+1}
    outward.  l[at - 1::-1] are the below side's ratios from the plate out, l[at:][::-1] the
    above side's; info != 0 is a fault.
    """
    n = q.size
    c, d, e = _band(h, q, kink, jump, {0, at} - {n - 1})
    rows = {at - 1, n - 2} if at else {n - 2}  # each side's row next to the plate
    links = [(i, c.item(i) * c.item(n - 1)) for i in rows]
    e[at - 1] = 0.0  # the zero link between the sides (at = 0, n - 1: past the band)
    d, _, info = _lapack("dpttrf")(d[:-1], e[:-1], overwrite_d=1, overwrite_e=1)  # e in place
    if info != 0:
        raise OracleError(f"tridiagonal factorization failed: LAPACK dpttrf returned info={info}")
    for i, r in links:
        e[i] = r / d.item(i)
    return e


def _solve_tridiagonal_bvp(h: float, q: np.ndarray, at: int, kink: int, jump: float,
                           source: int) -> np.ndarray:
    """G'' - q G = -delta at node source, G = 0 at the plate node at, by LAPACK's dptsv.

    _band's rows negated back off the diagonal, the plate row pinning its node; the load (h/12)
    c_i (1, 10, 1) dents the source node by exactly -h/12, put back after the solve.
    """
    n = q.size
    c, d, e = _band(h, q, kink, jump, {0, n - 1} - {at})
    e *= -1.0
    d[at] = 1.0
    e[max(at - 1, 0) : at + 1] = 0.0
    w = h / 12.0
    c_lo, c_mid, c_hi = c[source - 1 : source + 2].tolist()
    rhs = np.zeros(n)
    rhs[source - 1 : source + 2] = c_lo * w, c_mid * (10.0 * w), c_hi * w
    g, info = _lapack("dptsv")(d, e, rhs, overwrite_d=1, overwrite_e=1, overwrite_b=1)[2:]
    if info != 0:
        raise OracleError(f"tridiagonal solve failed: LAPACK dptsv returned info={info}")
    g[source] += h / 12.0
    return g


def _common_checks(kappa: float, cfg: PlateConfig) -> tuple[float, float]:
    """(checked kappa, q0 = b^{2/3} kappa^2 = q(0)); b = 0: kappa is the physical momentum."""
    kappa = check_real(kappa, "kappa")
    if cfg.b == 0.0 and kappa == 0.0:
        raise DomainError("flat background with zero momentum has no decaying solution")
    return kappa, (cfg.b ** (2.0 / 3.0) if cfg.b > 0.0 else 1.0) * kappa * kappa


def _above(side: str) -> bool:
    """Whether side is 'above', the plate at the grid's start; 'below' puts it at the end."""
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    return side == "above"


def _nodes(q0: float, cfg: PlateConfig, grid: GridSpec, at: int = -1) -> tuple:
    """(x, q), unchecked, on nodes 0 ... at - 1, then n - 1 down to at (at = -1: in order)."""
    xs = np.arange(grid.n, dtype=float)  # np.linspace's nodes i h + x_lo, built in place
    xs[at:] = xs[at:][::-1]
    xs *= grid.h
    xs += grid.x_lo
    xs[at] = grid.x_hi
    q = np.abs(xs)
    q *= cfg.b
    q += q0
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


def _closure_efolds(q0: float, cfg: PlateConfig, x_end: float, q_end: float) -> float:
    """Integral of sqrt(q) from the plate x = a to an open end x_end, q_end = q(x_end).

    Exact (_efolds), split at the kink x = 0, where q = q0, when x_end lies past it.
    """
    q_a = q0 + cfg.b * cfg.a
    if x_end < 0.0:
        return _efolds(cfg.a, q_a, q0) + _efolds(-x_end, q0, q_end)
    return _efolds(abs(x_end - cfg.a), q_a, q_end)


def _source_index(xp: float, grid: GridSpec) -> int:
    """The node nearest xp, which must be a finite real inside the grid and off its edges."""
    xp = as_real(xp, "source xp")
    if not grid.x_lo < xp < grid.x_hi:
        raise DomainError(f"source xp must be inside the grid, got {xp!r}")
    j = int(round((xp - grid.x_lo) / grid.h))
    if not 2 <= j <= grid.n - 3:
        raise DomainError(f"source {xp!r} too close to the domain edge")
    return j


_W1 = object()  # no source: w = 1 at the plate


def _check_grid(kappa: float, q0: float, cfg: PlateConfig, grid: GridSpec, at: int, h: float,
                xp: object = _W1) -> Optional[int]:
    """Every check of a band's grid, in order; the source node, None without a source.

    The plate on node at, the first, last or middle one (an even n has
    none), the source xp, if any, inside (_source_index), h^2 q < 12 at
    both ends at the spacing h, and >= 8 e-folds (_closure_efolds) to each
    open end, with q at the ends as _nodes forms it.  _net_fd passes 2
    grid.h: the coarse grid's checks hold for both, which share their ends.
    """
    if at == 0 or at == grid.n - 1:
        verb, x_at = ("start", grid.x_lo) if at == 0 else ("end", grid.x_hi)
    else:
        verb, x_at = "center", grid.x_lo + at * grid.h if 2 * at == grid.n - 1 else math.nan
    if not abs(x_at - cfg.a) <= 1e-12 * max(1.0, abs(cfg.a)):
        raise DomainError(f"grid must {verb} at the plate x = {cfg.a!r}")
    node = None if xp is _W1 else _source_index(xp, grid)
    # Numerov's weights c = 1 - h^2 q/12 must stay positive for the scaled band to
    # be positive definite; q = b^{2/3} kappa^2 + b |x| peaks at an end of the
    # grid, so two products stand in for a pass over the band
    q_lo, q_hi = abs(grid.x_lo) * cfg.b + q0, abs(grid.x_hi) * cfg.b + q0
    hq_lo, hq_hi = h * h * q_lo, h * h * q_hi
    if not (hq_lo < 12.0 and hq_hi < 12.0):  # NaN fails too
        raise DomainError(f"kappa={kappa!r} breaks the Numerov bound h^2 q < 12: h^2 q reaches "
                          f"{max(hq_lo, hq_hi):.3e} at an end of the grid (h = {h:.3e})")
    for x_end, q_end, end in ((grid.x_lo, q_lo, 0), (grid.x_hi, q_hi, grid.n - 1)):
        if end == at:
            continue
        margin = _closure_efolds(q0, cfg, x_end, q_end)
        if not margin >= 8.0:  # NaN fails too
            raise DomainError(f"kappa={kappa!r}: domain too short: integral of sqrt(q) from "
                              f"the plate to x = {x_end!r} is {margin:.2f}, need >= 8 for the "
                              f"decay closure to be trustworthy")
    return node


def _kink(grid: GridSpec, h: float) -> int:
    """The node on x = 0 (to 1e-6 h) at spacing h over the grid's bounds, else -1."""
    j = round(-grid.x_lo / h) if grid.x_lo < 0.0 < grid.x_hi else -1  # the node nearest x = 0
    return j if j >= 0 and abs(j * h + grid.x_lo) <= 1e-6 * h else -1


def _solve(kappa: float, cfg: PlateConfig, side: str, grid: GridSpec,
           xp: object = _W1) -> tuple[np.ndarray, np.ndarray]:
    """Every one-sided FD band solve, the plate at the grid's start or end: (nodes, solution).

    Checks kappa, the side ('above': start, 'below': end) and the grid
    (_check_grid), with the kink row on x = 0.  With a source, G on the
    nodes in order (_solve_tridiagonal_bvp); without one, w's ratios
    (_w1_ratios) on the nodes from the open end to the plate.
    """
    kappa, q0 = _common_checks(kappa, cfg)
    at = 0 if _above(side) else grid.n - 1
    node = _check_grid(kappa, q0, cfg, grid, at, grid.h, xp)
    xs, q = _nodes(q0, cfg, grid, at if node is None else -1)
    args = (grid.h, q, at, _kink(grid, grid.h), 2.0 * cfg.b)
    return xs, _w1_ratios(*args) if node is None else _solve_tridiagonal_bvp(*args, node)


def solve_bvp_above(kappa: float, cfg: PlateConfig, xp: float,
                    grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) above the plate on a grid starting at it; xp snaps to the nearest node."""
    return _solve(kappa, cfg, "above", grid, xp)


def solve_bvp_full(kappa: float, cfg: PlateConfig, xp: float,
                   grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) below the plate on a grid ending at it; a node on x = 0 gets the kink row."""
    return _solve(kappa, cfg, "below", grid, xp)


def _plate_slope(g: Sequence[float], h: float) -> float:
    """d/ds at s = 0 of samples g[k] at s = k h, by the 5-point one-sided O(h^4) rule."""
    return (-25.0 * g[0] + 48.0 * g[1] - 36.0 * g[2] + 16.0 * g[3] - 3.0 * g[4]) / (12.0 * h)


def integrand_from_fd(kappa: float, cfg: PlateConfig, side: str, grid: GridSpec) -> float:
    """Coincident-limit stress integrand at the plate on one side, Airy-free.

    w'(0) of the solution w decaying away from the plate with w(0) = 1 (one
    _solve; w at the 4 nodes next to the plate, the running product of its
    ratios), by the 5-point one-sided O(h^4) slope, divided by b^{1/3} (by
    1 when b = 0).  The grid must meet the plate on the given side;
    fd_setup's puts x = 0, where q' jumps, on a node at least 16 cells
    from the plate.
    """
    w = np.multiply.accumulate(_solve(kappa, cfg, side, grid)[1][:-5:-1]).tolist()
    return _plate_slope([1.0, *w], grid.h) / _bcube(cfg)


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


def _reach(kappa: float, q0: float, cfg: PlateConfig, side: str) -> float:
    """Distance from the plate over which sqrt(q) integrates to _EFOLDS on a side (_span).

    q0 is _common_checks' q(0).  A reach below ulp(a), where a grid would
    collapse onto the plate, is a DomainError naming kappa, and so is a NaN
    one, where q(a) overflows.
    """
    q_plate = q0 + cfg.b * cfg.a
    if side == "above":
        reach = _span(q_plate, cfg.b, _EFOLDS)
    else:
        f_a = _efolds(cfg.a, q_plate, q0)  # (0, a) holds f_a e-folds, x = 0 where q = q0
        reach = (cfg.a + _span(q0, cfg.b, _EFOLDS - f_a) if f_a < _EFOLDS
                 else _span(q_plate, -cfg.b, _EFOLDS))
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
    kappa, q0 = _common_checks(kappa, cfg)
    above = _above(side)
    reach = _reach(kappa, q0, cfg, side)
    h = cfg.a / max(16, math.ceil(_DENSITY * cfg.a * math.sqrt(q0 + cfg.b * cfg.a)))
    n = max(math.ceil(reach / h) + 1, 1000)
    lo, hi = (cfg.a, cfg.a + (n - 1) * h) if above else (cfg.a - (n - 1) * h, cfg.a)
    return _grid(kappa, cfg, lo, hi, n)


_add = np.add.reduce  # ndarray.sum's reduction, bit for bit, without its Python wrapper
_NET_CELLS = 800  # least cells a side on the coarse grid
_NET_DENSITY = 50.0  # least coarse cells per decay length 1/sqrt(q(a))


def _net_values(q0: float, cfg: PlateConfig, grid: GridSpec) -> tuple:
    """(q as _w1_ratios takes it, the plate on the middle node p; min(a, k h), k = 1 ... p)."""
    p = grid.n // 2
    s = np.arange(1, p + 1, dtype=float)
    s *= grid.h
    return _nodes(q0, cfg, grid, p)[1], np.minimum(s, cfg.a, out=s)


def _net_simpson(cfg: PlateConfig, scale: float, grid: GridSpec, values: tuple,
                 step: int = 1) -> float:
    """net by Simpson's rule on every step-th node of a checked grid and its _net_values.

    One factorization, w = 1 on the middle node (_w1_ratios), then scale =
    2 b/b^{1/3} times Simpson's sum of min(a, s) w_a w_b at the spacing
    step h, w_a w_b the running product of the two sides' paired ratios.
    """
    q, weights = values[0][::step], values[1][step - 1 :: step]
    h = step * grid.h
    p = q.size // 2
    ratios = _w1_ratios(h, q, p, _kink(grid, h), 2.0 * cfg.b)
    f = np.multiply.accumulate(ratios[p - 1 :: -1] * ratios[: p - 1 : -1])  # w_a w_b, s = h ... p h
    f *= weights  # 2 b min(a, s) w_a w_b / (2 b), 0 at s = 0
    simpson = f.item(-1) + 4.0 * float(_add(f[::2])) + 2.0 * float(_add(f[1:-1:2]))
    return scale * h / 3.0 * simpson


def _net_fd(kappa: float, cfg: PlateConfig) -> tuple[float, float]:
    """(net, err_est) at one momentum from the variable-phase form, one positive integral,

        net b^{1/3} = integral_0^inf 2 b min(a, s) w_a(s) w_b(s) ds,

    s the distance from the plate, w_a and w_b (one factorization) decaying away from it
    above and below with w(0) = 1.  Spacing a/m, m even, puts the kink s = a on a Simpson
    panel edge; the weight is formed from s, never as q_a - q_b.  One Richardson step over
    m and 2m removes the h^4 term; err_est is its size.  Both grids share one kappa check,
    one GridSpec (the fine grid's; the coarse n is named when over the cap too), one
    _check_grid at the coarse spacing and one _net_values, the coarse grid's bit for bit
    in its even entries.
    """
    kappa, q0 = _common_checks(kappa, cfg)
    reach = max(_reach(kappa, q0, cfg, "above"), _reach(kappa, q0, cfg, "below"))
    cells = max(_NET_CELLS / reach, _NET_DENSITY * math.sqrt(q0 + cfg.b * cfg.a))
    m = 2 * math.ceil(cfg.a * cells / 2.0)
    p = 2 * math.ceil(reach * m / (2.0 * cfg.a))
    n = 2 * p + 1  # the coarse grid's p cells of a/m a side
    grid = _grid(kappa, cfg, cfg.a - p * (cfg.a / m), cfg.a + p * (cfg.a / m),
                 2 * n - 1 if n <= _MAX_NODES else n)
    _check_grid(kappa, q0, cfg, grid, grid.n // 2, 2.0 * grid.h)
    values = _net_values(q0, cfg, grid)
    scale = 2.0 * cfg.b / _bcube(cfg)
    s_m, s_2m = _net_simpson(cfg, scale, grid, values, 2), _net_simpson(cfg, scale, grid, values)
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
