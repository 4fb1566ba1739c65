"""Brute-force finite-difference verification layer.

Everything here re-derives the physics with no Airy function anywhere in
the code path: the Euclidean mode equation

    G'' - q(x) G = -delta(x - x'),   q(x) = b^{2/3} kappa^2 + b |x|

is discretized on a uniform grid in physical x, solved as a banded linear
system with a Dirichlet zero at the plate and a WKB decay closure
G' = -sqrt(q) G at the truncated open end, and differentiated numerically
to reproduce the stress integrands.  Agreement with the closed forms is
the package's primary correctness evidence, so this module deliberately
shares nothing with them except the quadrature: force_from_fd(eta) runs
integrate_finite at a fixed cutoff and tolerance (_KAPPA_MAX, _FD_SPEC).

The operator is discretized with Numerov weighting, and the delta source
enters as a density of unit integral spread with weights (1, 10, 1)/12
over the node nearest x' and its neighbors.  Every solve takes one
checked path (_solve) to one LAPACK call, and both sides of the plate go
through one plate-first extraction (_plate_integrand), which
verify.integrand_from_greens also uses on closed-form samples.  Grids
have one spacing, grid.h, and one padding rule, _span; docs/numerics.md
section 6 derives the discretization, the extraction and the grid.

Flat-background convention: when cfg.b == 0 (used only by the eta = 0
cross-checks) kappa is read as the physical momentum K and the integrand
normalization divides by 1 instead of b^{1/3}.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, OracleError, ResolutionError, ToleranceError, as_real, check_real
from .greens import PlateConfig
from .quadrature import QuadratureSpec, integrate_finite

__all__ = [
    "GridSpec",
    "solve_bvp_above",
    "solve_bvp_full",
    "integrand_from_fd",
    "fd_setup",
    "force_from_fd",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid for the band solver; spacing h = (x_hi - x_lo)/(n - 1)."""

    x_lo: float
    x_hi: float
    n: int = 4001

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

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)


def _momentum_factor(cfg: PlateConfig) -> float:
    # b = 0 reads kappa as the physical momentum (flat-background checks)
    return cfg.b ** (2.0 / 3.0) if cfg.b > 0.0 else 1.0


def _solve_tridiagonal_bvp(
    h: float, q: np.ndarray, sources: Sequence[int], plate: str
) -> np.ndarray:
    """Band solves of G'' - q G = -delta with plate at one edge, decay at the other.

    Returns one column per source node index, all from one LAPACK
    ``dgtsv`` call on one factorization; each column carries the same bits
    as a solve for its source alone.  Callers have checked that the band
    is finite (_grid_values), so an ``info`` other than 0 is an internal
    fault.

    q is sampled on nodes h apart.  plate='lo': Dirichlet at the first node,
    WKB closure at the last; plate='hi': the mirror image.  The closure
    eliminates a ghost node through the centered first derivative, so it is
    second-order like the boundary region it sits in; the closure error
    itself is suppressed by e^{-2 integral sqrt(q)} across the pad, which
    fd_setup keeps at e^{-28}.

    The spread source dents the Numerov solution at the source node by
    exactly -h/12 (the discrete Laplace kernel is piecewise linear in
    |j - m|, and the (1, 10, 1)/12 weights average |j - m| to 1/6 at the
    kink while leaving every other node exact), so that node is corrected
    after the solve; the residual there is O(h^3 q).
    """
    from scipy.linalg.lapack import dgtsv  # oracle only; kept off the import path

    n = q.size
    # row i: c_{i-1} g_{i-1} + d_i g_i + c_{i+1} g_{i+1} with c = 1 - (h^2/12) q
    # and d = -2 (1 + (5 h^2/12) q), each built in place
    c = q * -(h * h / 12.0)
    c += 1.0
    dl, du = c[:-1], c[1:].copy()  # apart: dgtsv overwrites both
    d = q * (5.0 * h * h / 12.0)
    d += 1.0
    d *= -2.0
    if plate == "lo":  # Dirichlet row first, closure row last
        d[0], du[0] = 1.0, 0.0
        dl[n - 2], end = 2.0, n - 1
    else:
        d[n - 1], dl[n - 2] = 1.0, 0.0
        du[0], end = 2.0, 0
    d[end] = -(2.0 + 2.0 * h * math.sqrt(q[end]) + h * h * q[end])
    w = -h / 12.0
    rhs = np.zeros((n, len(sources)), order="F")
    for col, j in enumerate(sources):
        rhs[j - 1 : j + 2, col] = (w, 10.0 * w, w)
    g, info = dgtsv(dl, d, du, rhs, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                    overwrite_b=1)[3:]
    if info != 0:
        raise OracleError(f"tridiagonal solve failed: LAPACK dgtsv returned info={info}")
    for col, j in enumerate(sources):
        g[j, col] += h / 12.0
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


# bound on the largest products the FD grid forms: with h^2 q below it at the
# grid's ends, d = -2 (1 + (5 h^2/12) q) and the closure -(2 + 2 h sqrt(q) + h^2 q)
# stay finite
_BAND_MAX = sys.float_info.max / 16.0


def _grid_values(kappa: float, cfg: PlateConfig, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and q on the grid, once the open end is padded by >= 8 decay lengths."""
    xs = np.linspace(grid.x_lo, grid.x_hi, grid.n)
    q = _momentum_factor(cfg) * kappa * kappa + cfg.b * np.abs(xs)
    # q = b^{2/3} kappa^2 + b |x|, and with it every band entry, peaks at an
    # end of the grid, so two products stand in for a pass over the band
    h, q_lo, q_hi = grid.h, float(q[0]), float(q[-1])
    if not (h * h * q_lo < _BAND_MAX and h * h * q_hi < _BAND_MAX):  # NaN fails too
        raise DomainError(
            f"kappa={kappa!r} overflows the finite-difference band: q reaches "
            f"{max(q_lo, q_hi):.3e} at an end of the grid (h = {h:.3e})"
        )
    sq = np.sqrt(q)  # the decay margin: e-folds of the closure, by the trapezoid rule
    margin = float((0.5 * (sq[0] + sq[-1]) + sq[1:-1].sum()) * h)
    if margin < 8.0:
        raise DomainError(
            f"kappa={kappa!r}: domain too short: integral of sqrt(q) is {margin:.2f}, need >= 8 "
            "for the decay closure to be trustworthy"
        )
    return xs, q


def _source_index(xp: float, grid: GridSpec) -> int:
    """The node nearest xp, which must be a finite real inside the grid and off its edges."""
    xp = as_real(xp, "source xp")
    if not grid.x_lo < xp < grid.x_hi:
        raise DomainError(f"source xp must be inside the grid, got {xp!r}")
    j = int(round((xp - grid.x_lo) / grid.h))
    if not 2 <= j <= grid.n - 3:
        raise DomainError(f"source {xp!r} too close to the domain edge")
    return j


def _solve(
    kappa: float, cfg: PlateConfig, side: str, grid: GridSpec, sources: Sequence[float]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Every FD band solve: (checked kappa, nodes, G with one column per source).

    Checks kappa, the side, the grid edge at the plate, each source and the
    band, in that order, then makes the one _solve_tridiagonal_bvp call.
    """
    kappa = _common_checks(kappa, cfg)
    plate, _ = _plate_side(side)
    edge, verb = (grid.x_lo, "start") if plate == "lo" else (grid.x_hi, "end")
    if abs(edge - cfg.a) > 1e-12 * max(1.0, abs(cfg.a)):
        raise DomainError(f"grid must {verb} at the plate x = {cfg.a!r}")
    nodes = [_source_index(xp, grid) for xp in sources]
    xs, q = _grid_values(kappa, cfg, grid)
    return kappa, xs, _solve_tridiagonal_bvp(grid.h, q, nodes, plate)


def solve_bvp_above(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) above the plate: Dirichlet at x = a, decay toward +infinity.

    The grid must start at the plate; the source is snapped to the nearest
    node.
    """
    _, xs, g = _solve(kappa, cfg, "above", grid, [xp])
    return xs, g[:, 0]


def solve_bvp_full(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) below the plate on [-X, a]: Dirichlet at a, decay toward -infinity.

    The grid must end at the plate; otherwise as solve_bvp_above.  The
    potential kink at x = 0 needs no special treatment: the Numerov rows
    just see V = b |x| pointwise.
    """
    _, xs, g = _solve(kappa, cfg, "below", grid, [xp])
    return xs, g[:, 0]


# ---------------------------------------------------------------------------
# Stress integrands by pure finite differences.


def _edge_slope_lo(g: Sequence[float], h: float) -> float:
    # 5-point one-sided first derivative at the left edge, O(h^4)
    return (-25.0 * g[0] + 48.0 * g[1] - 36.0 * g[2] + 16.0 * g[3] - 3.0 * g[4]) / (12.0 * h)


def _plate_integrand(
    g: np.ndarray, h: float, e: Sequence[float], kappa: float, cfg: PlateConfig
) -> float:
    """Stress integrand from G sampled plate-first, with sources e = (eps, 2 eps) away.

    Row k of g is k steps h from the plate toward the sources, one column
    per source.  In the distance s from the plate, the slope of G there is
    the exact ratio r = w(eps)/w(0) of the solution w that decays away from
    the plate, and t = (r - 1)/eps - eps q(a)/2 = w'/w + O(eps^2) (w'' = q w
    fixes the linear term); one Richardson step over (eps, 2 eps) removes
    the quadratic one, and the result is divided by b^{1/3} (by 1 when b = 0).
    """
    q_plate = _q_plate(kappa, cfg)
    # two columns: plain floats are cheaper than numpy's 2-element arithmetic
    t1, t2 = [(_edge_slope_lo(col, h) - 1.0) / d - 0.5 * d * q_plate
              for col, d in zip(g[:5].T.tolist(), e)]
    bcube = cfg.b ** (1.0 / 3.0) if cfg.b > 0.0 else 1.0
    return float((4.0 * t1 - t2) / 3.0 / bcube)


def integrand_from_fd(
    kappa: float, cfg: PlateConfig, side: str, grid: GridSpec, eps: float
) -> float:
    """Coincident-limit stress integrand at the plate, Airy-free route.

    One band solve takes a source column at eps and one at 2 eps from the
    plate (the probes differ only in where the source sits); the columns,
    turned plate-first on the below side, go to _plate_integrand.  eps is
    snapped to a whole number of grid cells; it must be resolved by at
    least 4 of them.  The grid must meet the plate on the given side.
    """
    h = grid.h
    j = int(round(check_real(eps, "eps", strict=True) / h))
    if j < 4:
        raise ResolutionError(
            f"eps = {eps!r} spans fewer than 4 grid cells (h = {h!r}); refine the grid"
        )
    if 2 * j > grid.n - 6:
        raise ResolutionError("grid too short for the 2*eps solve")
    e = (j * h, 2 * j * h)
    _, away = _plate_side(side)
    kappa, _, g = _solve(kappa, cfg, side, grid, [cfg.a + away * d for d in e])
    return _plate_integrand(g if away > 0.0 else g[::-1], h, e, kappa, cfg)


# ---------------------------------------------------------------------------
# Tuned grid construction for the extraction above.


def _span(q0: float, slope: float, efolds: float) -> float:
    """Distance t over which sqrt(q0 + slope s), s in [0, t], integrates to efolds.

    t = 1.5 efolds (A + B)/(A^2 + A B + B^2) from A^3 - B^3 = 1.5 slope efolds,
    B = sqrt(q0), A = sqrt(q0 + slope t): it needs no slope != 0, does not
    cancel, and cannot overflow with A, B in units of m = max(B, (1.5 efolds |slope|)^{1/3}).
    """
    root, c = math.sqrt(q0), abs(slope) ** (1.0 / 3.0)
    m = max(root, (1.5 * efolds) ** (1.0 / 3.0) * c)
    u, v = root / m, c / m
    w = max(u**3 + math.copysign(1.5 * efolds * v**3, slope), 0.0) ** (1.0 / 3.0)
    return 1.5 * efolds * (w + u) / (w * w + w * u + u * u) / m


_NODES_PER_EPS = 16  # grid cells across eps
_EFOLDS = 14.0  # decay lengths of padding at the open end
_MIN_ULPS = 2.0  # least spacing h, in units of ulp(a)


def fd_setup(kappa: float, cfg: PlateConfig, side: str) -> tuple[GridSpec, float]:
    """Grid and eps tuned for integrand_from_fd.

    eps = 0.025/sqrt(q(a)) keeps the cubic extraction residual near 1e-5
    relative; h = eps/_NODES_PER_EPS.  The grid (>= 1000 nodes) ends where
    sqrt(q) has integrated to _EFOLDS, below the plate inside (0, a) if that
    holds them.  h below _MIN_ULPS ulp(a), where a source a +- j h may round
    to another node, is a DomainError naming kappa.
    """
    kappa = _common_checks(kappa, cfg)
    plate, away = _plate_side(side)
    q_plate = _q_plate(kappa, cfg)
    eps = 0.025 / math.sqrt(q_plate)
    h = eps / _NODES_PER_EPS
    if not h >= _MIN_ULPS * math.ulp(cfg.a):
        raise DomainError(f"kappa={kappa!r} is too large for the finite-difference grid: "
                          f"its spacing h = {h:.3e} is below {_MIN_ULPS:g} ulp of a = {cfg.a!r}")
    span = _span(q_plate, away * cfg.b, _EFOLDS)
    if plate == "hi":
        # (0, a) holds f_a = (2/3) (A^3 - B^3)/b e-folds, A = sqrt(q(a)), B = sqrt(q(0))
        ks2 = _momentum_factor(cfg) * kappa * kappa
        r = math.sqrt(ks2 / q_plate)
        f_a = 2.0 / 3.0 * cfg.a * math.sqrt(q_plate) * (1.0 + r + r * r) / (1.0 + r)
        if f_a < _EFOLDS:
            span = cfg.a + _span(ks2, cfg.b, _EFOLDS - f_a)
    n = max(int(math.ceil(span / h)) + 1, 1000)
    lo, hi = (cfg.a, cfg.a + (n - 1) * h) if plate == "lo" else (cfg.a - (n - 1) * h, cfg.a)
    return GridSpec(lo, hi, n), eps


_KAPPA_MAX = 12.0
_FD_SPEC = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12)


def force_from_fd(eta: float) -> float:
    """f(eta) recomputed end to end through the finite-difference route.

    Integrand values come from integrand_from_fd, the integral up to the
    cutoff _KAPPA_MAX from adaptive Gauss-Kronrod (not force_exact's rule),
    and the remainder from the closed-form Lorentzian tail integral
    (re-derived inline so this path imports nothing from the stress
    module).  This is the fully independent cross-check of the production
    force values.  A cutoff integral that misses _FD_SPEC's tolerance
    raises ToleranceError.
    """
    eta = check_real(eta, "eta", strict=True)
    cfg = PlateConfig.from_eta(eta)

    def net(k: float) -> float:
        grid_a, eps_a = fd_setup(k, cfg, "above")
        grid_b, eps_b = fd_setup(k, cfg, "below")
        above = integrand_from_fd(k, cfg, "above", grid_a, eps_a)
        below = integrand_from_fd(k, cfg, "below", grid_b, eps_b)
        return below - above

    r = integrate_finite(lambda ks: [net(k) for k in ks.tolist()], 0.0, _KAPPA_MAX, _FD_SPEC)
    scale = eta ** (2.0 / 3.0)
    if not r.converged:
        # err_est in units of f, as force_exact reports it
        raise ToleranceError(
            f"FD momentum integral did not converge on [0.0, {_KAPPA_MAX!r}]; "
            f"eta={eta!r}, rel_tol={_FD_SPEC.rel_tol!r}, "
            f"err_est={scale * r.err_est / (2.0 * math.pi):.3e}"
        )
    s6 = eta ** (1.0 / 6.0)
    tail = math.atan(s6 / _KAPPA_MAX) / (4.0 * math.pi * s6)
    return scale * (r.value / (2.0 * math.pi) + tail)
