"""Brute-force finite-difference verification layer.

Everything here re-derives the physics with no Airy function anywhere in
the code path: the Euclidean mode equation

    G'' - q(x) G = -delta(x - x'),   q(x) = b^{2/3} kappa^2 + b |x|

is discretized on a uniform grid in physical x, solved as a banded linear
system with a Dirichlet zero at the plate and a WKB decay closure
G' = -sqrt(q) G at the truncated open end, and differentiated numerically
to reproduce the stress integrands.  Agreement with the closed forms is
the package's primary correctness evidence, so this module deliberately
shares nothing with them except the quadrature.

Delta source discretization: the source enters as a density of unit
integral, 1/h at the node nearest x' for the order-2 stencil, spread with
weights (1, 10, 1)/12 over the neighbors for the order-4 (Numerov) one.
docs/numerics.md derives both along with the plate-derivative extraction
used by integrand_from_fd.

Flat-background convention: when cfg.b == 0 (used only by the eta = 0
cross-checks) kappa is read as the physical momentum K and the integrand
normalization divides by 1 instead of b^{1/3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
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
    stencil: int = 2

    def __post_init__(self):
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise DomainError("grid bounds must be finite")
        if not self.x_lo < self.x_hi:
            raise DomainError(f"need x_lo < x_hi, got [{self.x_lo!r}, {self.x_hi!r}]")
        if int(self.n) < 1000:
            raise DomainError(f"grid needs at least 1000 points, got {self.n!r}")
        if self.stencil not in (2, 4):
            raise DomainError(f"stencil order must be 2 or 4, got {self.stencil!r}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)


def _momentum_factor(cfg: PlateConfig) -> float:
    # b = 0 reads kappa as the physical momentum (flat-background checks)
    return cfg.b ** (2.0 / 3.0) if cfg.b > 0.0 else 1.0


def _q_values(xs: np.ndarray, kappa: float, cfg: PlateConfig) -> np.ndarray:
    return _momentum_factor(cfg) * kappa * kappa + cfg.b * np.abs(xs)


def _solve_banded_bvp(
    xs: np.ndarray, q: np.ndarray, j_src: int, plate: str, stencil: int
) -> np.ndarray:
    """Band solve of G'' - q G = -delta with plate at one edge, decay at the other.

    plate='lo': Dirichlet at xs[0], WKB closure at xs[-1];
    plate='hi': the mirror image.  The closure eliminates a ghost node
    through the centered first derivative, so it is second-order like the
    boundary region it sits in; the closure error itself is suppressed by
    e^{-2 integral sqrt(q)} across the pad, which the grid builders keep
    at ~e^{-28}.

    The spread source dents the order-4 solution at the source node by
    exactly -h/12 (the discrete Laplace kernel is piecewise linear in
    |j - m|, and the (1, 10, 1)/12 weights average |j - m| to 1/6 at the
    kink while leaving every other node exact), so that node is corrected
    after the solve; the residual there is O(h^3 q).
    """
    from scipy.linalg import solve_banded  # oracle only; kept off the import path

    n = xs.size
    h = xs[1] - xs[0]
    rhs = np.zeros(n)
    if stencil == 4:
        c = 1.0 - (h * h / 12.0) * q
        d = -2.0 * (1.0 + (5.0 * h * h / 12.0) * q)
        w = -h / 12.0
        rhs[j_src - 1] += w
        rhs[j_src] += 10.0 * w
        rhs[j_src + 1] += w
    else:
        c = np.ones(n)
        d = -(2.0 + h * h * q)
        rhs[j_src] = -h
    ab = np.zeros((3, n))
    ab[0, 1:] = c[1:]
    ab[1, :] = d
    ab[2, :-1] = c[:-1]
    if plate == "lo":
        ab[1, 0] = 1.0
        ab[0, 1] = 0.0
        rhs[0] = 0.0
        s = math.sqrt(q[-1])
        ab[2, n - 2] = 2.0
        ab[1, n - 1] = -(2.0 + 2.0 * h * s + h * h * q[-1])
        rhs[n - 1] = 0.0
    else:
        ab[1, n - 1] = 1.0
        ab[2, n - 2] = 0.0
        rhs[n - 1] = 0.0
        s = math.sqrt(q[0])
        ab[0, 1] = 2.0
        ab[1, 0] = -(2.0 + 2.0 * h * s + h * h * q[0])
        rhs[0] = 0.0
    g = solve_banded((1, 1), ab, rhs)
    if stencil == 4:
        g[j_src] += h / 12.0
    return g


def _decay_margin(xs: np.ndarray, q: np.ndarray) -> float:
    sq = np.sqrt(np.maximum(q, 0.0))
    h = xs[1] - xs[0]
    return float((0.5 * (sq[0] + sq[-1]) + sq[1:-1].sum()) * h)


def _common_checks(kappa: float, cfg: PlateConfig) -> float:
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa!r}")
    if cfg.b == 0.0 and kappa == 0.0:
        raise DomainError("flat background with zero momentum has no decaying solution")
    return kappa


def _refined(grid: GridSpec) -> GridSpec:
    return GridSpec(grid.x_lo, grid.x_hi, 2 * grid.n - 1, grid.stencil)


def _solve_region(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec, plate: str, check: bool
) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(grid.x_lo, grid.x_hi, grid.n)
    q = _q_values(xs, kappa, cfg)
    margin = _decay_margin(xs, q)
    if margin < 8.0:
        raise DomainError(
            f"domain too short: integral of sqrt(q) is {margin:.2f}, need >= 8 "
            "for the decay closure to be trustworthy"
        )
    j = int(round((xp - grid.x_lo) / grid.h))
    if not 2 <= j <= grid.n - 3:
        raise DomainError(f"source {xp!r} too close to the domain edge")
    g = _solve_banded_bvp(xs, q, j, plate, grid.stencil)
    if check:
        fine = _refined(grid)
        xs2 = np.linspace(fine.x_lo, fine.x_hi, fine.n)
        g2 = _solve_banded_bvp(xs2, _q_values(xs2, kappa, cfg), 2 * j, plate, fine.stencil)
        scale = float(np.max(np.abs(g))) or 1.0
        gap = float(np.max(np.abs(g - g2[::2]))) / scale
        if gap > 1e-5:
            raise ResolutionError(
                f"grid refinement changes the solution by {gap:.2e} (> 1e-5); "
                f"increase n beyond {grid.n}"
            )
    return xs, g


def solve_bvp_above(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec, *, check: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) above the plate: Dirichlet at x = a, decay toward +infinity.

    The grid must start at the plate; the source is snapped to the nearest
    node.  check=True re-solves on a doubled grid and raises
    ResolutionError if common nodes disagree beyond 1e-5 of the peak.
    """
    kappa = _common_checks(kappa, cfg)
    if abs(grid.x_lo - cfg.a) > 1e-12 * max(1.0, abs(cfg.a)):
        raise DomainError(f"grid must start at the plate x = {cfg.a!r}")
    if not grid.x_lo < xp < grid.x_hi:
        raise DomainError(f"source must lie inside the grid, got {xp!r}")
    return _solve_region(kappa, cfg, xp, grid, "lo", check)


def solve_bvp_full(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec, *, check: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) below the plate on [-X, a]: Dirichlet at a, decay toward -infinity.

    The potential kink at x = 0 needs no special treatment: the stencil
    just sees V = b |x| pointwise.
    """
    kappa = _common_checks(kappa, cfg)
    if abs(grid.x_hi - cfg.a) > 1e-12 * max(1.0, abs(cfg.a)):
        raise DomainError(f"grid must end at the plate x = {cfg.a!r}")
    if not grid.x_lo < xp < grid.x_hi:
        raise DomainError(f"source must lie inside the grid, got {xp!r}")
    return _solve_region(kappa, cfg, xp, grid, "hi", check)


# ---------------------------------------------------------------------------
# Stress integrands by pure finite differences.


def _edge_slope_lo(g: np.ndarray, h: float) -> float:
    # 5-point one-sided first derivative at the left edge, O(h^4)
    return (-25.0 * g[0] + 48.0 * g[1] - 36.0 * g[2] + 16.0 * g[3] - 3.0 * g[4]) / (12.0 * h)


def _edge_slope_hi(g: np.ndarray, h: float) -> float:
    return (25.0 * g[-1] - 48.0 * g[-2] + 36.0 * g[-3] - 16.0 * g[-4] + 3.0 * g[-5]) / (12.0 * h)


def integrand_from_fd(
    kappa: float, cfg: PlateConfig, side: str, grid: GridSpec, eps: float
) -> float:
    """Coincident-limit stress integrand at the plate, Airy-free route.

    The plate derivative of G with the source eps away is an exact ratio of
    the one-sided homogeneous solution w:

        d_x G(a, a + eps) = + w(a + eps)/w(a)      (above)
        d_x G(a, a - eps) = - u(a - eps)/u(a)      (below)

    so the slope ratio w'(a)/w(a) is recovered from the expansion
    (ratio - 1)/eps = w'/w + eps q(a)/2 + O(eps^2): the linear coefficient
    is known exactly (w'' = q w with w(a) = plate value), gets subtracted
    analytically, and one Richardson step over (eps, 2 eps) removes the
    quadratic term.  The result is divided by b^{1/3} to match the
    dimensionless integrands (divided by 1 when b = 0).

    eps is snapped to a whole number of grid cells; it must be resolved by
    at least 4 of them.
    """
    kappa = _common_checks(kappa, cfg)
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    h = grid.h
    j = int(round(float(eps) / h))
    if j < 4:
        raise ResolutionError(
            f"eps = {eps!r} spans fewer than 4 grid cells (h = {h!r}); refine the grid"
        )
    if 2 * j > grid.n - 6:
        raise ResolutionError("grid too short for the 2*eps solve")
    q_plate = _momentum_factor(cfg) * kappa * kappa + cfg.b * cfg.a
    bcube = cfg.b ** (1.0 / 3.0) if cfg.b > 0.0 else 1.0

    def slope_estimate(mult: int) -> tuple[float, float]:
        dist = mult * j * h
        if side == "above":
            xp = grid.x_lo + mult * j * h
            xs, g = _solve_region(kappa, cfg, xp, grid, "lo", False)
            ratio = _edge_slope_lo(g, h)
            return (ratio - 1.0) / dist - 0.5 * dist * q_plate, dist
        xp = grid.x_hi - mult * j * h
        xs, g = _solve_region(kappa, cfg, xp, grid, "hi", False)
        ratio = -_edge_slope_hi(g, h)  # equals u(a - eps)/u(a)
        return (1.0 - ratio) / dist + 0.5 * dist * q_plate, dist

    s1, _ = slope_estimate(1)
    s2, _ = slope_estimate(2)
    s_ext = (4.0 * s1 - s2) / 3.0
    if side == "above":
        return s_ext / bcube
    return -s_ext / bcube


# ---------------------------------------------------------------------------
# Tuned grid construction for the extraction above.


def _inv_efold(target: float, q0: float, b: float) -> float:
    """Distance L with integral_0^L sqrt(q0 + b t) dt = target (b > 0)."""
    return ((1.5 * b * target + q0 * math.sqrt(q0)) ** (2.0 / 3.0) - q0) / b


def fd_setup(
    kappa: float,
    cfg: PlateConfig,
    side: str,
    *,
    nodes_per_eps: int = 16,
    efolds: float = 14.0,
    stencil: int = 4,
) -> tuple[GridSpec, float]:
    """Grid and eps tuned for integrand_from_fd.

    eps = 0.025/sqrt(q(a)) keeps the cubic extraction residual near 1e-5
    relative; the grid resolves eps with nodes_per_eps cells and pads the
    open end with ~efolds decay lengths so the truncation is invisible.
    """
    kappa = _common_checks(kappa, cfg)
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    q_plate = _momentum_factor(cfg) * kappa * kappa + cfg.b * cfg.a
    eps = 0.025 / math.sqrt(q_plate)
    h = eps / nodes_per_eps
    if cfg.b == 0.0:
        pad = efolds / math.sqrt(q_plate)
        span = pad if side == "above" else cfg.a + pad
    else:
        ks2 = _momentum_factor(cfg) * kappa * kappa
        if side == "above":
            # e-folds accumulated above the plate
            q0 = q_plate
            span = _inv_efold(efolds, q0, cfg.b)
        else:
            # e-folds from the far side up to the plate; the stretch (0, a)
            # already contributes f_a of them
            f_a = (
                ((ks2 + cfg.b * cfg.a) ** 1.5 - ks2**1.5) / (1.5 * cfg.b)
            )
            need = max(efolds - f_a, 1.0)
            span = cfg.a + _inv_efold(need, ks2, cfg.b)
    span = max(span, 8.0 * eps)
    n = max(int(math.ceil(span / h)) + 1, 1000)
    if side == "above":
        grid = GridSpec(cfg.a, cfg.a + (n - 1) * h, n, stencil)
    else:
        grid = GridSpec(cfg.a - (n - 1) * h, cfg.a, n, stencil)
    return grid, eps


def force_from_fd(
    eta: float, *, kappa_max: float = 12.0, spec: QuadratureSpec = None
) -> float:
    """f(eta) recomputed end to end through the finite-difference route.

    Integrand values come from integrand_from_fd, the cutoff integral from
    the shared adaptive quadrature, and the large-momentum remainder from
    the closed-form Lorentzian tail integral (re-derived inline so this
    path imports nothing from the stress module).  This is the fully
    independent cross-check of the production force values.
    """
    eta = float(eta)
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be finite and > 0, got {eta!r}")
    cfg = PlateConfig.from_eta(eta)
    if spec is None:
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-12, max_subdivisions=200)

    def net(k: float) -> float:
        grid_a, eps_a = fd_setup(k, cfg, "above")
        grid_b, eps_b = fd_setup(k, cfg, "below")
        above = integrand_from_fd(k, cfg, "above", grid_a, eps_a)
        below = integrand_from_fd(k, cfg, "below", grid_b, eps_b)
        return below - above

    r = integrate_finite(lambda ks: [net(k) for k in ks.tolist()], 0.0, float(kappa_max), spec)
    s6 = eta ** (1.0 / 6.0)
    tail = math.atan(s6 / kappa_max) / (4.0 * math.pi * s6)
    return eta ** (2.0 / 3.0) * (r.value / (2.0 * math.pi) + tail)
