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

The operator is discretized with Numerov weighting, and the delta source
enters as a density of unit integral spread with weights (1, 10, 1)/12
over the node nearest x' and its neighbors.  Both sides of the plate go
through one plate-first extraction (_plate_integrand), which
verify.integrand_from_greens also uses on closed-form samples.
docs/numerics.md section 6 derives the discretization and the extraction.

Flat-background convention: when cfg.b == 0 (used only by the eta = 0
cross-checks) kappa is read as the physical momentum K and the integrand
normalization divides by 1 instead of b^{1/3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ResolutionError, ToleranceError
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
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise DomainError("grid bounds must be finite")
        if not self.x_lo < self.x_hi:
            raise DomainError(f"need x_lo < x_hi, got [{self.x_lo!r}, {self.x_hi!r}]")
        if int(self.n) < 1000:
            raise DomainError(f"grid needs at least 1000 points, got {self.n!r}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / (self.n - 1)


def _momentum_factor(cfg: PlateConfig) -> float:
    # b = 0 reads kappa as the physical momentum (flat-background checks)
    return cfg.b ** (2.0 / 3.0) if cfg.b > 0.0 else 1.0


def _q_values(xs: np.ndarray, kappa: float, cfg: PlateConfig) -> np.ndarray:
    return _momentum_factor(cfg) * kappa * kappa + cfg.b * np.abs(xs)


def _solve_banded_bvp(
    xs: np.ndarray, q: np.ndarray, sources: Sequence[int], plate: str
) -> np.ndarray:
    """Band solves of G'' - q G = -delta with plate at one edge, decay at the other.

    Returns one column per source node index, all from one ``solve_banded``
    call on one factorization; each column carries the same bits as a
    solve for its source alone.

    plate='lo': Dirichlet at xs[0], WKB closure at xs[-1];
    plate='hi': the mirror image.  The closure eliminates a ghost node
    through the centered first derivative, so it is second-order like the
    boundary region it sits in; the closure error itself is suppressed by
    e^{-2 integral sqrt(q)} across the pad, which the grid builders keep
    at ~e^{-28}.

    The spread source dents the Numerov solution at the source node by
    exactly -h/12 (the discrete Laplace kernel is piecewise linear in
    |j - m|, and the (1, 10, 1)/12 weights average |j - m| to 1/6 at the
    kink while leaving every other node exact), so that node is corrected
    after the solve; the residual there is O(h^3 q).
    """
    from scipy.linalg import solve_banded  # oracle only; kept off the import path

    n = xs.size
    h = xs[1] - xs[0]
    cols = np.arange(len(sources))
    src = np.asarray(sources)
    rhs = np.zeros((n, cols.size))
    c = 1.0 - (h * h / 12.0) * q
    d = -2.0 * (1.0 + (5.0 * h * h / 12.0) * q)
    w = -h / 12.0
    rhs[src - 1, cols] += w
    rhs[src, cols] += 10.0 * w
    rhs[src + 1, cols] += w
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
    g[src, cols] += h / 12.0
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


def _plate_side(side: str) -> tuple[str, float]:
    """(grid edge at the plate, direction away from it) for 'above' or 'below'."""
    if side == "above":
        return "lo", 1.0
    if side == "below":
        return "hi", -1.0
    raise DomainError(f"side must be 'above' or 'below', got {side!r}")


def _q_plate(kappa: float, cfg: PlateConfig) -> float:
    return _momentum_factor(cfg) * kappa * kappa + cfg.b * cfg.a


def _grid_values(kappa: float, cfg: PlateConfig, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and q on the grid, once the open end is padded by >= 8 decay lengths."""
    xs = np.linspace(grid.x_lo, grid.x_hi, grid.n)
    q = _q_values(xs, kappa, cfg)
    margin = _decay_margin(xs, q)
    if margin < 8.0:
        raise DomainError(
            f"domain too short: integral of sqrt(q) is {margin:.2f}, need >= 8 "
            "for the decay closure to be trustworthy"
        )
    return xs, q


def _source_index(xp: float, grid: GridSpec) -> int:
    j = int(round((xp - grid.x_lo) / grid.h))
    if not 2 <= j <= grid.n - 3:
        raise DomainError(f"source {xp!r} too close to the domain edge")
    return j


def _solve_bvp(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec, check: bool, plate: str
) -> tuple[np.ndarray, np.ndarray]:
    kappa = _common_checks(kappa, cfg)
    edge, verb = (grid.x_lo, "start") if plate == "lo" else (grid.x_hi, "end")
    if abs(edge - cfg.a) > 1e-12 * max(1.0, abs(cfg.a)):
        raise DomainError(f"grid must {verb} at the plate x = {cfg.a!r}")
    if not grid.x_lo < xp < grid.x_hi:
        raise DomainError(f"source must lie inside the grid, got {xp!r}")
    xs, q = _grid_values(kappa, cfg, grid)
    j = _source_index(xp, grid)
    g = _solve_banded_bvp(xs, q, [j], plate)[:, 0]
    if check:
        xs2 = np.linspace(grid.x_lo, grid.x_hi, 2 * grid.n - 1)
        g2 = _solve_banded_bvp(xs2, _q_values(xs2, kappa, cfg), [2 * j], plate)[:, 0]
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
    return _solve_bvp(kappa, cfg, xp, grid, check, "lo")


def solve_bvp_full(
    kappa: float, cfg: PlateConfig, xp: float, grid: GridSpec, *, check: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """G(x, xp) below the plate on [-X, a]: Dirichlet at a, decay toward -infinity.

    The grid must end at the plate; otherwise as solve_bvp_above.  The
    potential kink at x = 0 needs no special treatment: the Numerov rows
    just see V = b |x| pointwise.
    """
    return _solve_bvp(kappa, cfg, xp, grid, check, "hi")


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
    least 4 of them.
    """
    kappa = _common_checks(kappa, cfg)
    plate, away = _plate_side(side)
    h = grid.h
    j = int(round(float(eps) / h))
    if j < 4:
        raise ResolutionError(
            f"eps = {eps!r} spans fewer than 4 grid cells (h = {h!r}); refine the grid"
        )
    if 2 * j > grid.n - 6:
        raise ResolutionError("grid too short for the 2*eps solve")
    xs, q = _grid_values(kappa, cfg, grid)
    e = (j * h, 2 * j * h)
    edge = grid.x_lo if plate == "lo" else grid.x_hi
    g = _solve_banded_bvp(xs, q, [_source_index(edge + away * d, grid) for d in e], plate)
    return _plate_integrand(g if plate == "lo" else g[::-1], h, e, kappa, cfg)


# ---------------------------------------------------------------------------
# Tuned grid construction for the extraction above.


def _inv_efold(target: float, q0: float, b: float) -> float:
    """Distance L with integral_0^L sqrt(q0 + b t) dt = target (b > 0)."""
    return ((1.5 * b * target + q0 * math.sqrt(q0)) ** (2.0 / 3.0) - q0) / b


_NODES_PER_EPS = 16  # grid cells across eps
_EFOLDS = 14.0  # decay lengths of padding at the open end


def fd_setup(kappa: float, cfg: PlateConfig, side: str) -> tuple[GridSpec, float]:
    """Grid and eps tuned for integrand_from_fd.

    eps = 0.025/sqrt(q(a)) keeps the cubic extraction residual near 1e-5
    relative; the grid resolves eps with _NODES_PER_EPS cells and pads the
    open end with ~_EFOLDS decay lengths so the truncation is invisible.
    """
    kappa = _common_checks(kappa, cfg)
    plate, _ = _plate_side(side)
    q_plate = _q_plate(kappa, cfg)
    eps = 0.025 / math.sqrt(q_plate)
    h = eps / _NODES_PER_EPS
    if cfg.b == 0.0:
        pad = _EFOLDS / math.sqrt(q_plate)
        span = pad if plate == "lo" else cfg.a + pad
    elif plate == "lo":
        # e-folds accumulated above the plate
        span = _inv_efold(_EFOLDS, q_plate, cfg.b)
    else:
        # e-folds from the far side up to the plate; the stretch (0, a)
        # already contributes f_a of them
        ks2 = _momentum_factor(cfg) * kappa * kappa
        f_a = ((ks2 + cfg.b * cfg.a) ** 1.5 - ks2**1.5) / (1.5 * cfg.b)
        span = cfg.a + _inv_efold(max(_EFOLDS - f_a, 1.0), ks2, cfg.b)
    span = max(span, 8.0 * eps)
    n = max(int(math.ceil(span / h)) + 1, 1000)
    if plate == "lo":
        return GridSpec(cfg.a, cfg.a + (n - 1) * h, n), eps
    return GridSpec(cfg.a - (n - 1) * h, cfg.a, n), eps


def force_from_fd(
    eta: float, *, kappa_max: float = 12.0, spec: QuadratureSpec = None
) -> float:
    """f(eta) recomputed end to end through the finite-difference route.

    Integrand values come from integrand_from_fd, the cutoff integral from
    the shared adaptive quadrature, and the large-momentum remainder from
    the closed-form Lorentzian tail integral (re-derived inline so this
    path imports nothing from the stress module).  This is the fully
    independent cross-check of the production force values.  A cutoff
    integral that misses spec's tolerance raises ToleranceError.
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
    scale = eta ** (2.0 / 3.0)
    if not r.converged:
        # err_est in units of f, as force_exact reports it
        raise ToleranceError(
            f"FD momentum integral did not converge on [0.0, {float(kappa_max)!r}]; "
            f"eta={eta!r}, rel_tol={spec.rel_tol!r}, "
            f"err_est={scale * r.err_est / (2.0 * math.pi):.3e}"
        )
    s6 = eta ** (1.0 / 6.0)
    tail = math.atan(s6 / kappa_max) / (4.0 * math.pi * s6)
    return scale * (r.value / (2.0 * math.pi) + tail)
