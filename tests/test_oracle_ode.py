"""Finite-difference BVP oracle: discretization order, closures, and the FD force pipeline."""

import math

import pytest

from casimir_plate import QuadratureSpec, oracle_ode
from casimir_plate.errors import DomainError, ResolutionError, ToleranceError
from casimir_plate.greens import PlateConfig, greens_free_above, greens_linear_above
from casimir_plate.oracle_ode import (
    GridSpec,
    fd_setup,
    force_from_fd,
    integrand_from_fd,
    solve_bvp_above,
    solve_bvp_full,
)
from casimir_plate.stress_kernel import force_exact, integrand_above, integrand_below, integrand_net

# Frozen pipeline output; agreement with force_exact is re-asserted below.
FORCE_FD_ETA_1 = 0.11450214572345424


def rel(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(0.0, 1.0, 1001)
        assert g.h == pytest.approx(1e-3, rel=1e-14)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 1.0, 500),
            (0.0, math.inf, 2000),
            (1.0, 1.0, 2000),
            (2.0, 1.0, 2000),
        ],
    )
    def test_validation(self, args):
        with pytest.raises(DomainError):
            GridSpec(*args)


class TestBandedSolver:
    CFG = PlateConfig.from_eta(1.0)

    def test_dirichlet_at_plate(self):
        grid = GridSpec(1.0, 9.0, 4001)
        xs, g = solve_bvp_above(1.0, self.CFG, 3.0, grid)
        assert g[0] == 0.0

    def test_flat_background_recovers_image_kernel(self):
        cfg0 = PlateConfig(a=1.0, b=0.0)
        grid = GridSpec(1.0, 17.0, 8001)
        xp = 1.0 + 1500 * grid.h
        xs, g = solve_bvp_above(1.0, cfg0, xp, grid)
        worst = max(
            rel(g[j], greens_free_above(float(xs[j]), xp, 1.0, 1.0))
            for j in (200, 800, 1500, 2200, 4000)
        )
        assert worst <= 1e-7

    def test_fourth_order_stencil_beats_second(self):
        # the plain three-point stencil, since removed, erred by 9.47e-8 here;
        # Numerov errs by 1.24e-13
        second_order_err = 9.468628535402868e-08
        grid = GridSpec(1.0, 9.0, 4001)
        xp = 1.0 + 1000 * grid.h
        j = 700
        _, g = solve_bvp_above(1.0, self.CFG, xp, grid)
        truth = greens_linear_above(1.0 + j * grid.h, xp, 1.0, self.CFG)
        assert abs(g[j] - truth) < 1e-4 * second_order_err

    def test_numerov_convergence_rate(self):
        # halving h cuts the error 14.7x (16x is the fourth-order rate)
        xp, x_probe = 5.0, 3.0
        errs = []
        for n in (1001, 2001):
            grid = GridSpec(1.0, 9.0, n)
            j = round((x_probe - 1.0) / grid.h)
            _, g = solve_bvp_above(1.0, self.CFG, xp, grid)
            errs.append(abs(g[j] - greens_linear_above(x_probe, xp, 1.0, self.CFG)))
        assert errs[0] / errs[1] >= 12.0

    def test_self_check_passes_on_adequate_grid(self):
        grid = GridSpec(1.0, 9.0, 3001)
        solve_bvp_above(1.0, self.CFG, 3.0, grid, check=True)

    def test_self_check_flags_coarse_grid(self):
        # h = 0.2 on [1, 200]: the doubled grid moves the solution by 5.35e-4
        grid = GridSpec(1.0, 200.0, 1000)
        with pytest.raises(ResolutionError, match="5.35e-04"):
            solve_bvp_above(1.0, self.CFG, 3.0, grid, check=True)

    def test_short_domain_rejected(self):
        # decay margin integral ~ 1 e-fold here, far below the closure's needs
        with pytest.raises(DomainError):
            solve_bvp_above(0.3, PlateConfig(a=1.0, b=1e-3), 1.5, GridSpec(1.0, 2.0, 2001))

    def test_source_on_edge_rejected(self):
        grid = GridSpec(1.0, 9.0, 4001)
        with pytest.raises(DomainError):
            solve_bvp_above(1.0, self.CFG, 9.0, grid)

    def test_massless_flat_combination_rejected(self):
        grid = GridSpec(1.0, 9.0, 4001)
        with pytest.raises(DomainError):
            solve_bvp_above(0.0, PlateConfig(a=1.0, b=0.0), 3.0, grid)

    @pytest.mark.parametrize(
        "solve, bounds, verb",
        [(solve_bvp_above, (0.5, 9.0), "start"), (solve_bvp_full, (-9.0, 1.5), "end")],
    )
    def test_grid_must_meet_the_plate(self, solve, bounds, verb):
        with pytest.raises(DomainError, match=f"grid must {verb} at the plate"):
            solve(1.0, self.CFG, 0.9, GridSpec(*bounds, 4001))

    def test_full_solver_handles_kink_region(self):
        cfg = PlateConfig.from_eta(5.0)
        grid = GridSpec(-9.0, 1.0, 10001)
        xp = 1.0 - 900 * grid.h
        xs, g = solve_bvp_full(0.8, cfg, xp, grid)
        assert g[-1] == 0.0  # Dirichlet at the plate end
        assert g[9100] > 0.0
        # deep tail decays
        assert g[200] < g[5000] < g[9000]

    @pytest.mark.parametrize("n_sources", [2, 4])
    @pytest.mark.parametrize("side, plate", [("above", "lo"), ("below", "hi")])
    def test_two_source_solve_equals_one_source_solves(self, side, plate, n_sources):
        # the FD integrand solves its eps and 2 eps probes in one call; each
        # column of a many-source solve carries its one-source bits
        grid, eps = fd_setup(1.3, self.CFG, side)
        xs, q = oracle_ode._grid_values(1.3, self.CFG, grid)
        j = round(eps / grid.h)
        steps = [k * j for k in range(1, n_sources + 1)]
        sources = steps if plate == "lo" else [grid.n - 1 - s for s in steps]
        both = oracle_ode._solve_banded_bvp(xs, q, sources, plate)
        assert both.shape == (grid.n, n_sources)
        for k, src in enumerate(sources):
            one = oracle_ode._solve_banded_bvp(xs, q, [src], plate)
            assert both[:, k].tobytes() == one[:, 0].tobytes()


class TestStressExtraction:
    def test_above_matches_closed_form(self):
        cfg = PlateConfig.from_eta(1.0)
        grid, eps = fd_setup(1.0, cfg, "above")
        got = integrand_from_fd(1.0, cfg, "above", grid, eps)
        assert rel(got, integrand_above(1.0, 1.0)) <= 1e-4

    def test_below_matches_closed_form_at_kappa_zero(self):
        cfg = PlateConfig.from_eta(1.0)
        grid, eps = fd_setup(0.0, cfg, "below")
        got = integrand_from_fd(0.0, cfg, "below", grid, eps)
        assert rel(got, integrand_below(0.0, 1.0)) <= 1e-4

    def test_net_from_fd_at_moderate_momentum(self):
        cfg = PlateConfig.from_eta(0.5)
        net_fd = 0.0
        for side, sign in (("below", 1.0), ("above", -1.0)):
            grid, eps = fd_setup(1.5, cfg, side)
            net_fd += sign * integrand_from_fd(1.5, cfg, side, grid, eps)
        assert rel(net_fd, integrand_net(1.5, 0.5).net) <= 1e-4

    def test_flat_background_sides_cancel(self):
        cfg0 = PlateConfig(a=1.0, b=0.0)
        vals = {}
        for side in ("above", "below"):
            grid, eps = fd_setup(0.7, cfg0, side)
            vals[side] = integrand_from_fd(0.7, cfg0, side, grid, eps)
        # with no potential gradient the two sides agree and net ~ 0
        assert abs(vals["below"] - vals["above"]) <= 1e-8
        assert vals["above"] == pytest.approx(-0.7, rel=1e-5)

    @pytest.mark.parametrize("side", ["Above", "", "left"])
    def test_unknown_side_is_named(self, side):
        cfg = PlateConfig.from_eta(1.0)
        grid, eps = fd_setup(1.0, cfg, "above")
        for call in (lambda: fd_setup(1.0, cfg, side),
                     lambda: integrand_from_fd(1.0, cfg, side, grid, eps)):
            with pytest.raises(DomainError, match="side must be 'above' or 'below'"):
                call()

    def test_probe_separation_must_resolve(self):
        cfg = PlateConfig.from_eta(1.0)
        grid, eps = fd_setup(1.0, cfg, "above")
        with pytest.raises(ResolutionError):
            integrand_from_fd(1.0, cfg, "above", grid, grid.h)  # eps below 4h

    def test_short_domain_rejected(self):
        cfg = PlateConfig.from_eta(1.0)
        with pytest.raises(DomainError, match="domain too short"):
            integrand_from_fd(1.0, cfg, "above", GridSpec(cfg.a, cfg.a + 0.5, 2001), 0.01)

    def test_setup_geometry(self):
        cfg = PlateConfig.from_eta(1.0)
        grid, eps = fd_setup(1.0, cfg, "above")
        assert grid.x_lo == cfg.a
        assert eps / grid.h >= 4.0
        grid, eps = fd_setup(1.0, cfg, "below")
        assert grid.x_hi == cfg.a


class TestForcePipeline:
    def test_pinned_value(self):
        assert force_from_fd(1.0) == pytest.approx(FORCE_FD_ETA_1, rel=1e-6)

    def test_agrees_with_closed_form_route(self):
        assert rel(force_from_fd(1.0), force_exact(1.0).f_eta) <= 1e-4

    def test_nonconvergence_raises_and_names_inputs(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30, max_subdivisions=2)
        with pytest.raises(ToleranceError) as info:
            force_from_fd(1.0, spec=spec)
        text = str(info.value)
        assert "eta=1.0" in text and "rel_tol=1e-12" in text and "err_est=" in text
