"""Finite-difference BVP oracle: discretization order, closures, and the FD force pipeline."""

import ast
import json
import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from casimir_plate import QuadratureSpec, airy_engine, greens, oracle_ode, quadrature, stress_kernel
from casimir_plate.errors import DomainError, OracleError, ToleranceError
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

# Frozen pipeline output, 3.0e-13 from mpmath; agreement with force_exact is re-asserted below.
FORCE_FD_ETA_1 = 0.11450293526926848
# integrand_from_fd at kappa = 0.5, eta = 1 on the fd_setup grids, also frozen
# (2.8e-12 and 4.4e-12 from mpmath)
INTEGRAND_FD_ABOVE = -1.269378278502948
INTEGRAND_FD_BELOW = -0.9281158727674682


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

    def test_node_cap(self):
        assert GridSpec(1.0, 9.0, oracle_ode._MAX_NODES).n == oracle_ode._MAX_NODES
        with pytest.raises(DomainError, match="grid needs 4000001 points, over the cap of 4000000"):
            GridSpec(1.0, 9.0, oracle_ode._MAX_NODES + 1)

    @pytest.mark.parametrize("n", [4000.5, 4001.0, "4001"])
    def test_non_integral_size_is_named(self, n):
        # np.linspace would die on it with a bare TypeError
        with pytest.raises(DomainError, match="grid size n must be an integer"):
            GridSpec(1.0, 9.0, n)


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

    @pytest.mark.parametrize("eta, kappa", [(0.01, 0.0), (1.0, 3.0)])
    @pytest.mark.parametrize("side, solve", [("above", solve_bvp_above), ("below", solve_bvp_full)])
    def test_production_grid_is_resolved(self, side, solve, eta, kappa):
        # on an fd_setup grid of n nodes and its doubled grid of 2n - 1, the
        # Green's functions for a source 16 cells from the plate agree on the
        # common nodes within 1e-5 of the peak (at most 1.2e-9 here)
        cfg = PlateConfig.from_eta(eta)
        grid = fd_setup(kappa, cfg, side)
        xp = cfg.a + 16 * (grid.h if side == "above" else -grid.h)
        _, g = solve(kappa, cfg, xp, grid)
        _, fine = solve(kappa, cfg, xp, GridSpec(grid.x_lo, grid.x_hi, 2 * grid.n - 1))
        assert max(abs(g - fine[::2])) <= 1e-5 * max(abs(g))

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
        # integrand_from_fd takes the same check: its own grid moved off the
        # plate, or the other side's grid, would give a wrong number, not a refusal
        side = "above" if verb == "start" else "below"
        misplaced = {"start": [("above", 0.5), ("below", 0.0)], "end": [("below", -0.3)]}
        for grid_side, shift in misplaced[verb]:
            grid = fd_setup(1.0, self.CFG, grid_side)
            moved = GridSpec(grid.x_lo + shift, grid.x_hi + shift, grid.n)
            with pytest.raises(DomainError, match=f"grid must {verb} at the plate"):
                integrand_from_fd(1.0, self.CFG, side, moved)

    def test_full_solver_handles_kink_region(self):
        cfg = PlateConfig.from_eta(5.0)
        grid = GridSpec(-9.0, 1.0, 10001)
        xp = 1.0 - 900 * grid.h
        xs, g = solve_bvp_full(0.8, cfg, xp, grid)
        assert g[-1] == 0.0  # Dirichlet at the plate end
        assert g[9100] > 0.0
        # deep tail decays
        assert g[200] < g[5000] < g[9000]

    def test_failed_factorization_is_typed(self, monkeypatch):
        # the band is diagonally dominant, so only a LAPACK fault gives info != 0
        def singular(dl, d, du, b, **overwrite):
            return dl, d, du, b, 7

        monkeypatch.setattr(oracle_ode, "_dgtsv", lambda: singular)
        with pytest.raises(OracleError, match="dgtsv returned info=7"):
            solve_bvp_above(1.0, self.CFG, 3.0, GridSpec(1.0, 9.0, 4001))


class TestGridSize:
    # fd_setup pads each grid to _EFOLDS = 16 e-folds of sqrt(q) at the spacing
    # a/m, wherever kappa and eta put the plate

    @staticmethod
    def _setups():
        for eta in [10.0**d for d in range(-6, 7)]:
            for kappa in (0.0, 0.1, 0.5, 1.0, 3.0, 12.0, 100.0, 1e4):
                yield kappa, PlateConfig.from_eta(eta)
        for kappa in (0.7, 20.0):
            yield kappa, PlateConfig(a=1.0, b=0.0)

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_grids_hold_the_padding_they_ask_for(self, side):
        for kappa, cfg in self._setups():
            grid = fd_setup(kappa, cfg, side)
            where = (kappa, cfg, side, grid.n)
            assert grid.n <= 16000, where
            if grid.n > 1000:  # the node floor pads further
                sq = np.sqrt(oracle_ode._grid_values(kappa, cfg, grid)[1])
                efolds = (sq.sum() - 0.5 * (sq[0] + sq[-1])) * grid.h  # trapezoid rule
                assert 16.0 - 1e-6 <= efolds <= 16.05, where

    @pytest.mark.parametrize("kappa", [1e3, 1e5, 1e8, 1e11, 7.2e16])
    @pytest.mark.parametrize("side, closed_form", [("above", integrand_above),
                                                   ("below", integrand_below)])
    def test_large_momentum_is_answered(self, kappa, side, closed_form):
        # up to where the grid, about 10,240 cells of a/m, spans one ulp of a
        cfg = PlateConfig.from_eta(1.0)
        grid = fd_setup(kappa, cfg, side)
        assert grid.n <= 10300
        got = integrand_from_fd(kappa, cfg, side, grid)
        assert rel(got, closed_form(kappa, 1.0)) <= 1e-9

    @pytest.mark.parametrize("s", [1e-100, 1e60])
    @pytest.mark.parametrize("kappa", [0.0, 1.0, 12.0])
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_size_is_scale_invariant(self, s, kappa, side):
        # a -> s a, b -> b/s^3 keeps eta and stretches x by s; at s = 1e-100,
        # b = 1e300, an unscaled padding formula would overflow
        n = fd_setup(kappa, PlateConfig(a=1.0, b=1.0), side).n
        assert abs(fd_setup(kappa, PlateConfig(a=s, b=s**-3), side).n - n) <= 1


class TestOverflowingMomentum:
    # q = b^{2/3} kappa^2 + b |x| overflows at kappa ~ 1.3e154 (b = 1), and
    # fd_setup and the net sample refuse every kappa whose grid would span
    # less than ulp(a), from kappa ~ 7.2e16 at eta = 1 (one check, in _reach)
    CFG = PlateConfig.from_eta(1.0)

    @pytest.mark.parametrize("kappa", [3e17, 1e103, 1e154, 1e155, 1e200])
    @pytest.mark.parametrize("setup", [partial(fd_setup, side="above"),
                                       partial(fd_setup, side="below"), oracle_ode._net_fd],
                             ids=["above", "below", "net"])
    def test_setup_names_kappa(self, kappa, setup):
        with pytest.raises(DomainError, match=re.escape(f"eta=1.0, kappa={kappa!r}: the finite-")):
            setup(kappa, self.CFG)

    @pytest.mark.parametrize("kappa", [1e155, 1e200])
    @pytest.mark.parametrize(
        "solve, grid, xp",
        [(solve_bvp_above, GridSpec(1.0, 9.0, 4001), 3.0),
         (solve_bvp_full, GridSpec(-9.0, 1.0, 4001), -3.0)],
    )
    def test_solvers_name_kappa(self, kappa, solve, grid, xp):
        with pytest.raises(DomainError, match=re.escape(f"kappa={kappa!r} overflows the")):
            solve(kappa, self.CFG, xp, grid)

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_integrand_names_kappa(self, side):
        grid = fd_setup(1.0, self.CFG, side)
        with pytest.raises(DomainError, match=re.escape("kappa=1e+200 overflows the")):
            integrand_from_fd(1e200, self.CFG, side, grid)

    def test_wide_grid_overflowing_the_band_is_named(self):
        # q stays finite here, but h^2 q at the far end does not
        with pytest.raises(DomainError, match="kappa=1.0 overflows the finite-difference band"):
            solve_bvp_above(1.0, self.CFG, 1e298, GridSpec(1.0, 1e300, 1001))


class TestStressExtraction:
    ETAS = (1e-6, 1e-3, 0.01, 1.0, 100.0, 1e4, 1e6)
    KAPPAS = (0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8)

    @pytest.mark.parametrize("side, closed_form", [("above", integrand_above),
                                                   ("below", integrand_below)])
    def test_sides_match_the_closed_forms(self, side, closed_form):
        # the slope of the w(0) = 1 solve at the plate, within 6.7e-11 here
        for eta in self.ETAS:
            cfg = PlateConfig.from_eta(eta)
            for kappa in self.KAPPAS:
                got = integrand_from_fd(kappa, cfg, side, fd_setup(kappa, cfg, side))
                assert rel(got, closed_form(kappa, eta)) <= 1e-9, (eta, kappa)

    def test_net_from_fd_at_moderate_momentum(self):
        cfg = PlateConfig.from_eta(0.5)
        net_fd = 0.0
        for side, sign in (("below", 1.0), ("above", -1.0)):
            net_fd += sign * integrand_from_fd(1.5, cfg, side, fd_setup(1.5, cfg, side))
        assert rel(net_fd, integrand_net(1.5, 0.5)) <= 1e-8

    def test_flat_background_sides_cancel(self):
        cfg0 = PlateConfig(a=1.0, b=0.0)
        vals = {side: integrand_from_fd(0.7, cfg0, side, fd_setup(0.7, cfg0, side))
                for side in ("above", "below")}
        # with no potential gradient the two sides agree and net ~ 0
        assert abs(vals["below"] - vals["above"]) <= 1e-10
        assert vals["above"] == pytest.approx(-0.7, rel=1e-10)

    @pytest.mark.parametrize("side", ["Above", "", "left", "both"])
    def test_unknown_side_is_named(self, side):
        cfg = PlateConfig.from_eta(1.0)
        grid = fd_setup(1.0, cfg, "above")
        for call in (lambda: fd_setup(1.0, cfg, side),
                     lambda: integrand_from_fd(1.0, cfg, side, grid)):
            with pytest.raises(DomainError, match="side must be 'above' or 'below'"):
                call()

    def test_short_domain_rejected(self):
        cfg = PlateConfig.from_eta(1.0)
        with pytest.raises(DomainError, match="domain too short"):
            integrand_from_fd(1.0, cfg, "above", GridSpec(cfg.a, cfg.a + 0.5, 2001))

    def test_setup_geometry(self):
        # spacing a/m, m >= 16: a below grid that reaches x = 0 has a node on
        # it, at least 16 cells from the plate
        cfg = PlateConfig.from_eta(1e-3)
        for kappa in (0.0, 1e-3, 0.1, 1.0):
            grid = fd_setup(kappa, cfg, "above")
            assert grid.x_lo == cfg.a
            m = cfg.a / grid.h
            assert abs(m - round(m)) <= 1e-9 * m and m >= 16.0
            grid = fd_setup(kappa, cfg, "below")
            assert grid.x_hi == cfg.a and grid.x_lo < 0.0
            k = round(-grid.x_lo / grid.h)
            assert abs(grid.x_lo + k * grid.h) <= 1e-9 * grid.h and grid.n - 1 - k >= 16


class TestForcePipeline:
    def test_pinned_value(self):
        assert force_from_fd(1.0) == FORCE_FD_ETA_1

    @pytest.mark.parametrize("side, pinned", [("above", INTEGRAND_FD_ABOVE),
                                              ("below", INTEGRAND_FD_BELOW)])
    def test_pinned_integrands(self, side, pinned):
        cfg = PlateConfig.from_eta(1.0)
        assert integrand_from_fd(0.5, cfg, side, fd_setup(0.5, cfg, side)) == pinned

    def test_agrees_with_closed_form_route(self):
        # each route states its error; they must agree within the sum
        exact = force_exact(1.0)
        fd, fd_err = oracle_ode._force_fd(1.0)
        assert abs(exact.f_eta - fd) <= exact.err_est + fd_err

    def test_route_reaches_no_airy_code(self, monkeypatch):
        # the FD force is an independent check only while it stays Airy-free:
        # every Airy kernel (airy_scaled, the table, series and product rows
        # behind it, _net_terms, and stress_kernel's _net_above) raises
        # here, wherever the package binds it
        airy_code = ("airy_scaled", "_taylor_scaled", "_series_rows", "_series_terms",
                     "_net_terms", "_net_above")

        def refuse(*args, **kwargs):
            raise AssertionError("the finite-difference route called Airy code")

        for mod in (airy_engine, greens, oracle_ode, stress_kernel):
            for name in airy_code:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refuse)
        assert force_from_fd(1.0) == pytest.approx(FORCE_FD_ETA_1, rel=1e-6)
        cfg = PlateConfig.from_eta(1.0)
        for side in ("above", "below"):
            assert math.isfinite(integrand_from_fd(1.5, cfg, side, fd_setup(1.5, cfg, side)))

    def test_nonconvergence_raises_and_names_inputs(self, monkeypatch):
        # the refusal at the last Clenshaw-Curtis level
        monkeypatch.setattr(oracle_ode, "_FD_SPEC", QuadratureSpec(rel_tol=1e-12))
        monkeypatch.setattr(quadrature, "_CC_MAX", 16)
        with pytest.raises(ToleranceError) as info:
            force_from_fd(1.0)
        text = str(info.value)
        assert "eta=1.0" in text and "rel_tol=1e-12" in text and "err_est=" in text

    def test_momentum_integral_is_the_packages_finite_rule(self, monkeypatch):
        # one call of oracle_ode's integrate_finite binding on [0, 1], the
        # binding the benchmark's tracer wraps
        rule, calls = oracle_ode.integrate_finite, []

        def counting(f, lo, hi, spec):
            calls.append((lo, hi, spec))
            return rule(f, lo, hi, spec)

        monkeypatch.setattr(oracle_ode, "integrate_finite", counting)
        assert force_from_fd(1.0) == FORCE_FD_ETA_1
        assert calls == [(0.0, 1.0, oracle_ode._FD_SPEC)]

    @pytest.mark.parametrize("eta, reason", [
        (1e-300, "grid needs 3328134116883"), (1e-20, "grid needs 154478309 points, over the cap"),
        (1e300, "the finite-difference grid would span 1.600e-149, below one ulp"),
    ])
    def test_eta_beyond_the_grids_is_refused_before_any_node(self, monkeypatch, eta, reason):
        # the first sample, kappa = 0, needs the largest grid; none is allocated
        def refuse(*args):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(oracle_ode, "_net_values", refuse)
        monkeypatch.setattr(oracle_ode, "_nodes", refuse)
        with pytest.raises(DomainError, match=re.escape(f"eta={eta!r}, kappa=0.0: {reason}")):
            force_from_fd(eta)

    def test_kappa_zero_grid_at_eta_1e_minus_14_is_under_the_cap(self, monkeypatch):
        class Built(Exception):
            pass

        def stop(kappa, cfg, grid):
            raise Built(grid.n)

        monkeypatch.setattr(oracle_ode, "_net_values", stop)
        with pytest.raises(Built, match="^3089577$"):
            oracle_ode._net_fd(0.0, PlateConfig.from_eta(1e-14))

    @pytest.mark.parametrize("eta", [0.03, 1.0, 100.0])
    def test_endpoint_law(self, eta):
        # net -> 1/(2 kappa^2) at rate eta^{1/3}/kappa^2: the t = 1 node's limit 1/(2 k0)
        cfg = PlateConfig.from_eta(eta)
        for kappa in (1e2, 1e3, 1e4):
            net, _ = oracle_ode._net_fd(kappa, cfg)
            assert abs(2.0 * kappa * kappa * net - 1.0) <= 2.0 * eta ** (1.0 / 3.0) / kappa**2

    def test_oracle_forces_take_at_most_384_samples(self, monkeypatch):
        net, kappas = oracle_ode._net_fd, []

        def counting(kappa, cfg):
            kappas.append(kappa)
            return net(kappa, cfg)

        monkeypatch.setattr(oracle_ode, "_net_fd", counting)
        for eta in (0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0):
            oracle_ode._force_fd(eta)
        assert len(kappas) <= 384 and all(map(math.isfinite, kappas))


REFS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "refs.json").read_text())
REF = {r["eta"]: float(r["f"]) for r in REFS["refs"]}


class TestNetIntegral:
    # net as one positive integral: the samples and the force they make
    ETAS = (1e-3, 0.01, 1.0, 1e4)
    KAPPAS = (0.0, 1e-3, 0.1, 0.5, 3.0, 10.0, 100.0, 1e4)

    @pytest.mark.parametrize("eta", [0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
                                     1e-3, 0.01, 1e6])
    def test_error_estimate_bounds_the_mpmath_error(self, eta):
        f, err = oracle_ode._force_fd(eta)
        assert abs(f - REF[eta]) <= err <= 1e-8 * f

    def test_samples_match_the_closed_form_net(self):
        for eta in self.ETAS:
            cfg = PlateConfig.from_eta(eta)
            for kappa in self.KAPPAS:
                net, err = oracle_ode._net_fd(kappa, cfg)
                gap = abs(net - integrand_net(kappa, eta))
                assert gap <= err <= 1e-8 * net, (eta, kappa)

    def test_integrand_is_nonnegative_on_every_node(self, monkeypatch):
        solve, seen = oracle_ode._solve, []

        def record(kappa, cfg, side, grid, xp=oracle_ode._W1, values=None):
            out = solve(kappa, cfg, side, grid, xp, values)
            seen.append((cfg, grid, out[2]))
            return out

        monkeypatch.setattr(oracle_ode, "_solve", record)
        for eta in self.ETAS:
            for kappa in self.KAPPAS:
                oracle_ode._net_fd(kappa, PlateConfig.from_eta(eta))
        assert len(seen) == 2 * len(self.ETAS) * len(self.KAPPAS)
        for cfg, grid, w in seen:
            p = (grid.n - 1) // 2
            s = np.arange(p + 1) * grid.h
            assert (2.0 * cfg.b * np.minimum(cfg.a, s) * w[p:] * w[p::-1] >= 0.0).all()

    def test_coarse_grid_is_the_fine_grids_even_nodes(self, monkeypatch):
        # each sample forms its arrays once on the fine grid; the coarse grid's
        # nodes, q, sqrt(q) and weights, its every other entry, must be bit for
        # bit the ones it forms itself (its nodes np.linspace's), and so must
        # its Simpson value
        simpson, seen = oracle_ode._net_simpson, []

        def record(kappa, cfg, grid, values=None):
            seen.append((grid, values))
            return simpson(kappa, cfg, grid, values)

        monkeypatch.setattr(oracle_ode, "_net_simpson", record)
        for eta in [10.0 ** (k / 2.0) for k in range(-6, 13)]:
            cfg = PlateConfig.from_eta(eta)
            for kappa in [0.0] + [10.0 ** (k / 2.0) for k in range(-6, 9)]:
                seen.clear()
                oracle_ode._net_fd(kappa, cfg)
                (grid, coarse), (fine_grid, fine) = seen
                assert (fine_grid.x_lo, fine_grid.x_hi) == (grid.x_lo, grid.x_hi)
                assert (fine_grid.n, fine_grid.h) == (2 * grid.n - 1, grid.h / 2.0)
                own = oracle_ode._net_values(kappa, cfg, grid)
                assert own[0].tobytes() == np.linspace(grid.x_lo, grid.x_hi, grid.n).tobytes()
                for mine, nested, full in zip(own, coarse, fine):
                    assert mine.tobytes() == nested.tobytes() == full[::2].tobytes(), (eta, kappa)
                assert simpson(kappa, cfg, grid, coarse) == simpson(kappa, cfg, grid)

    def test_kink_row_makes_the_sample_fourth_order(self, monkeypatch):
        # eta = 1, kappa = 0: halving h cuts the error 16.0x; without the
        # kink row, 4.0x (second order, 1.5e-5 at m = 60)
        cfg, ref = PlateConfig.from_eta(1.0), integrand_net(0.0, 1.0)

        def ratio():
            grids = [oracle_ode._net_grid(0.0, cfg, m, 10 * m) for m in (60, 120)]
            errs = [abs(oracle_ode._net_simpson(0.0, cfg, grid) - ref) for grid in grids]
            return errs[0] / errs[1]

        assert ratio() >= 12.0
        band = oracle_ode._solve_tridiagonal_bvp
        monkeypatch.setattr(oracle_ode, "_solve_tridiagonal_bvp",
                            lambda h, q, source, plate, kink, jump: band(h, q, source, plate))
        assert ratio() < 5.0

    def test_two_sided_grid_must_center_on_the_plate(self):
        cfg = PlateConfig.from_eta(1.0)
        for grid in (GridSpec(0.0, 2.0, 2000), GridSpec(0.5, 2.0, 2001)):
            with pytest.raises(DomainError, match="grid must center at the plate"):
                oracle_ode._solve(1.0, cfg, "both", grid)


def test_oracle_imports_no_airy_code():
    # the dual route holds only while the FD oracle shares nothing with the
    # closed forms: from the package it may take errors (PlateConfig among
    # them) and the quadrature, and nothing else (greens, airy_engine and
    # stress_kernel above all)
    tree = ast.parse(Path(oracle_ode.__file__).read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "casimir_plate" in (node.module or "")):
            module = (node.module or "").rpartition(".")[2]
            taken |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any("casimir_plate" in alias.name for alias in node.names)
    assert {m for m, _ in taken} <= {"errors", "quadrature"}, taken
    assert ("errors", "PlateConfig") in taken
