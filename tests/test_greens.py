"""Boundary-value Green's functions: closed-form anchors, jump/symmetry laws, FD oracle spots."""

import math
import re

import numpy as np
import pytest

from casimir_plate import airy_engine, greens, oracle_ode
from casimir_plate.errors import DomainError
from casimir_plate.greens import (
    PlateConfig,
    below_ratio_from_construction,
    greens_free_above,
    greens_free_between,
    greens_linear_above,
    greens_linear_below,
)
from casimir_plate.stress_kernel import integrand_below


def rel(x, y):
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def jump_at(g, xp, d=1e-3):
    """Derivative jump across the source by one-sided differences.

    Second difference over d is first-order accurate in d on a kernel with
    a derivative kink, so a two-level Richardson step removes the O(d) term.
    """

    def one(dd):
        return (g(xp + dd) - 2.0 * g(xp) + g(xp - dd)) / dd

    return 2.0 * one(d / 2.0) - one(d)


class TestPlateConfig:
    def test_eta_recomputed(self):
        cfg = PlateConfig(a=2.0, b=0.25)
        assert cfg.eta == 0.25 * 8.0

    def test_from_eta(self):
        cfg = PlateConfig.from_eta(5.0)
        assert cfg.a == 1.0
        assert cfg.b == 5.0
        assert cfg.eta == 5.0

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0)])
    def test_validation(self, a, b):
        with pytest.raises(DomainError):
            PlateConfig(a=a, b=b)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PlateConfig(a=1e-110, b=1.0),  # a^3 underflows to 0
            lambda: PlateConfig(a=1e110, b=1.0),  # a^3 overflows
            lambda: PlateConfig(a=1e110, b=0.0),
            lambda: PlateConfig(a=1e-100, b=1e-300),  # b a^3 underflows
            lambda: PlateConfig(a=1e100, b=1e300),  # b a^3 overflows
        ],
    )
    def test_cube_outside_the_float_range_names_a(self, make):
        with pytest.raises(DomainError, match="plate height a = "):
            make()

    def test_extreme_heights_inside_the_float_range_still_build(self):
        assert PlateConfig(a=1e-100, b=1.0).eta == 1e-100**3


class TestFlatBackgroundKernels:
    def test_between_pinned_value(self):
        # sinh(K x) sinh(K (a-x)) / (K sinh(K a)) at x=x'=1, K=1, a=2
        assert greens_free_between(1.0, 1.0, 1.0, 2.0) == pytest.approx(
            math.tanh(1.0) / 2.0, rel=1e-14
        )

    def test_above_pinned_value(self):
        assert greens_free_above(3.0, 3.0, 1.0, 2.0) == pytest.approx(
            -math.expm1(-2.0) / 2.0, rel=1e-14
        )

    def test_dirichlet_zeros(self):
        assert greens_free_between(0.0, 0.7, 1.0, 2.0) == 0.0
        assert greens_free_between(2.0, 0.7, 1.0, 2.0) == 0.0
        assert greens_free_between(0.7, 2.0, 1.0, 2.0) == 0.0
        assert greens_free_above(3.1, 2.0, 1.0, 2.0) == 0.0
        assert greens_free_above(2.0, 3.1, 1.0, 2.0) == 0.0

    @pytest.mark.parametrize("x, xp", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5)])
    def test_non_finite_points_are_named(self, x, xp):
        with pytest.raises(DomainError, match="points must be finite"):
            greens_free_between(x, xp, 1.0, 2.0)
        with pytest.raises(DomainError, match="points must be finite"):
            greens_free_above(x + 2.0, xp + 2.0, 1.0, 1.0)

    def test_symmetry(self):
        for x, xp in ((0.3, 1.2), (0.5, 1.9), (1.0, 0.1)):
            assert greens_free_between(x, xp, 1.4, 2.0) == pytest.approx(
                greens_free_between(xp, x, 1.4, 2.0), rel=1e-12
            )
        for x, xp in ((2.2, 3.0), (2.05, 5.0)):
            assert greens_free_above(x, xp, 0.8, 2.0) == pytest.approx(
                greens_free_above(xp, x, 0.8, 2.0), rel=1e-12
            )

    def test_jump_normalization(self):
        g1 = lambda x: greens_free_between(x, 0.7, 1.3, 2.0)
        assert abs(jump_at(g1, 0.7) + 1.0) <= 1e-6
        g2 = lambda x: greens_free_above(x, 3.1, 0.9, 2.0)
        assert abs(jump_at(g2, 3.1) + 1.0) <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            greens_free_between(2.5, 0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            greens_free_between(0.5, -0.1, 1.0, 2.0)
        with pytest.raises(DomainError):
            greens_free_above(0.5, 1.5, 1.0, 1.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0])
    def test_above_rejects_a_bad_plate_height(self, a):
        with pytest.raises(DomainError, match="plate height"):
            greens_free_above(1.0, 2.0, 1.0, a)


class TestLinearBackgroundAbove:
    CFG = PlateConfig.from_eta(1.0)

    def test_dirichlet_zero_at_plate(self):
        assert greens_linear_above(1.0, 1.7, 1.2, self.CFG) == 0.0
        assert greens_linear_above(1.7, 1.0, 1.2, self.CFG) == 0.0

    def test_symmetry(self):
        c = PlateConfig.from_eta(5.0)
        for x, xp in ((2.0, 3.0), (1.1, 1.5), (4.0, 1.2)):
            assert greens_linear_above(x, xp, 1.3, c) == pytest.approx(
                greens_linear_above(xp, x, 1.3, c), rel=1e-12
            )

    def test_jump_normalization(self):
        g = lambda x: greens_linear_above(x, 1.6, 1.1, self.CFG)
        assert abs(jump_at(g, 1.6) + 1.0) <= 1e-6

    def test_decay_with_distance(self):
        vals = [greens_linear_above(1.5 + t, 1.4, 0.7, self.CFG) for t in (0.2, 0.8, 1.6, 3.2)]
        assert all(v0 > v1 > 0.0 for v0, v1 in zip(vals, vals[1:]))

    def test_eta_zero_unsupported(self):
        with pytest.raises(DomainError):
            greens_linear_above(1.5, 2.0, 1.0, PlateConfig(a=1.0, b=0.0))


class TestLinearBackgroundBelow:
    CFG = PlateConfig.from_eta(5.0)

    def test_dirichlet_zero_at_plate(self):
        assert greens_linear_below(1.0, 0.4, 0.8, self.CFG) == 0.0
        assert greens_linear_below(0.4, 1.0, 0.8, self.CFG) == 0.0

    def test_symmetry_across_the_kink(self):
        # pairs straddling x=0 exercise the piecewise construction
        for x, xp in ((-0.5, 0.5), (-1.2, 0.9), (0.1, 0.7), (-2.0, -0.3)):
            assert greens_linear_below(x, xp, 0.8, self.CFG) == pytest.approx(
                greens_linear_below(xp, x, 0.8, self.CFG), rel=1e-12
            )

    def test_jump_normalization_both_sides_of_kink(self):
        g1 = lambda x: greens_linear_below(x, 0.4, 0.8, self.CFG)
        assert abs(jump_at(g1, 0.4) + 1.0) <= 1e-6
        g2 = lambda x: greens_linear_below(x, -0.6, 0.8, self.CFG)
        assert abs(jump_at(g2, -0.6) + 1.0) <= 1e-6

    def test_value_and_slope_continuity_at_kink(self):
        # the potential has a kink at x=0; the kernel must stay C^1 there
        g = lambda x: greens_linear_below(x, 0.6, 1.1, self.CFG)
        d = 1e-4
        left = (g(0.0) - g(-d)) / d
        right = (g(d) - g(0.0)) / d
        assert abs(g(d) - g(-d)) <= 1e-3
        assert abs(left - right) <= 1e-2 * max(1.0, abs(left))

    def test_decay_with_depth(self):
        vals = [greens_linear_below(-0.1 - t, -0.05, 0.8, self.CFG) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(v0 > v1 > 0.0 for v0, v1 in zip(vals, vals[1:]))

    def test_points_above_plate_rejected(self):
        with pytest.raises(DomainError):
            greens_linear_below(1.5, 0.5, 1.0, self.CFG)

    def test_slope_ratio_is_the_stress_kernels_below_side(self):
        # one copy of the below-side algebra, the stress kernel's
        for kappa in (0.0, 0.8, 3.0, 12.0):
            assert below_ratio_from_construction(kappa, self.CFG) == integrand_below(
                kappa, self.CFG.eta)
        with pytest.raises(DomainError, match="eta = 0 has no linear-background form"):
            below_ratio_from_construction(0.8, PlateConfig(a=1.0, b=0.0))

    def test_fd_oracle_spot(self):
        cfg = PlateConfig.from_eta(0.5)
        grid = oracle_ode.GridSpec(-9.0, 1.0, 10001)
        xp = 1.0 - 900 * grid.h
        xs, g = oracle_ode.solve_bvp_full(0.5, cfg, xp, grid)
        j = np.array([7500, 8500, 9200, 9600, 9900])
        worst = max(map(rel, g[j], greens_linear_below(xs[j], xp, 0.5, cfg)))
        assert worst <= 1e-5


class TestArrayFirst:
    """The linear constructors broadcast x and x'; a float pair is the 0-d case."""

    CFG = PlateConfig.from_eta(5.0)
    # both sides of the kink, at 0, and at the plate, each pair also swapped
    BELOW = [(-2.0, -0.3), (-0.5, 0.5), (0.0, 0.6), (-0.7, 0.0), (0.0, 0.0), (0.2, 0.9),
             (1.0, 0.4), (-1.5, 1.0), (1.0, 1.0)]
    ABOVE = [(1.0, 1.7), (1.2, 1.2), (1.05, 2.4), (3.0, 1.3), (1.0, 1.0)]

    @pytest.mark.parametrize("kappa", [0.0, 0.8, 7.0])
    @pytest.mark.parametrize("construct, pairs", [(greens_linear_below, BELOW),
                                                  (greens_linear_above, ABOVE)],
                             ids=["below", "above"])
    def test_array_equals_the_scalar_calls(self, construct, pairs, kappa):
        pairs = pairs + [(xp, x) for x, xp in pairs]
        x, xp = np.array(pairs).T
        got = construct(x, xp, kappa, self.CFG)
        want = [construct(a, b, kappa, self.CFG) for a, b in pairs]
        assert got.shape == x.shape
        assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in want]
        at_plate = [float(v).hex() for (a, b), v in zip(pairs, want) if self.CFG.a in (a, b)]
        assert at_plate and set(at_plate) == {"0x0.0p+0"}

    def test_broadcast_shape(self):
        x = np.linspace(-1.0, 0.9, 4)[:, None]
        xp = np.array([-0.2, 0.3, 0.95])
        got = greens_linear_below(x, xp, 0.8, self.CFG)
        assert got.shape == (4, 3)
        assert got[2, 1] == greens_linear_below(float(x[2, 0]), 0.3, 0.8, self.CFG)

    @pytest.mark.parametrize("call", [
        lambda cfg: greens_linear_above(np.array([1.0, 1.4, 2.0]), 1.5, 0.8, cfg),
        lambda cfg: greens_linear_below(np.array([-1.0, 0.0, 0.4]), 0.6, 0.8, cfg),
        lambda cfg: greens_linear_below(-0.3, 0.2, 0.8, cfg),
    ], ids=["above", "below", "below-scalar"])
    def test_one_airy_scaled_call_per_construction(self, monkeypatch, call):
        calls = []

        def counted(z):
            calls.append(np.array(z))
            return airy_engine.airy_scaled(z)

        def refuse(z):
            raise AssertionError("airy_eval called")

        monkeypatch.setattr(greens, "airy_scaled", counted)
        monkeypatch.setattr(airy_engine, "airy_eval", refuse)
        assert not hasattr(greens, "airy_eval")
        call(self.CFG)
        assert len(calls) == 1

    def test_large_arguments_stay_finite_and_symmetric(self):
        cfg = PlateConfig.from_eta(1.0)
        for g, x, xp in ((greens_linear_below, -30.0, -29.5), (greens_linear_below, -30.0, 0.5),
                         (greens_linear_above, cfg.a + 30.0, cfg.a + 29.5),
                         (greens_linear_above, cfg.a + 30.0, cfg.a + 1.0)):
            there, back = g(x, xp, 20.0, cfg), g(xp, x, 20.0, cfg)
            assert math.isfinite(there) and there > 0.0
            assert there == back
        near = greens_linear_below(-30.0, -29.5, 20.0, cfg)
        assert 0.0 < near < 1.0 / 40.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("construct, x, xp", [
        (greens_linear_above, 1e300, 2.0), (greens_linear_above, 5.65e102, 2.0),
        (greens_linear_below, -1e300, 0.2), (greens_linear_below, 0.2, -5.65e102),
    ])
    def test_points_past_the_largest_airy_argument_are_named(self, construct, x, xp):
        # y = kappa^2 + |x| eta^{1/3}/a at or over cbrt(max float) is refused;
        # 1e300 gave nan (above) and 0.0 (below), with overflow warnings
        cfg = PlateConfig(a=1.0, b=1.0)
        with pytest.raises(DomainError, match=re.escape(f"points x = {x!r}, x' = {xp!r}")):
            construct(x, xp, 1.0, cfg)
        near = (5.6e102, 2.0) if construct is greens_linear_above else (-5.6e102, 0.2)
        assert math.isfinite(construct(*near, 1.0, cfg))

    @pytest.mark.parametrize("construct", [greens_linear_above, greens_linear_below])
    @pytest.mark.parametrize("x, xp", [(math.nan, 0.5), (0.5, math.inf), ([0.5, math.nan], 0.7)])
    def test_non_finite_points_are_named(self, construct, x, xp):
        with pytest.raises(DomainError, match="points must be finite"):
            construct(x, xp, 1.0, self.CFG)
