"""Quadrature: nested Clenshaw-Curtis on finite intervals, the nested exp-sinh rule on the half line.

Integrands follow the array contract: a 1-D array of nodes in, as many values out.
"""

import math

import numpy as np
import pytest

from casimir_plate import quadrature
from casimir_plate.errors import DomainError
from casimir_plate.quadrature import integrate_finite, integrate_semi_infinite


class TestFiniteIntervals:
    def test_polynomial_exactness_first_levels(self):
        # the 8- and 16-interval levels integrate degree <= 9 exactly; the
        # second level's difference from the first meets the tolerance
        r = integrate_finite(lambda x: 7.0 * x**6, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, rel=1e-15)
        assert r.converged and r.n_evals == 17

    def test_degenerate_interval(self):
        r = integrate_finite(np.sin, 2.0, 2.0)
        assert r.value == 0.0
        assert r.n_evals == 0

    def test_smooth_exponential(self):
        r = integrate_finite(np.exp, 0.0, 10.0)
        assert r.value == pytest.approx(math.expm1(10.0), rel=1e-12)
        assert r.converged

    def test_mild_endpoint_singularity(self):
        # sqrt(x) = sin(theta/2) on the nodes: the rule converges like n^-3,
        # not geometrically, and at 1e-9 says so rather than pretend (err_est
        # 7.1e-10 at 1024 intervals, the error 1.0e-10); 1e-6 it meets
        r = integrate_finite(np.sqrt, 0.0, 1.0)
        assert abs(r.value - 2.0 / 3.0) <= r.err_est
        assert not r.converged and r.n_evals == quadrature._CC_MAX + 1
        r = integrate_finite(np.sqrt, 0.0, 1.0, 1e-6)
        assert r.converged and abs(r.value - 2.0 / 3.0) <= r.err_est <= 1e-6

    def test_error_estimate_brackets_truth(self):
        r = integrate_finite(lambda x: np.cos(10.0 * x), 0.0, 3.0)
        truth = math.sin(30.0) / 10.0
        assert abs(r.value - truth) <= max(10.0 * r.err_est, 1e-13)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(np.exp, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                        (-1e308, 1e308)])
    def test_infinite_or_overflowing_bounds_rejected(self, lo, hi):
        with pytest.raises(DomainError, match="bad interval"):
            integrate_finite(np.exp, lo, hi)

    def test_cap_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_CC_MAX", 16)
        r = integrate_finite(lambda x: np.abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0, 1e-15)
        assert not r.converged and r.n_evals == 17

    def test_determinism(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        r1 = integrate_finite(f, 0.0, 20.0)
        r2 = integrate_finite(f, 0.0, 20.0)
        assert r1.value == r2.value  # bit-identical
        assert r1.n_evals == r2.n_evals

    @pytest.mark.parametrize("integrate", [lambda f: integrate_finite(f, 0.5, 1.0),
                                           integrate_semi_infinite], ids=["finite", "half_line"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_named(self, bad, integrate):
        # every node is evaluated, the finite rule's ends included, so a
        # value that is not finite is refused at its node rather than summed;
        # x = 1 is an end of [0.5, 1] and the half line's node e^{pi sinh 0}
        def f(x):
            y = np.exp(-x)
            y[x == 1.0] = bad
            return y

        with pytest.raises(DomainError, match=f"integrand is {bad!r} at the node x=1.0$"):
            integrate(f)


class TestClenshawCurtis:
    # the nested rule integrate_finite runs, on t in [0, 1]
    LEVELS = [8 * 2**k for k in range(8)]  # 8 ... 1024 intervals

    def test_levels_nest_bit_for_bit(self):
        assert (self.LEVELS[0], self.LEVELS[-1]) == (quadrature._CC_FIRST, quadrature._CC_MAX)
        for n in self.LEVELS[:-1]:
            coarse, fine = quadrature._cc_level(n)[0], quadrature._cc_level(2 * n)[0]
            assert coarse.tobytes() == fine[::2].tobytes(), n

    @pytest.mark.parametrize("n", LEVELS)
    def test_weights_integrate_polynomials(self, n):
        t, w = quadrature._cc_level(n)
        assert (t[0], t[-1]) == (0.0, 1.0) and (w > 0.0).all()
        assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-15
        for k in range(1, n + 1):
            assert abs(math.fsum((w * t**k).tolist()) - 1.0 / (k + 1)) <= 1e-15, (n, k)

    def test_each_call_evaluates_what_the_level_adds(self):
        # |x - 1/3| has a kink: no level meets 1e-15, so all eight are
        # evaluated; the first call takes every node of the first level,
        # both ends included, each later one the nodes between the last's
        calls = []

        def kink(x):
            assert isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64
            calls.append(x.tolist())
            return np.abs(x - 1.0 / 3.0)

        lo, hi = -1.0, 2.0
        r = integrate_finite(kink, lo, hi, 1e-15)
        assert [len(c) for c in calls] == [9] + self.LEVELS[:-1]
        assert r.n_evals == sum(map(len, calls)) == 1025 and not r.converged
        level = calls[0]
        assert level == (lo + 3.0 * quadrature._cc_level(8)[0]).tolist() and level[0] == lo
        for new in calls[1:]:
            merged = sorted(level + new)
            assert len(set(merged)) == len(merged) and new == merged[1::2]
            level = merged

    def test_zero_integral_of_nonzero_samples_never_converges(self):
        # no absolute floor: over one period of sin both the level
        # difference and the value are rounding, and the one never meets
        # rel_tol times the other
        r = integrate_finite(np.sin, 0.0, 2.0 * math.pi)
        assert not r.converged and r.n_evals == quadrature._CC_MAX + 1
        assert abs(r.value) < 1e-14

    def test_value_is_the_levels_fsum(self):
        # on [0, 1] the nodes are the level's own and the value its
        # weighted fsum, bit for bit, and err_est the difference of two
        n = 16
        r = integrate_finite(np.exp, 0.0, 1.0, 1e-6)
        assert r.converged and r.n_evals == n + 1
        levels = [math.fsum((w * np.exp(t)).tolist()) for t, w in map(quadrature._cc_level, (8, n))]
        assert (r.value, r.err_est) == (levels[1], abs(levels[1] - levels[0]))


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda x: np.exp(-x))
        assert r.value == pytest.approx(1.0, rel=1e-11)

    def test_lorentzian(self):
        r = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x))
        assert r.value == pytest.approx(math.pi / 2.0, rel=1e-11)

    def test_no_node_rounds_onto_the_mapped_endpoint(self):
        # |sin k| cannot meet rel_tol 1e-15: every level is tried, and f
        # never sees kappa = inf or 0, whose weight would be 0 * inf
        seen = []

        def kinks(k):
            seen.extend(k.tolist())
            return np.abs(np.sin(k)) / (1.0 + k * k)

        r = integrate_semi_infinite(kinks, 1e-15)
        assert len(seen) == r.n_evals == 819
        assert 0.0 < min(seen) and max(seen) < math.inf
        assert math.isfinite(r.value) and math.isfinite(r.err_est)
        assert not r.converged

    def test_edge_term_reports_a_cut_off_window(self):
        # the window ends at kappa = 4.3e16, where a k^{-1.1} tail still
        # holds 0.2 of 10.68; the edge term, not the level difference, says
        # so, and no level is refined past the first
        r = integrate_semi_infinite(lambda k: 1.0 / (1.0 + k * k) ** 0.55)
        assert not r.converged and r.n_evals == 103
        assert r.edge > r.err_est - r.edge > 0.0
        assert r.edge > 1e-9 * r.value

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-2, 5e-2])
    def test_edge_term_bounds_what_the_window_cuts_off(self, rel_tol):
        # the cut-off tail does not shrink with h, and neither may its
        # estimate: err_est holds the true error at any tolerance it meets
        exact = math.sqrt(math.pi) * math.gamma(0.05) / (2.0 * math.gamma(0.55))
        r = integrate_semi_infinite(lambda k: 1.0 / (1.0 + k * k) ** 0.55, rel_tol)
        assert abs(r.value - exact) <= r.err_est
        assert r.converged == (rel_tol == 5e-2)

    def test_tail_is_infinite_where_the_terms_do_not_decay(self):
        # 1/k on the half line diverges at both ends
        r = integrate_semi_infinite(lambda k: 1.0 / k)
        assert r.edge == r.err_est == math.inf and not r.converged
        assert r.n_evals == 103

    def test_levels_are_nested_and_no_node_is_evaluated_twice(self):
        # |sin k| has a kink at every multiple of pi: no level meets 1e-9,
        # so all four are evaluated, each adding the midpoints of the last
        calls = []

        def kinks(k):
            calls.append(k.tolist())
            return np.abs(np.sin(k)) / (1.0 + k * k)

        r = integrate_semi_infinite(kinks)
        assert [len(c) for c in calls] == [103, 102, 204, 410]
        assert r.n_evals == 819 and not r.converged
        level = calls[0]
        for new in calls[1:]:
            # the new nodes alternate with the old ones (at h = 1/128 the
            # window gains s = +-409/128, one node past each end)
            merged = sorted(level + new)
            assert len(set(merged)) == len(merged)
            assert new in (merged[1::2], merged[::2])
            level = merged

    def test_results_are_python_floats(self):
        r = integrate_semi_infinite(lambda k: np.exp(-k))
        assert type(r.value) is float and type(r.err_est) is float and type(r.edge) is float
        assert r.value == pytest.approx(1.0, rel=1e-13)


class TestToleranceSurface:
    def test_loose_tolerance_uses_fewer_evaluations(self):
        f = lambda x: np.exp(-x * x)
        tight = integrate_finite(f, 0.0, 6.0, 1e-12)
        loose = integrate_finite(f, 0.0, 6.0, 1e-4)
        assert loose.n_evals <= tight.n_evals
        assert tight.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        # the quadrature reports converged=False; raising is the caller's call
        monkeypatch.setattr(quadrature, "_CC_MAX", 16)
        r = integrate_finite(lambda x: 1.0 / np.sqrt(x + 1e-12), 0.0, 1.0, 1e-16)
        assert not r.converged
        assert math.isfinite(r.value)


class TestArrayContract:
    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: x[:-1], 0.0, 1.0)
