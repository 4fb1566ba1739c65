"""Adaptive Gauss-Kronrod layer: exactness, convergence, half-line mapping, determinism."""

import math

import pytest

from casimir_plate.errors import DomainError, ToleranceError
from casimir_plate.quadrature import (
    QuadratureSpec,
    integrate_finite,
    integrate_semi_infinite,
)


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-9
        assert spec.abs_tol == 1e-14
        assert spec.max_subdivisions == 2000
        assert spec.kappa_max_policy is None

    def test_fingerprint_is_stable_and_sensitive(self):
        a = QuadratureSpec()
        b = QuadratureSpec()
        assert a.fingerprint() == b.fingerprint()
        c = QuadratureSpec(rel_tol=1e-6)
        assert c.fingerprint() != a.fingerprint()
        d = QuadratureSpec(kappa_max_policy=25.0)
        assert "25" in d.fingerprint()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": -1.0},
            {"rel_tol": 0.0},
            {"abs_tol": -1e-3},
            {"max_subdivisions": 0},
            {"kappa_max_policy": -5.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestFiniteIntervals:
    def test_polynomial_exactness_single_panel(self):
        # Kronrod 15 integrates degree <= 22 exactly; one panel suffices
        r = integrate_finite(lambda x: 7.0 * x**6, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, rel=1e-15)
        assert r.n_evals == 15

    def test_degenerate_interval(self):
        r = integrate_finite(math.sin, 2.0, 2.0)
        assert r.value == 0.0
        assert r.n_evals == 0

    def test_smooth_exponential(self):
        r = integrate_finite(math.exp, 0.0, 10.0)
        assert r.value == pytest.approx(math.expm1(10.0), rel=1e-12)
        assert r.converged

    def test_mild_endpoint_singularity(self):
        r = integrate_finite(math.sqrt, 0.0, 1.0)
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert r.converged
        assert r.n_evals % 15 == 0

    def test_error_estimate_brackets_truth(self):
        r = integrate_finite(lambda x: math.cos(10.0 * x), 0.0, 3.0)
        truth = math.sin(30.0) / 10.0
        assert abs(r.value - truth) <= max(10.0 * r.err_est, 1e-13)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(math.exp, 1.0, 0.0)

    def test_subdivision_budget_exhaustion(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
        r = integrate_finite(lambda x: abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0, spec)
        assert not r.converged

    def test_determinism(self):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        r1 = integrate_finite(f, 0.0, 20.0)
        r2 = integrate_finite(f, 0.0, 20.0)
        assert r1.value == r2.value  # bit-identical
        assert r1.n_evals == r2.n_evals


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda x: math.exp(-x))
        assert r.value == pytest.approx(1.0, rel=1e-11)

    def test_lorentzian(self):
        r = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x))
        assert r.value == pytest.approx(math.pi / 2.0, rel=1e-11)


class TestToleranceSurface:
    def test_loose_tolerance_uses_fewer_evaluations(self):
        f = lambda x: math.exp(-x * x)
        tight = integrate_finite(f, 0.0, 6.0, QuadratureSpec(rel_tol=1e-12))
        loose = integrate_finite(f, 0.0, 6.0, QuadratureSpec(rel_tol=1e-4))
        assert loose.n_evals <= tight.n_evals
        assert tight.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_nonconvergence_is_reported_not_raised(self):
        # the quadrature reports converged=False; raising is the caller's call
        spec = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-300, max_subdivisions=2)
        r = integrate_finite(lambda x: 1.0 / math.sqrt(x + 1e-12), 0.0, 1.0, spec)
        assert not r.converged
        assert math.isfinite(r.value)
