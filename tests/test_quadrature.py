"""Adaptive Gauss-Kronrod layer: exactness, convergence, half-line mapping, determinism.

Integrands follow the array contract: a 1-D array of nodes in, as many values out.
"""

import math

import numpy as np
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
            {"kappa_max_policy": 1e101},
            {"kappa_max_policy": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestFiniteIntervals:
    def test_polynomial_exactness_single_panel(self):
        # Kronrod 15 integrates degree <= 22 exactly; the first step (one
        # panel per half) suffices
        r = integrate_finite(lambda x: 7.0 * x**6, 0.0, 1.0)
        assert r.value == pytest.approx(1.0, rel=1e-15)
        assert r.n_evals == 30

    def test_degenerate_interval(self):
        r = integrate_finite(np.sin, 2.0, 2.0)
        assert r.value == 0.0
        assert r.n_evals == 0

    def test_smooth_exponential(self):
        r = integrate_finite(np.exp, 0.0, 10.0)
        assert r.value == pytest.approx(math.expm1(10.0), rel=1e-12)
        assert r.converged

    def test_mild_endpoint_singularity(self):
        r = integrate_finite(np.sqrt, 0.0, 1.0)
        assert r.value == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert r.converged
        assert r.n_evals % 15 == 0

    def test_error_estimate_brackets_truth(self):
        r = integrate_finite(lambda x: np.cos(10.0 * x), 0.0, 3.0)
        truth = math.sin(30.0) / 10.0
        assert abs(r.value - truth) <= max(10.0 * r.err_est, 1e-13)

    def test_interval_too_narrow_for_nodes_rejected(self):
        with pytest.raises(DomainError, match="too narrow"):
            integrate_finite(np.exp, 1.0, 1.0 + 8.0 * math.ulp(1.0))

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(np.exp, 1.0, 0.0)

    def test_subdivision_budget_exhaustion(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
        r = integrate_finite(lambda x: np.abs(x - 1.0 / 3.0) ** 0.1, 0.0, 1.0, spec)
        assert not r.converged

    def test_determinism(self):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        r1 = integrate_finite(f, 0.0, 20.0)
        r2 = integrate_finite(f, 0.0, 20.0)
        assert r1.value == r2.value  # bit-identical
        assert r1.n_evals == r2.n_evals


class TestSemiInfinite:
    def test_exponential(self):
        r = integrate_semi_infinite(lambda x: np.exp(-x))
        assert r.value == pytest.approx(1.0, rel=1e-11)

    def test_lorentzian(self):
        r = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x))
        assert r.value == pytest.approx(math.pi / 2.0, rel=1e-11)

    def test_no_node_rounds_onto_the_mapped_endpoint(self):
        # a k^{-1.1} tail cannot meet rel_tol 1e-15: bisection runs into
        # panels at float resolution next to t = 1, where a node rounded onto
        # 1.0 would hand f kappa = inf and divide by (1 - t)^2 = 0
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        r = integrate_semi_infinite(lambda k: 1.0 / (1.0 + k * k) ** 0.55, spec)
        assert math.isfinite(r.value) and math.isfinite(r.err_est)
        assert not r.converged


class TestToleranceSurface:
    def test_loose_tolerance_uses_fewer_evaluations(self):
        f = lambda x: np.exp(-x * x)
        tight = integrate_finite(f, 0.0, 6.0, QuadratureSpec(rel_tol=1e-12))
        loose = integrate_finite(f, 0.0, 6.0, QuadratureSpec(rel_tol=1e-4))
        assert loose.n_evals <= tight.n_evals
        assert tight.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)

    def test_nonconvergence_is_reported_not_raised(self):
        # the quadrature reports converged=False; raising is the caller's call
        spec = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-300, max_subdivisions=2)
        r = integrate_finite(lambda x: 1.0 / np.sqrt(x + 1e-12), 0.0, 1.0, spec)
        assert not r.converged
        assert math.isfinite(r.value)


def _reference_gk15(f, lo, hi):
    """One GK15 panel the scalar way: f called per node, sums in the fixed order."""
    xgk = (
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    )
    wgk = (
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    )
    wg = (
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    )
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(c)
    resk = wgk[7] * fc
    resg = wg[3] * fc
    for j in range(7):
        dx = half * xgk[j]
        f1 = f(c - dx)
        f2 = f(c + dx)
        resk += wgk[j] * (f1 + f2)
        if j % 2 == 1:
            resg += wg[j // 2] * (f1 + f2)
    return resk * half, abs(resk - resg) * abs(half)


class TestArrayContract:
    def test_one_call_per_step(self):
        calls = []

        def counting(x):
            assert isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64
            assert (np.diff(x) > 0.0).all()  # ascending, no node repeated
            calls.append(x.size)
            return np.sqrt(x)

        r = integrate_finite(counting, 0.0, 1.0)
        splits = (r.n_evals - 30) // 30
        assert splits >= 3  # the endpoint singularity forces bisections
        assert calls == [30] * (1 + splits)

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: 1.0 / (1.0 + x * x), -3.0, 7.5),
            (math.exp, 0.0, 10.0),
            (math.sqrt, 1e-3, 2.0),
            (lambda x: math.cos(10.0 * x), 0.0, 3.0),
        ],
    )
    def test_panels_equal_scalar_reference(self, f, lo, hi):
        # the first step (both halves), then the two children of the worse
        # half: every panel must carry the scalar rule's bits exactly
        def vec(x):
            return [f(v) for v in x.tolist()]

        mid = 0.5 * (lo + hi)
        halves = [(lo, mid), (mid, hi)]
        ref = [_reference_gk15(f, a, b) for a, b in halves]
        one = integrate_finite(vec, lo, hi, QuadratureSpec(rel_tol=1e300))
        assert one.n_evals == 30
        assert one.value == math.fsum(v for v, _ in ref)
        assert one.err_est == math.fsum(e for _, e in ref)

        # the heap's order: larger estimate first, then the left endpoint
        worst = min(range(2), key=lambda i: (-ref[i][1], halves[i][0]))
        a, b = halves.pop(worst)
        halves += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
        ref = [_reference_gk15(f, a, b) for a, b in sorted(halves)]
        spec = QuadratureSpec(rel_tol=1e-300, abs_tol=1e-300, max_subdivisions=2)
        two = integrate_finite(vec, lo, hi, spec)
        assert two.n_evals == 60
        assert two.value == math.fsum(v for v, _ in ref)
        assert two.err_est == math.fsum(e for _, e in ref)

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            integrate_finite(lambda x: x[:-1], 0.0, 1.0)
