"""The verify table: every row holds, and the table itself is well formed."""

import math

import pytest

from casimir_plate import airy_engine, greens, oracle_ode, stress_kernel, verify
from casimir_plate.errors import DomainError


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.name)
def test_check_holds(check):
    r = check.run()
    assert r.passed, f"{check.name}: measured {r.measured!r} > threshold {check.threshold!r}"


def test_table_integrity():
    names = [c.name for c in verify.CHECKS]
    assert len(set(names)) == len(names)
    assert all(math.isfinite(c.threshold) and c.threshold >= 0.0 for c in verify.CHECKS)
    assert {c.suite for c in verify.CHECKS} == set(verify.SUITES)
    for name, suite in verify.SUITES.items():
        assert any(c.suite == name for c in verify.CHECKS), name
        assert suite is getattr(verify, f"suite_{name}")


def test_run_reads_the_table_in_order():
    assert [r.name for r in verify.run("all")] == [c.name for c in verify.CHECKS]


def test_unknown_suite_names_the_choices():
    with pytest.raises(DomainError, match="choose from airy/greens/stress/all"):
        verify.run("nonsense")


def test_thresholds_sit_near_their_measurements():
    # a bound far above its row's value cannot catch a regression of that
    # size; rows measuring 0 are exempt, and a count's bound is 0 anyway
    for c, r in zip(verify.CHECKS, verify.run("all")):
        if r.measured:
            assert c.threshold <= 100.0 * r.measured, (c.name, r.measured, c.threshold)


def _row(name):
    return next(c for c in verify.CHECKS if c.name == name).run()


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("eta_max", [math.inf, 1e-3], ids=["all_eta", "small_eta"])
def test_stress_sides_row_catches_a_wrong_side(monkeypatch, side, eta_max):
    # a 1e-8 error in one side, everywhere or only below eta = 1e-3 (where
    # the old eps probe was 1.6e-4 off), takes the row over its 1e-9 bound
    name = f"integrand_{side}"
    true = getattr(stress_kernel, name)
    monkeypatch.setattr(stress_kernel, name,
                        lambda k, eta: true(k, eta) * (1.0 + 1e-8 * (eta < eta_max)))
    r = _row("stress_sides_from_fd")
    assert not r.passed and r.measured == pytest.approx(1e-8, rel=0.05)


@pytest.mark.parametrize("side", ["above", "below"])
def test_fd_oracle_spots_catch_a_wrong_green(monkeypatch, side):
    # the closed-form G of either side, 1e-8 off, fails the two-sided G row
    name = f"greens_linear_{side}"
    true = getattr(greens, name)
    monkeypatch.setattr(greens, name, lambda *args: true(*args) * (1.0 + 1e-8))
    r = _row("fd_oracle_spots")
    assert not r.passed and r.measured == pytest.approx(1e-8, rel=0.05)


def test_perturbative_row_catches_a_wrong_net(monkeypatch):
    # net 1e-8 off fails the row, down to K a = 5e-5, where part_b - part_a
    # cancels by four orders of magnitude
    true = stress_kernel.perturbative_integrands

    def spoiled(K, a, b):
        below, above, net = true(K, a, b)
        return below, above, net * (1.0 + 1e-8)

    monkeypatch.setattr(stress_kernel, "perturbative_integrands", spoiled)
    r = _row("perturbative_identity")
    assert not r.passed and 1e-9 < r.measured <= 1e-8


def test_crossover_row_catches_a_net_5e11_off(monkeypatch):
    # the closed-form net 5e-11 off, against FD samples 1.2e-12 from it,
    # takes the row over its 1e-11 bound
    true = stress_kernel.integrand_net
    monkeypatch.setattr(stress_kernel, "integrand_net",
                        lambda k, eta: true(k, eta) * (1.0 + 5e-11))
    r = _row("fd_net_at_kernel_crossovers")
    assert not r.passed and r.measured == pytest.approx(5e-11, rel=0.05)


@pytest.mark.parametrize("module, name", [(stress_kernel, "_net_above"), (oracle_ode, "_net_fd")],
                         ids=["closed_form", "fd"])
def test_two_routes_row_catches_a_net_1e10_off(monkeypatch, module, name):
    # either route's net integrand 1e-10 off moves its force by as much,
    # against routes 9.8e-13 apart, and takes the row over its 5e-11 bound
    assert _row("force_two_routes").passed
    true = getattr(module, name)

    def spoiled(*args):
        net, other = true(*args)
        return net * (1.0 + 1e-10), other

    monkeypatch.setattr(module, name, spoiled)
    r = _row("force_two_routes")
    assert not r.passed and r.measured == pytest.approx(1e-10, rel=0.05)


def test_library_row_catches_a_spoiled_evaluator(monkeypatch):
    # scaled Airy values 1e-12 off, on every branch, fail the airye row
    true = airy_engine.airy_scaled
    monkeypatch.setattr(airy_engine, "airy_scaled", lambda z: true(z) * (1.0 + 1e-12))
    r = _row("eval_vs_library")
    assert not r.passed and r.measured == pytest.approx(1e-12, rel=0.1)


def test_no_row_calls_a_name_kept_only_for_the_benchmark(monkeypatch):
    # these keep their names for perfbench's tracer; every row answers without them
    for module, name in ((airy_engine, "airy_via_ode_oracle"), (airy_engine, "airy_eval"),
                         (airy_engine, "log_deriv_ai"), (airy_engine, "log_deriv_bi"),
                         (stress_kernel, "tail_mismatch"),
                         (greens, "below_ratio_from_construction")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    assert all(r.passed for r in verify.run("all"))


def test_classic_row_catches_a_force_1e12_off(monkeypatch):
    true = stress_kernel.force_classic
    monkeypatch.setattr(stress_kernel, "force_classic", lambda *args: true(*args) * (1.0 + 1e-12))
    r = _row("classic_two_plate_value")
    assert not r.passed and r.measured == pytest.approx(1e-12, rel=0.01)
