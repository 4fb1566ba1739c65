"""The verify table: every row holds, and the table itself is well formed."""

import dataclasses
import math

import pytest

from casimir_plate import cli, verify
from casimir_plate.errors import DomainError
from casimir_plate.greens import PlateConfig
from casimir_plate.stress_kernel import integrand_above, integrand_below


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


@pytest.mark.parametrize("side", ["left", "", "Above"])
def test_integrand_from_greens_rejects_unknown_side(side):
    with pytest.raises(DomainError, match="side must be 'above' or 'below'"):
        verify.integrand_from_greens(1.0, PlateConfig.from_eta(1.0), side)


@pytest.mark.parametrize("kappa", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("side, closed_form", [("above", integrand_above),
                                               ("below", integrand_below)])
def test_integrand_from_greens_at_small_eta(kappa, side, closed_form):
    # eps = 0.003/sqrt(q(a)) alone is 3 > a here: the sources crossed the kink
    # and the sides were 1.6e-4 (below) and 3.0e-6 (above) off
    got = verify.integrand_from_greens(kappa, PlateConfig.from_eta(1e-6), side)
    assert abs(got / closed_form(kappa, 1e-6) - 1.0) <= 1e-8


def test_cli_classic_exit_reads_the_table_row(monkeypatch, capsys):
    # rel_diff is 2.1e-16 at a = 1: it passes the row's bound, not a zero one
    assert cli.main(["classic", "--a", "1"]) == 0
    rows = tuple(dataclasses.replace(c, threshold=0.0) if c.name == "classic_two_plate_value"
                 else c for c in verify.CHECKS)
    monkeypatch.setattr(verify, "CHECKS", rows)
    assert cli.main(["classic", "--a", "1"]) == 1
