"""Command-line surface: argument handling, exit codes, file outputs, determinism."""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

from casimir_plate import cli

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "docs" / "schema"
FORCE_SCHEMA = json.loads((SCHEMA_DIR / "force_result.schema.json").read_text())
VERIFY_SCHEMA = json.loads((SCHEMA_DIR / "verify_report.schema.json").read_text())

CSV_HEADER = "eta,f_eta,err_est,kappa_max,n_evals"


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestExact:
    def test_json_output_conforms_to_schema(self, capsys):
        rc, out = run_cli(["exact", "--eta", "1", "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        jsonschema.validate(doc, FORCE_SCHEMA)
        assert doc["eta"] == 1.0
        assert doc["f_eta"] > 0.0
        assert "t_xx" not in doc

    def test_geometry_route_adds_stress(self, capsys):
        rc, out = run_cli(["exact", "--a", "2", "--b", "0.125", "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        jsonschema.validate(doc, FORCE_SCHEMA)
        assert doc["eta"] == 1.0
        assert doc["t_xx"] == pytest.approx(doc["f_eta"] / 4.0, rel=1e-15)

    def test_text_mode_mentions_value(self, capsys):
        rc, out = run_cli(["exact", "--eta", "1"], capsys)
        assert rc == 0
        assert "f(eta)" in out or "f_eta" in out

    def test_eta_and_geometry_are_exclusive(self, capsys):
        rc, _ = run_cli(["exact", "--eta", "1", "--a", "1", "--b", "1"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("a", ["1e-110", "1e110"])
    def test_height_whose_cube_leaves_the_float_range_is_usage_error(self, capsys, a):
        rc = cli.main(["exact", "--a", a, "--b", "1", "--json"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"plate height a = {float(a)!r}" in captured.err

    def test_one_of_eta_or_geometry_required(self, capsys):
        rc, _ = run_cli(["exact"], capsys)
        assert rc == 2

    def test_negative_eta_is_usage_error(self, capsys):
        rc, _ = run_cli(["exact", "--eta", "-1"], capsys)
        assert rc == 2


class TestClassic:
    def test_reference_value(self, capsys):
        rc, out = run_cli(["classic", "--a", "1"], capsys)
        assert rc == 0
        assert f"{-math.pi / 24.0:.10f}"[:8] in out

    def test_zero_separation_rejected(self, capsys):
        rc, _ = run_cli(["classic", "--a", "0"], capsys)
        assert rc == 2


class TestCurve:
    ARGS = ["--eta-min", "0.1", "--eta-max", "10", "--points", "5", "--rel-tol", "1e-6"]

    def test_csv_layout(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc, _ = run_cli(["curve", *self.ARGS, "--out", str(out)], capsys)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        etas = [float(l.split(",")[0]) for l in lines[1:]]
        assert etas == sorted(etas)
        assert etas[0] == pytest.approx(0.1) and etas[-1] == pytest.approx(10.0)
        # every row parses into the five typed fields
        for line in lines[1:]:
            eta, f, err, kmax, n = line.split(",")
            assert float(f) > 0.0 and float(err) >= 0.0 and int(n) > 0

    def test_byte_identical_across_parallelism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rc1, _ = run_cli(["curve", *self.ARGS, "--out", str(a), "--jobs", "1"], capsys)
        rc2, _ = run_cli(["curve", *self.ARGS, "--out", str(b), "--jobs", "3"], capsys)
        assert rc1 == rc2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cache_round_trip_is_bit_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        cache = tmp_path / "cache.json"
        rc1, _ = run_cli(["curve", *self.ARGS, "--out", str(out1), "--cache", str(cache)], capsys)
        assert rc1 == 0
        assert cache.exists()
        rc2, _ = run_cli(["curve", *self.ARGS, "--out", str(out2), "--cache", str(cache)], capsys)
        assert rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cache_keys_include_tolerances(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        out = tmp_path / "c.csv"
        run_cli(["curve", *self.ARGS, "--out", str(out), "--cache", str(cache)], capsys)
        keys = list(json.loads(cache.read_text()))
        assert all("rel=1e-06" in k for k in keys)

    def test_rows_cached_by_an_older_kernel_are_recomputed(self, tmp_path, capsys):
        # cache files written before the fingerprint named the kernel, by
        # the kernel whose first quadrature step was the whole interval
        # (every n_evals 15 higher), and by the one whose values below
        # Z_SWITCH came from airye at every argument
        from casimir_plate.cli import _curve_grid

        fresh = tmp_path / "fresh.csv"
        assert run_cli(["curve", *self.ARGS, "--out", str(fresh)], capsys)[0] == 0
        stale = {"eta": 0.0, "f_eta": 9.0, "err_est": 9.0, "kappa_max": 9.0, "n_evals": 9}
        for old_fp in ("rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split;rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split+halves;rel=1e-06;abs=1e-14;sub=2000;kmax=None"):
            cache, out = tmp_path / "cache.json", tmp_path / "c.csv"
            cache.write_text(json.dumps({f"{eta!r}|{old_fp}": stale
                                         for eta in _curve_grid(0.1, 10.0, 5, "log")}))
            rc, text = run_cli(["curve", *self.ARGS, "--out", str(out), "--cache", str(cache)], capsys)
            assert rc == 0
            assert "(5 computed, 0 cached)" in text, old_fp
            assert out.read_bytes() == fresh.read_bytes()

    def test_jobs_has_no_effect_and_starts_no_pool(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("curve started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["curve", *self.ARGS, "--out", str(a), "--jobs", "1"], capsys)[0] == 0
        assert run_cli(["curve", *self.ARGS, "--out", str(b), "--jobs", "64"], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        rc, _ = run_cli(["curve", *self.ARGS, "--out", str(tmp_path / "c.csv"), "--jobs", jobs], capsys)
        assert rc == 2

    def test_corrupt_cache_is_usage_error(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        rc, _ = run_cli(["curve", *self.ARGS, "--out", str(tmp_path / "c.csv"), "--cache", str(cache)], capsys)
        assert rc == 2

    def test_spacing_validation(self, tmp_path, capsys):
        rc, _ = run_cli(
            ["curve", "--eta-min", "1", "--eta-max", "2", "--points", "1", "--out", str(tmp_path / "c.csv")],
            capsys,
        )
        assert rc == 2

    def test_linear_spacing(self, tmp_path, capsys):
        out = tmp_path / "lin.csv"
        rc, _ = run_cli(
            ["curve", "--eta-min", "1", "--eta-max", "3", "--points", "3",
             "--spacing", "lin", "--out", str(out), "--rel-tol", "1e-6"],
            capsys,
        )
        assert rc == 0
        etas = [float(l.split(",")[0]) for l in out.read_text().splitlines()[1:]]
        assert etas == pytest.approx([1.0, 2.0, 3.0])


class TestImportFootprint:
    @staticmethod
    def fresh_stdout(code):
        """stdout of code run in a fresh interpreter that imports this package."""
        pkg_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_loads_no_oracle_scipy(self):
        code = (
            "import sys, casimir_plate.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg') if m in sys.modules))"
        )
        assert self.fresh_stdout(code) == "[]"

    def test_package_import_builds_no_ode_trajectory(self):
        # the ODE oracle integrates its trajectories on first use, not at import
        code = (
            "import casimir_plate, casimir_plate.cli; "
            "print(casimir_plate.airy_engine._trajectories.cache_info().currsize)"
        )
        assert self.fresh_stdout(code) == "0"


class TestPerturb:
    def test_prints_both_cutoffs_and_reference_step(self, capsys):
        rc, out = run_cli(["perturb", "--a", "1", "--b", "1", "--k-min", "1e-2"], capsys)
        assert rc == 0
        assert "0.005" in out or "5e-03" in out  # the halved cutoff appears
        assert "ln" in out or "0.1103" in out  # the (1/2pi) ln 2 reference

    def test_invalid_cutoff(self, capsys):
        rc, _ = run_cli(["perturb", "--a", "1", "--b", "1", "--k-min", "0"], capsys)
        assert rc == 2


class TestVerify:
    def test_json_report_conforms_to_schema(self, capsys):
        rc, out = run_cli(["verify", "--suite", "airy", "--json"], capsys)
        assert rc == 0
        rep = json.loads(out)
        jsonschema.validate(rep, VERIFY_SCHEMA)
        assert rep["suite"] == "airy"
        assert rep["all_passed"] is True
        assert len(rep["checks"]) >= 5

    def test_text_mode_lists_every_check(self, capsys):
        rc, out = run_cli(["verify", "--suite", "greens"], capsys)
        assert rc == 0
        assert out.count("[PASS]") >= 5
        assert "[FAIL]" not in out

    def test_unknown_suite(self, capsys):
        rc, _ = run_cli(["verify", "--suite", "nonsense"], capsys)
        assert rc == 2

    def test_ode_oracle_check_spans_the_switch(self, monkeypatch):
        # the oracle's whole range, so the series branch is checked too
        from casimir_plate import airy_engine, verify

        zs = []
        real = airy_engine.airy_via_ode_oracle
        monkeypatch.setattr(airy_engine, "airy_via_ode_oracle", lambda z: zs.append(z) or real(z))
        check = next(c for c in verify.suite_airy() if c.name == "eval_vs_ode_oracle")
        assert check.passed
        assert min(zs) == 0.0 and max(zs) == 50.0
        assert sum(z > airy_engine.Z_SWITCH for z in zs) >= 10


class TestPlot:
    @pytest.fixture()
    def curve_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc, _ = run_cli(
            ["curve", "--eta-min", "0.1", "--eta-max", "10", "--points", "7",
             "--rel-tol", "1e-6", "--out", str(out)],
            capsys,
        )
        assert rc == 0
        return out

    def test_svg_structure(self, tmp_path, curve_csv, capsys):
        svg = tmp_path / "f.svg"
        rc, _ = run_cli(["plot", "--input", str(curve_csv), "--output", str(svg), "--log-x"], capsys)
        assert rc == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1
        pts = polylines[0].attrib["points"].split()
        assert len(pts) == 7

    def test_deterministic_bytes(self, tmp_path, curve_csv, capsys):
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(["plot", "--input", str(curve_csv), "--output", str(s1)], capsys)
        run_cli(["plot", "--input", str(curve_csv), "--output", str(s2)], capsys)
        assert s1.read_bytes() == s2.read_bytes()

    def test_missing_input(self, tmp_path, capsys):
        rc, _ = run_cli(["plot", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "x.svg")], capsys)
        assert rc == 2

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        rc, _ = run_cli(["plot", "--input", str(bad), "--output", str(tmp_path / "x.svg")], capsys)
        assert rc == 2


class TestEnvironmentOverrides:
    def test_env_tolerance_is_honored(self, tmp_path, capsys, monkeypatch):
        out_env = tmp_path / "env.csv"
        out_flag = tmp_path / "flag.csv"
        monkeypatch.setenv("CASIMIR_REL_TOL", "1e-6")
        rc, _ = run_cli(["curve", "--eta-min", "0.5", "--eta-max", "2", "--points", "2", "--out", str(out_env)], capsys)
        assert rc == 0
        monkeypatch.delenv("CASIMIR_REL_TOL")
        rc, _ = run_cli(
            ["curve", "--eta-min", "0.5", "--eta-max", "2", "--points", "2",
             "--rel-tol", "1e-6", "--out", str(out_flag)],
            capsys,
        )
        assert rc == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_REL_TOL", "1e-3")
        rc, out = run_cli(["exact", "--eta", "1", "--rel-tol", "1e-9", "--json"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["err_est"] <= 1e-9 * doc["f_eta"]

    def test_invalid_env_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_REL_TOL", "banana")
        rc, _ = run_cli(["exact", "--eta", "1"], capsys)
        assert rc == 2

    def test_env_kappa_max(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_KAPPA_MAX", "25")
        rc, out = run_cli(["exact", "--eta", "1", "--json"], capsys)
        assert rc == 0
        assert json.loads(out)["kappa_max"] == 25.0


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("casimir-plate") is None,
                        reason="casimir-plate console script not installed")
    def test_installed_entry_point(self):
        exe = shutil.which("casimir-plate")
        proc = subprocess.run([exe, "classic", "--a", "1"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "-0.1308996" in proc.stdout

    def test_declared_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["casimir-plate"]
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr))
        # run it the way the installed wrapper does: sys.exit(main()), argv from sys.argv
        code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        pkg_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, "classic", "--a", "1"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "-0.1308996" in proc.stdout
