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

from casimir_plate import cli, stress_kernel

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

    @pytest.mark.parametrize("command", [["exact", "--eta", "1"], ["exact", "--eta", "0"],
                                         ["curve", "--eta-min", "1", "--eta-max", "2",
                                          "--points", "2", "--out", "c.csv"]])
    def test_pinned_scale_beyond_the_kernel_bound_is_usage_error(self, command, capsys,
                                                                  tmp_path, monkeypatch):
        # refused by force_exact, at eta = 0 too, where nothing is integrated
        monkeypatch.chdir(tmp_path)
        assert cli.main(command + ["--kappa-max", "1e35"]) == 2
        err = capsys.readouterr().err
        assert "with k0=1e+35 is out of range" in err and "Traceback" not in err
        assert not (tmp_path / "c.csv").exists()


class TestClassic:
    def test_reference_value(self, capsys):
        rc, out = run_cli(["classic", "--a", "1"], capsys)
        assert rc == 0
        assert f"{-math.pi / 24.0:.10f}"[:8] in out

    def test_zero_separation_rejected(self, capsys):
        rc, _ = run_cli(["classic", "--a", "0"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("off, rc", [(1e-7, 1), (1e-9, 0)])
    def test_exit_code_is_the_cli_bound(self, off, rc, capsys, monkeypatch):
        # classic decides its exit code from its own bound, 1e-8, and loads no verify row
        true = cli.force_classic
        monkeypatch.setattr(cli, "force_classic", lambda *args: true(*args) * (1.0 + off))
        assert run_cli(["classic", "--a", "1"], capsys)[0] == rc

    @pytest.mark.parametrize("a", ["1e-300", "1e160"])
    def test_separation_whose_force_is_not_a_normal_float_is_a_usage_error(self, a, capsys):
        assert cli.main(["classic", "--a", a]) == 2
        err = capsys.readouterr().err
        assert " a must be in [" in err and f"got {float(a)!r}" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name",
    [(["classic", "--a", "-1"], "a"), (["perturb", "--a", "1", "--b", "-1", "--k-min", "1"], "b"),
     (["classic", "--a", "0", "--rel-tol", "0"], "rel_tol")],  # the tolerance is checked first
)
def test_library_refusal_is_a_usage_error_naming_the_parameter(argv, name, capsys):
    assert cli.main(argv) == 2
    assert f" {name} must be finite" in capsys.readouterr().err


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
        # (every n_evals 15 higher), by the one whose values below Z_SWITCH
        # came from airye at every argument, by the Taylor table seeded by
        # airye, by adaptive Gauss-Kronrod on the half line, and by the
        # exp-sinh rule that stopped on an absolute floor
        from casimir_plate.cli import _curve_grid

        fresh = tmp_path / "fresh.csv"
        assert run_cli(["curve", *self.ARGS, "--out", str(fresh)], capsys)[0] == 0
        stale = {"eta": 0.0, "f_eta": 9.0, "err_est": 9.0, "kappa_max": 9.0, "n_evals": 9}
        for old_fp in ("rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split;rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split+halves;rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split+halves+taylor;rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split+halves+taylor-march;rel=1e-06;abs=1e-14;sub=2000;kmax=None",
                       "kernel=wronskian-split+exp-sinh-tails+taylor-march;rel=1e-06;abs=1e-14;kmax=None"):
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

    @pytest.mark.parametrize("content, message", [
        (b"{not json", "is not valid JSON"),
        (b"\xff\xfe{}", "is not UTF-8 text"),
    ], ids=["json", "utf8"])
    def test_corrupt_cache_is_usage_error(self, tmp_path, capsys, content, message):
        cache = tmp_path / "cache.json"
        cache.write_bytes(content)
        rc = cli.main(["curve", *self.ARGS, "--out", str(tmp_path / "c.csv"), "--cache", str(cache)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and "Traceback" not in err
        assert f"cache file {str(cache)!r} {message}" in err

    @pytest.mark.parametrize("field, value, message", [
        ("eta", "x", "must hold finite numbers"),
        ("f_eta", None, "must hold finite numbers"),
        ("n_evals", 9.5, "must hold finite numbers"),
        ("eta", 7.0, "holds eta=7.0, not its key's"),
        (None, 5, "must hold finite numbers"),
        (None, {"eta": 1.0}, "must hold finite numbers"),
    ])
    def test_malformed_cached_row_is_usage_error(self, tmp_path, capsys, field, value, message):
        # a row under the current fingerprint whose fields are not finite
        # numbers, or whose eta is not its key's, is refused by name rather
        # than crashing, recomputed over, or written to the CSV as it stands;
        # field None replaces the whole row
        cache, out = tmp_path / "cache.json", tmp_path / "c.csv"
        assert run_cli(["curve", *self.ARGS, "--out", str(out), "--cache", str(cache)], capsys)[0] == 0
        data = json.loads(cache.read_text())
        key = sorted(data)[2]
        if field is None:
            data[key] = value
        else:
            data[key][field] = value
        cache.write_text(json.dumps(data))
        out.unlink()
        rc = cli.main(["curve", *self.ARGS, "--out", str(out), "--cache", str(cache)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and "Traceback" not in err
        assert f"cache file {str(cache)!r}: row {key!r} " in err and message in err
        assert not out.exists()

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
    # run one command after `import casimir_plate`, then print its exit code
    # and which oracle and scipy modules are loaded
    RUN_AND_LIST = "\n".join([
        "import contextlib, io, sys",
        "import casimir_plate, casimir_plate.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = casimir_plate.cli.main(sys.argv[1:])",
        "oracles = ('casimir_plate.greens', 'casimir_plate.oracle_ode', 'casimir_plate.verify')",
        "print(rc, sorted(m for m in sys.modules if m in oracles or m.startswith('scipy')))",
    ])

    @staticmethod
    def fresh_stdout(code, *args):
        """stdout of code run with args in a fresh interpreter that imports this package."""
        pkg_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.parametrize("argv", [
        ["exact", "--eta", "1", "--json"],
        ["exact", "--a", "2", "--b", "0.125"],
        ["curve", "--eta-min", "0.5", "--eta-max", "2", "--points", "3", "--out", "{tmp}/c.csv"],
        ["classic", "--a", "1"],
        ["perturb", "--a", "1", "--b", "1", "--k-min", "1e-2"],
        ["plot", "--input", "{tmp}/in.csv", "--output", "{tmp}/out.svg"],
    ], ids=["exact-eta", "exact-ab", "curve", "classic", "perturb", "plot"])
    def test_force_path_commands_load_no_oracle_or_scipy(self, argv, tmp_path):
        (tmp_path / "in.csv").write_text(f"{CSV_HEADER}\n1.0,0.1,1e-12,1.0,9\n2.0,0.2,1e-12,1.0,9\n")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert self.fresh_stdout(self.RUN_AND_LIST, *argv) == "0 []"

    def test_verify_loads_the_oracles(self):
        # the same probe sees them when a command does load them; every
        # Airy-value row reads scipy's airye, and none runs the ODE oracle
        rc, loaded = self.fresh_stdout(self.RUN_AND_LIST, "verify", "--suite", "all").split(" ", 1)
        assert rc == "0"
        for module in ("'casimir_plate.greens'", "'casimir_plate.oracle_ode'",
                       "'casimir_plate.verify'", "'scipy.special'"):
            assert module in loaded
        assert "'scipy.integrate" not in loaded

    def test_package_import_and_force_path_load_no_scipy_special(self):
        # a force builds the Taylor table, whose seeds need no library Airy call
        code = (
            "import sys, casimir_plate; "
            "print('scipy.special' in sys.modules); "
            "[casimir_plate.force_exact(eta) for eta in (1e-3, 1.0, 1e3)]; "
            "print('scipy.special' in sys.modules)"
        )
        assert self.fresh_stdout(code) == "False\nFalse"

    @pytest.mark.parametrize("argv", [
        ["exact", "--eta", "1", "--json"],
        ["curve", "--eta-min", "0.5", "--eta-max", "2", "--points", "3", "--out", "{tmp}/c.csv"],
    ], ids=["exact", "curve"])
    def test_force_path_commands_build_no_clenshaw_curtis_level(self, argv, tmp_path):
        # the finite rule sits in the force path's quadrature module; its
        # levels are built on first use, which no force command makes
        code = "\n".join([
            "import contextlib, io, sys",
            "import casimir_plate.cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    rc = casimir_plate.cli.main(sys.argv[1:])",
            "print(rc, casimir_plate.quadrature._cc_level.cache_info().currsize)",
        ])
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert self.fresh_stdout(code, *argv) == "0 0"

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

    @pytest.mark.parametrize("k_min", ["1e-18", "1e-300"])
    def test_deep_cutoff_is_answered(self, k_min, capsys):
        # the closed form answers every cutoff; far below 1/a the step is ln2/(2 pi)
        rc, out = run_cli(["perturb", "--a", "1", "--b", "1", "--k-min", k_min], capsys)
        assert rc == 0
        step = float(out.split("increase  = ")[1].split()[0])
        assert step == pytest.approx(math.log(2.0) / (2.0 * math.pi), rel=1e-9)

    def test_cutoff_whose_half_underflows_is_a_usage_error_naming_it(self, capsys):
        assert cli.main(["perturb", "--a", "1", "--b", "1", "--k-min", "5e-324"]) == 2
        err = capsys.readouterr().err
        assert "--k-min 5e-324" in err and "underflows" in err

    def test_out_of_range_force_is_a_usage_error_naming_its_inputs(self, capsys):
        assert cli.main(["perturb", "--a", "1e308", "--b", "10", "--k-min", "1"]) == 2
        assert "a=1e+308, b=10.0, k_min=1.0" in capsys.readouterr().err


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
        assert cli.main(["verify", "--suite", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert all(suite in err for suite in ("nonsense", "airy", "greens", "stress"))

    def test_library_check_spans_the_switch(self, monkeypatch):
        # [0, 50] in one airy_scaled call, so the series branch is checked too
        from casimir_plate import airy_engine, verify

        calls = []
        real = airy_engine.airy_scaled
        monkeypatch.setattr(airy_engine, "airy_scaled", lambda z: calls.append(z) or real(z))
        check = next(c for c in verify.CHECKS if c.name == "eval_vs_library").run()
        assert check.passed and len(calls) == 1
        zs = calls[0]
        assert zs.min() == 0.0 and zs.max() == 50.0 and zs.size == 101
        assert sum(zs > airy_engine.Z_SWITCH) >= 10


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_is_usage_error(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        row = f"1.0,{value},1e-12,1.0,9"
        bad.write_text(f"{CSV_HEADER}\n{row}\n2.0,0.2,1e-12,1.0,9\n")
        svg = tmp_path / "x.svg"
        assert cli.main(["plot", "--input", str(bad), "--output", str(svg)]) == 2
        assert f"not finite: {row!r}" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("content, message", [
        (b"wrong,header\n1,2\n", "is not a curve CSV"),
        (b"\xff\xfe" + f"{CSV_HEADER}\n1.0,0.1,1e-12,1.0,9\n".encode(), "is not UTF-8 text"),
    ], ids=["header", "utf8"])
    def test_malformed_csv(self, tmp_path, capsys, content, message):
        bad, svg = tmp_path / "bad.csv", tmp_path / "x.svg"
        bad.write_bytes(content)
        rc = cli.main(["plot", "--input", str(bad), "--output", str(svg)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and "Traceback" not in err
        assert f"{str(bad)!r} {message}" in err and not svg.exists()


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command", ["exact", "curve"])
    def test_kappa_max_help_states_the_kernel_bound(self, command, capsys):
        # the help states force_exact's own bound on k0, not a copy of it
        assert cli.main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert f"at most {stress_kernel._K0_MAX!r} (default" in text

    @pytest.mark.parametrize("argv", [["classic", "--a", "1"],
                                      ["perturb", "--a", "1", "--b", "1", "--k-min", "1e-2"]])
    def test_kappa_max_is_not_taken_where_nothing_reads_it(self, argv, capsys):
        # neither flat-background reference has a k0: the flag is a usage error
        assert run_cli(argv + ["--kappa-max", "5"], capsys)[0] == 2
        if argv[0] == "classic":
            assert run_cli(argv + ["--rel-tol", "1e-8"], capsys)[0] == 0

    def test_rel_tol_is_not_taken_where_nothing_reads_it(self, capsys):
        # the perturbative estimate is a closed form: no tolerance to set
        argv = ["perturb", "--a", "1", "--b", "1", "--k-min", "1e-2"]
        assert run_cli(argv + ["--rel-tol", "1e-6"], capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["exact", "--eta", "1", "--json"],
        ["curve", "--eta-min", "0.5", "--eta-max", "2", "--points", "3", "--out", "{out}"],
        ["classic", "--a", "1"],
    ], ids=["exact", "curve", "classic"])
    def test_settings_come_from_flags_alone(self, argv, tmp_path, capsys, monkeypatch):
        # every setting is a flag: environment variables named like settings change no byte
        def run(name):
            out = tmp_path / name
            rc, text = run_cli([arg.format(out=out) for arg in argv], capsys)
            return rc, text.replace(str(out), "OUT"), out.read_bytes() if out.exists() else None

        unset = run("unset.csv")
        monkeypatch.setenv("CASIMIR_REL_TOL", "banana")
        monkeypatch.setenv("CASIMIR_KAPPA_MAX", "25")
        assert run("set.csv") == unset and unset[0] == 0


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
