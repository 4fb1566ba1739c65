"""The names the benchmark harness binds must exist where it looks for them.

perfbench/tracer.py wraps each TARGETS (module, attr) by getattr on the
defining module with no default, and perfbench/ops.py calls a few
package-level names; a rename or deletion in the package would otherwise
break every traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_plate

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TARGETS = [(module, attr) for module, attr, *_ in _load_tracer().TARGETS]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_exists(module, attr):
    home = importlib.import_module(f"casimir_plate.{module}")
    assert callable(getattr(home, attr))


OPS_NAMES = ["QuadratureSpec", "force_exact", "force_from_fd", "airy_via_ode_oracle", "CasimirError"]


@pytest.mark.parametrize("name", OPS_NAMES)
def test_package_name_used_by_ops(name):
    assert hasattr(casimir_plate, name)


def test_ops_names_resolve_after_a_bare_package_import():
    # a name resolved on first use goes through the package's __getattr__
    # only in a process that has not yet imported its module, as in the
    # benchmark's worker
    pkg_root = str(Path(casimir_plate.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = f"import casimir_plate; [getattr(casimir_plate, name) for name in {OPS_NAMES!r}]"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_fd_integrand_grid_is_parameter_3():
    # the tracer's FD hook reads the grid as args[3]
    from casimir_plate import oracle_ode

    params = list(inspect.signature(oracle_ode.integrand_from_fd).parameters)
    assert params[3] == "grid"
