"""The package's public names: each resolves, to the object its defining module binds.

And every module reads each name it imports.
"""

import ast
import sys
from pathlib import Path

import pytest

import casimir_plate
from casimir_plate import errors, greens, oracle_ode

MODULES = sorted(p for p in Path(casimir_plate.__file__).parent.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", [n for n in casimir_plate.__all__ if n != "__version__"])
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(casimir_plate, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from casimir_plate import *", namespace)
    assert set(casimir_plate.__all__) <= namespace.keys()


def test_unknown_name_is_an_attribute_error():
    assert getattr(casimir_plate, "no_such_name", None) is None
    with pytest.raises(AttributeError, match="no_such_name"):
        casimir_plate.no_such_name


def test_plate_config_is_one_class():
    assert casimir_plate.PlateConfig is greens.PlateConfig is oracle_ode.PlateConfig
    assert errors.PlateConfig.__module__ == "casimir_plate.errors"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in its __all__ is read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(name for name in imported if name not in used)


def test_unused_imports_finds_a_planted_name():
    source = "import os.path\nfrom m import a, b as c\n__all__ = ['a']\nos.sep\n"
    assert unused_imports(source) == ["c"]


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_module_uses_every_name_it_imports(path):
    # the package __init__ re-exports by import and is not scanned; the test files are
    assert unused_imports(path.read_text()) == []
