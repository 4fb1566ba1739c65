"""The package's public names: each resolves, to the object its defining module binds."""

import sys

import pytest

import casimir_plate
from casimir_plate import errors, greens, oracle_ode


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
