"""The package namespace: each module's __all__ is the list capinv re-exports."""

import importlib
import types

import pytest

import capinv

MODULES = ("fields", "network", "generative", "inverse", "experiments")


@pytest.mark.parametrize("module", MODULES)
def test_every_module_name_is_the_same_object_on_the_package(module):
    mod = importlib.import_module(f"capinv.{module}")
    for name in mod.__all__:
        assert getattr(capinv, name, None) is getattr(mod, name), name


def test_every_package_name_comes_from_a_module_all():
    listed = set().union(*(importlib.import_module(f"capinv.{m}").__all__ for m in MODULES))
    public = {
        name for name, value in vars(capinv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == listed
