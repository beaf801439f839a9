"""Every name in a submodule's ``__all__`` resolves, so that a name whose
object is gone does not stay listed."""

import importlib
import pkgutil

import pytest

import geomwave

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(geomwave.__path__))


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"geomwave.{module}")
    missing = [name for name in vars(mod).get("__all__", ()) if not hasattr(mod, name)]
    assert not missing
