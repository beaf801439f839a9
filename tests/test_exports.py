"""Every exported name resolves.  The package imports its names lazily
(PEP 562), so a name listed in an ``__all__`` whose object is gone stays
hidden until something accesses it."""

import importlib
import pkgutil

import pytest

import geomwave

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(geomwave.__path__))


def test_package_exports_resolve():
    missing = [name for name in geomwave.__all__ if not hasattr(geomwave, name)]
    assert not missing


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"geomwave.{module}")
    missing = [name for name in vars(mod).get("__all__", ()) if not hasattr(mod, name)]
    assert not missing
