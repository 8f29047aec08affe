"""Every name the package and its modules export resolves."""

import importlib
import inspect
import pkgutil

import pytest

import hpid

MODULES = [importlib.import_module(f"hpid.{m.name}") for m in pkgutil.iter_modules(hpid.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_module_exports():
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, obj in vars(hpid).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - exported == set()


@pytest.mark.parametrize("name", ["rk4_step", "standard_dilation"])
def test_deleted_names_stay_deleted(name):
    assert [module.__name__ for module in [hpid, *MODULES] if hasattr(module, name)] == []
