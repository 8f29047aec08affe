"""Every name the package and its modules export resolves, and no module imports a name it never uses."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hpid

MODULES = [importlib.import_module(f"hpid.{m.name}") for m in pkgutil.iter_modules(hpid.__path__)]

# hpid/__init__.py is left out: its imports are the package's re-exports
SOURCES = sorted(
    [p for p in Path(hpid.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    + list(Path(__file__).parent.glob("*.py")),
    key=lambda p: (p.parent.name, p.name),
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_module_exports():
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, obj in vars(hpid).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - exported == set()


@pytest.mark.parametrize(
    "name",
    [
        "rk4_step",
        "standard_dilation",
        "read_trajectory_csv",
        "pointwise_norm",
        "convergence_classifier",
        "ConvergenceReport",
    ],
)
def test_deleted_names_stay_deleted(name):
    assert [module.__name__ for module in [hpid, *MODULES] if hasattr(module, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
