"""Every name the package and its modules export resolves, and no module imports a name it never uses."""

import ast
import importlib
import inspect
import pkgutil
import re
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


DELETED = [
    "rk4_step",
    "standard_dilation",
    "read_trajectory_csv",
    "pointwise_norm",
    "convergence_classifier",
    "ConvergenceReport",
    "compare_indices",
    "HARDWARE_L2_CONTROL",
    "HARDWARE_L2_ERROR",
    "HARDWARE_L2_ERROR_ALT",
    "JointPlantConfig",
    "ivc",
    "iavc",
    "itae",
    "l2_norm",
    "trajectory_header",
    "canonical_norm_gradient",
    "ChannelIndices",
    "ScalingReport",
]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_deleted(name):
    assert [module.__name__ for module in [hpid, *MODULES] if hasattr(module, name)] == []


@pytest.mark.parametrize("name", DELETED)
def test_readme_names_no_deleted_name_as_code(name):
    # as code: backticked, or called as name(...); an attribute such as
    # `report.pid.ivc` is not the deleted name
    text = README.read_text(encoding="utf-8")
    named = [span for span in re.findall(r"`([^`]*)`", text) if re.fullmatch(rf"{name}(\(.*\))?", span)]
    called = re.findall(rf"(?<![\w.]){name}\(", text)
    assert named + called == []


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
