"""The package's public surface: one list of names, and demos that import
only names that exist (the demos take seconds to run, so they are checked
here by parsing, not by running them)."""

import ast
import importlib
from pathlib import Path

import pytest

import restep
from restep import degradation, harness, metrics, oracles, regressor, samplers, worlds

MODULES = (degradation, harness, metrics, oracles, regressor, samplers, worlds)
DELETED = ("Trajectory", "gaussian_mmse", "mixture_marginal_density", "residual_flow_rhs")
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_package_names_are_the_module_names():
    union = [name for module in MODULES for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(restep.__all__) == sorted(["__version__", *union])


def test_every_public_name_resolves():
    for name in restep.__all__:
        assert hasattr(restep, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(restep, name) is getattr(module, name), name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert not hasattr(restep, name), name
        for module in MODULES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports_resolve(demo):
    tree = ast.parse((DEMOS / demo).read_text(encoding="utf-8"))
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "restep"
    ]
    assert imports, f"{demo} imports nothing from restep"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo}: {node.module}.{alias.name}"
