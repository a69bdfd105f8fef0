"""The package's public surface: one list of names, and demos that import
only names that exist (the demos take seconds to run, so they are checked
here by parsing, not by running them).  No source file imports a name it
does not use, and the package does not import ``scipy.stats``."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import restep
from restep import degradation, harness, metrics, oracles, regressor, samplers, worlds

MODULES = (degradation, harness, metrics, oracles, regressor, samplers, worlds)
DELETED = ("Trajectory", "gaussian_mmse", "mixture_marginal_density", "residual_flow_rhs",
           "NonFiniteIterateError", "TrainingDivergenceError", "DistributionStats",
           "forward_degrade_noisy", "nearest_mode", "MetricReport")
ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SOURCES = sorted(str(p.relative_to(ROOT)) for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))


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
    for world in (worlds.MixtureWorld, worlds.GaussianWorld):
        for name in ("sample_clean", "degrade"):  # sample_pairs is the one draw
            assert not hasattr(world, name), f"{world.__name__}.{name}"


def test_import_loads_no_scipy_stats():
    """``import restep`` stays light: the KS metric needs only
    ``scipy.special.ndtr``, not ``scipy.stats``."""
    env = {**os.environ, "PYTHONPATH": str(Path(restep.__file__).resolve().parent.parent)}
    code = "import sys, restep; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


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


@pytest.mark.parametrize("source", SOURCES)
def test_no_unused_imports(source):
    """Every imported name is read somewhere in its file, or listed in its
    ``__all__`` (star imports and ``__future__`` are exempt)."""
    tree = ast.parse((ROOT / source).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    assert imported <= used, f"{source}: unused {sorted(imported - used)}"
