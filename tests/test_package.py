"""The package's public surface: one list of names, and demos and a README
tour that import only names that exist and run.  No source file imports a
name it does not use, no private module-level name goes unread, and the
package imports numpy and the standard library alone."""

import ast
import builtins
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import restep
from restep import degradation, harness, metrics, oracles, regressor, samplers, worlds

MODULES = (degradation, harness, metrics, oracles, regressor, samplers, worlds)
DELETED = ("Trajectory", "gaussian_mmse", "mixture_marginal_density", "residual_flow_rhs",
           "NonFiniteIterateError", "TrainingDivergenceError", "DistributionStats",
           "forward_degrade_noisy", "nearest_mode", "MetricReport", "score_from_denoiser",
           "ScheduleInvariantError")
ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SOURCES = sorted(str(p.relative_to(ROOT)) for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))
# a fresh interpreter's environment, importing restep from this checkout
ENV = {**os.environ, "PYTHONPATH": str(Path(restep.__file__).resolve().parent.parent)}


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


def run_fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports restep from this
    checkout; it prints one JSON object as its last line, returned here."""
    out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_numpy_and_the_standard_library_only():
    """``import restep`` adds no top-level module but numpy, restep and the
    standard library's, and no process pool: ``concurrent.futures.process``
    loads only under ``jobs > 1``."""
    loaded = run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import restep\n"
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps({'outside': sorted(added - set(sys.stdlib_module_names)),\n"
        "                  'scipy.stats': 'scipy.stats' in sys.modules,\n"
        "                  'pool': 'concurrent.futures.process' in sys.modules}))\n"
    )
    assert loaded == {"outside": ["numpy", "restep"], "scipy.stats": False, "pool": False}


def test_no_run_loads_scipy():
    """Neither a mixture-world run, which has no KS column, nor a
    Gaussian-world sweep, whose KS column is finite, loads scipy."""
    loaded = run_fresh(
        "import json, math, sys\n"
        "import restep\n"
        "restep.run_experiment({'kind': 'toy2d_a', 'seed': 5, 'eval': {'n_inputs': 60},\n"
        "                       'sampler': {'steps': 6}}, write=False)\n"
        "mixture = 'scipy' in sys.modules\n"
        "report = restep.run_experiment({'kind': 'sweep_steps', 'seed': 5,\n"
        "                                'eval': {'n_inputs': 80, 'step_grid': [1, 3]}},\n"
        "                               write=False)\n"
        "print(json.dumps({'mixture': mixture, 'gaussian': 'scipy' in sys.modules,\n"
        "                  'ks_finite': [math.isfinite(r['ks']) for r in report.rows]}))\n"
    )
    assert loaded["mixture"] is False
    assert loaded["gaussian"] is False
    assert loaded["ks_finite"] and all(loaded["ks_finite"])


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


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    """Each demo runs to exit 0 in a fresh interpreter, from an empty working
    directory, with a RuntimeWarning or DeprecationWarning an error."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         str(DEMOS / demo)], cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_library_tour_runs():
    """The README's one code sample runs and restores its 2-pixel input."""
    [code] = re.findall(r"^```python\n(.*?)^```", _readme_section("Library tour"), re.M | re.S)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["restored"].shape == (2,)


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


def test_private_module_names_are_read():
    """Every module-level private function, class or constant of the package
    is read somewhere in ``src/restep``, so a helper a refactor leaves
    behind fails here."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "restep").glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not unread, unread


def test_no_module_imports_scipy():
    """No module in ``src/restep`` imports scipy, at its top or in a function:
    the KS metric's normal CDF is ``metrics._ndtr``, and scipy serves the tests."""
    found = []
    for path in sorted((ROOT / "src" / "restep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, found


def test_generators_are_made_in_worlds_only():
    """``default_rng`` and ``SeedSequence`` appear nowhere in ``src/restep``
    but ``worlds.py``: every other generator comes from ``derive_rng``, so
    the package has one seed-derivation rule."""
    makers = {"default_rng", "SeedSequence"}
    found = []
    for path in sorted((ROOT / "src" / "restep").glob("*.py")):
        if path.name == "worlds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in makers:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_divergence_is_raised_in_worlds_only():
    """``DivergenceError(...)`` is called nowhere in ``src/restep`` but
    ``worlds.py``: the guard and ``_check_finite`` are the one way a run is
    flagged."""
    found = []
    for path in sorted((ROOT / "src" / "restep").glob("*.py")):
        if path.name == "worlds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)  # set on calls only
            if getattr(func, "attr", getattr(func, "id", None)) == "DivergenceError":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_the_nearest_centre_is_decided_in_oracles_only():
    """``argmin`` and ``argmax`` are called nowhere in ``src/restep`` but
    ``oracles.py``, where ``_nearest`` decides which centre is nearest: a
    second rule cannot return to ``metrics`` or ``harness``."""
    found = []
    for path in sorted((ROOT / "src" / "restep").glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)  # set on calls only
            if getattr(func, "attr", getattr(func, "id", None)) in ("argmin", "argmax"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_a_run_is_described_once():
    """``_steps`` is called in ``samplers._restore`` only, and ``_restore``
    takes no step list: every routine, ``ode_restore`` too, runs on the step
    list its config describes."""
    callers, restore_args = [], None
    for path in sorted((ROOT / "src" / "restep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "_restore":
                restore_args = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
            for node in ast.walk(fn):
                func = getattr(node, "func", None)  # set on calls only
                if getattr(func, "attr", getattr(func, "id", None)) == "_steps":
                    callers.append(f"{path.name}:{fn.name}")
    assert callers == ["samplers.py:_restore"], callers
    assert restore_args == ["estimator", "y", "config", "rule"]


def test_the_mixture_posterior_is_normalised_once():
    """``exp`` is called once in ``oracles.py``: the near and far fields write
    log terms into one block, and every row of it is normalised in one place."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if getattr(getattr(node, "func", None), "attr", None) == "exp"]
    assert len(calls) == 1, calls


def test_a_run_is_refused_or_flagged():
    """The only exception classes ``src/restep`` defines are ``ConfigError``
    (a config is refused) and ``DivergenceError`` (a run is flagged), so no
    third run-level exception comes back.  A class is an exception if one of
    its bases is a builtin exception or an exception class defined here."""
    bases = {}
    for path in sorted((ROOT / "src" / "restep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "attr", getattr(b, "id", None))
                                    for b in node.bases}
    errors = {name for name in dir(builtins)
              if isinstance(getattr(builtins, name), type)
              and issubclass(getattr(builtins, name), BaseException)}
    while new := {name for name, of in bases.items() if of & errors} - errors:
        errors |= new
    assert sorted(errors & set(bases)) == ["ConfigError", "DivergenceError"]


def test_config_rules_name_no_kind():
    """``resolve_config`` holds no experiment-kind name and reads ``_KINDS``
    only for a kind's ``.sections``, so its rules follow from which fields a
    config has, never from which kind it is."""
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    [rules] = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "resolve_config"]
    parent = {child: node for node in ast.walk(rules) for child in ast.iter_child_nodes(node)}
    named = [node.value for node in ast.walk(rules)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(kind in node.value for kind in harness.EXPERIMENT_KINDS)]
    reads = [node.lineno for node in ast.walk(rules)
             if isinstance(node, ast.Name) and node.id == "_KINDS"
             and not (isinstance(parent[node], ast.Subscript)
                      and isinstance(parent[parent[node]], ast.Attribute)
                      and parent[parent[node]].attr == "sections")]
    assert not named and not reads, (named, reads)


def _readme_section(title: str) -> str:
    """The README's text from the ``## title`` heading to the next one."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_what_the_code_has():
    """The kinds table, the CLI block and the demos block name exactly the
    experiment kinds, the subcommands and the demo scripts there are."""
    from restep import cli

    kinds = re.findall(r"^\| `(\w+)` ", _readme_section("CLI"), re.M)
    assert kinds == list(harness.EXPERIMENT_KINDS)
    commands = re.findall(r"^restep ([\w-]+) ", _readme_section("CLI"), re.M)
    assert sorted(commands) == sorted(cli._SUBCOMMANDS)
    demos = re.findall(r"^python3 demos/(\S+\.py) ", _readme_section("Demos"), re.M)
    assert sorted(demos) == sorted(p.name for p in DEMOS.glob("*.py"))
