"""Every name a clusterexp module imports at module level is used in it,
every top-level function and class of a module is used somewhere,
``import clusterexp`` loads no scipy module, and outside weights class sums
are integrated through ``weights.class_integral`` alone.

"Used somewhere" means loaded by name (bare, as an attribute or imported
under another name) in src/, tests/, bench/ or demos/, outside the
definition itself; the re-exports of ``__init__.py`` do not count.

The only exceptions to the first two are ``annotations`` (the ``from
__future__`` switch) and the names that the benchmark's tracer wraps in a
module (bench/tracing.py, TARGETS): those must resolve there even when
nothing calls them, which tests/test_bench_contract.py checks.

scipy is imported where it is used: by the Lennard-Jones radial integrals
and the Qhull polytope volumes.  Those paths run here in a fresh
interpreter, where no test has loaded scipy; the PY solver runs on numpy
alone and loads none.
"""

import ast
import hashlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterexp"
TRACING = ROOT / "bench" / "tracing.py"
LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, name) for mod, name, *_ in module.TARGETS}


def unused_imports(source: str) -> set[str]:
    """Names bound by the module-level imports of ``source`` and never
    loaded anywhere in it."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - loaded


def test_detector_flags_only_unloaded_names():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "def f():\n    return np.pi + len(sep)\n")
    assert unused_imports(source) == {"math", "path"}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    exempt = {"annotations"} | {name for mod, name in _traced_names()
                                if mod == module}
    source = (PACKAGE / f"{module}.py").read_text()
    assert unused_imports(source) - exempt == set()


def _loads(node: ast.AST) -> Counter:
    """How often each name is loaded under ``node``, bare, as an attribute
    or imported under another name."""
    loads = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            loads[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            loads[n.attr] += 1
        elif isinstance(n, ast.alias) and n.asname:
            loads[n.name] += 1
    return loads


def orphan_definitions(package: dict[str, str], others: list[str]) -> set:
    """(module, name) of every top-level function or class of the
    ``package`` sources (module name -> source) that neither those sources
    nor ``others`` load outside the definition itself."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    loads += sum((_loads(ast.parse(source)) for source in others), Counter())
    return {(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and loads[node.name] == _loads(node)[node.name]}


def test_orphan_detector_ignores_self_loads():
    package = {"m": "def used():\n    pass\n\n"
                    "def rec(n):\n    return rec(n - 1)\n\n"
                    "class K:\n    pass\n"}
    others = ["import m\nm.used()\n", "from m import K as L\n"]
    assert orphan_definitions(package, others) == {("m", "rec")}
    assert orphan_definitions(package, others[:1]) == {("m", "rec"), ("m", "K")}


def test_no_orphan_definitions():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")
               if p.name != "__init__.py"}
    others = [p.read_text() for d in ("tests", "bench", "demos")
              for p in (ROOT / d).rglob("*.py")]
    assert orphan_definitions(package, others) - _traced_names() == set()


def _fresh_python(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_scipy():
    out = _fresh_python(f"import sys, clusterexp; print({LOADED_SCIPY})")
    assert out.strip() == "[]"


def lazy_path_values() -> list:
    """One value from each path that imports scipy when it first runs."""
    from clusterexp.ozpy import solve_py
    from clusterexp.potentials import cbar_integral, hard_rods, lennard_jones
    from clusterexp.weights import difference_polytope_volume

    sol = solve_py(hard_rods(), 0.3)
    return [
        difference_polytope_volume(
            2, [(0, -1, -1.0, 1.0), (1, -1, -1.0, 1.0), (1, 0, -1.5, 1.5)]),
        sol.iterations,
        sol.residual_history,
        hashlib.sha256(sol.g.tobytes()).hexdigest(),
        cbar_integral(lennard_jones(), 3),
    ]


def test_lazy_scipy_paths_in_a_fresh_interpreter():
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tests')!r}); "
            f"import test_imports; assert {LOADED_SCIPY} == []; "
            f"print(json.dumps(test_imports.lazy_path_values()))")
    # json round-trips floats exactly
    assert json.loads(_fresh_python(code)) == json.loads(
        json.dumps(lazy_path_values()))


def test_py_path_loads_no_scipy(tmp_path):
    config = tmp_path / "oz.json"
    config.write_text(json.dumps({"potential": {"kind": "hard_rods"},
                                  "rho": [0.1, 0.3]}))
    code = ("import sys\n"
            "from clusterexp import cli\n"
            "from clusterexp.ozpy import oz_selfconsistency, solve_py\n"
            "from clusterexp.potentials import hard_rods, hard_spheres\n"
            "for p in (hard_rods(), hard_spheres()):\n"
            "    oz_selfconsistency(p, solve_py(p, 0.3))\n"
            f"assert cli.main(['ozpy', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path / 'out.json')!r}]) == 0\n"
            f"print({LOADED_SCIPY})")
    assert _fresh_python(code).strip() == "[]"


def _loaders(name: str) -> set:
    """(module, top-level definition) of every load of ``name`` in the
    package outside weights, the definition None at module level."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "weights":
            continue
        for node in ast.parse(path.read_text()).body:
            if _loads(node)[name]:
                found.add((path.stem, getattr(node, "name", None)))
    return found


def test_class_integral_is_the_only_entry_to_the_class_sums():
    # the direct oracle's product of (1 + f) does not vanish on
    # disconnected configurations, so it sums the torus cells itself
    assert _loaders("lattice_class_sum") == {("canonical",
                                              "direct_logZ_oracle")}
    assert _loaders("class_sum_mc") == set()
