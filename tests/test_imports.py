"""Every name a clusterexp module imports at module level is used in it,
and ``import clusterexp`` loads no scipy module.

The only exceptions to the first are ``annotations`` (the ``from
__future__`` switch) and the names that the benchmark's tracer wraps in a
module (bench/tracing.py, TARGETS): those must resolve there even when
nothing calls them, which tests/test_bench_contract.py checks.

scipy is imported where it is used: by the PY solver's transforms, the
Lennard-Jones radial integrals and the Qhull polytope volumes.  Those
paths run here in a fresh interpreter, where no test has loaded scipy.
"""

import ast
import hashlib
import importlib.util
import json
import subprocess
import sys
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
