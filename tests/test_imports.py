"""Every name a clusterexp module imports at module level is used in it.

The only exceptions are ``annotations`` (the ``from __future__`` switch)
and the names that the benchmark's tracer wraps in a module
(bench/tracing.py, TARGETS): those must resolve there even when nothing
calls them, which tests/test_bench_contract.py checks.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterexp"
TRACING = ROOT / "bench" / "tracing.py"


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
