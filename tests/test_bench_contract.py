"""The benchmark's tracer replaces functions by name in clusterexp's
modules (bench/tracing.py, TARGETS).  A renamed or removed name would stop
``bench/run.py --trace 1`` at install; this test catches it first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({(mod, name) for mod, name, *_ in module.TARGETS})


@pytest.mark.parametrize("module,name", _targets())
def test_trace_target_resolves(module, name):
    assert hasattr(importlib.import_module(f"clusterexp.{module}"), name)
