"""What the benchmark needs of clusterexp, checked before a bench run.

The tracer replaces functions by name in clusterexp's modules
(bench/tracing.py, TARGETS); a renamed or removed name would stop
``bench/run.py --trace 1`` at install.  One pass of each workload
(bench/workloads.py) runs here too, so that an operation that the program
breaks fails a test rather than a bench run."""

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


@pytest.mark.parametrize("name", ["exact-1d", "mc-3d", "py-sweep",
                                  "combinatorics"])
def test_one_pass_of_each_workload_runs(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    res = workloads.run_pass(workloads.build(name, str(tmp_path), 1))
    assert res.attempted > 0
    assert {f.op: f"{f.kind}: {f.reason}" for f in res.failures} == {}
