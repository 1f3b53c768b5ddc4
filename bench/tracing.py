"""Spans around calls into clusterexp's layers, and per-layer metrics.

clusterexp's modules import each other's functions by name, so a call is
traced by replacing that name in the namespace of the module that calls
it.  TARGETS lists every replacement.  A span records its id, its parent
span, the benchmark operation it belongs to, its name ("<layer>.<what>")
and its start and end on the perf_counter clock.  Spans stay in memory
until the run writes them out.  A generator is traced one next() at a time.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict


def _mc_samples(counts, result, exc):
    if exc is None:
        counts["weights.mc_samples"] += result.samples


def _polytope_nonzero(counts, result, exc):
    if exc is None and result:
        counts["weights.polytope_nonzero"] += 1


def _py_outcome(counts, result, exc):
    if exc is None:
        counts["ozpy.converged"] += 1
        counts["ozpy.iterations"] += result.iterations
    elif hasattr(exc, "residual") and hasattr(exc, "iterations"):
        counts["ozpy.iterations"] += exc.iterations
        stalled = math.isfinite(exc.residual)
        counts["ozpy.fail_stall" if stalled else "ozpy.fail_nan"] += 1


# (calling module, name in it, span name, kind, hook).  kind is "call" for
# a function, "gen" for a generator function and "count" for a function
# that is only counted, without a span, because it runs once per edge mask.
# The benchmark itself calls cli.main, correlations.h_n_density,
# canonical.canonical_free_energy, graphs.enumerate_bicolored and
# series.enriched_tree_invert through their modules, so those are traced
# where they are defined.
TARGETS = [
    ("cli", "main", "cli.main", "call", None),
    ("cli", "enumerate_graphs", "graphs.enumerate_graphs", "gen", None),
    ("coefficients", "enumerate_graphs", "graphs.enumerate_graphs", "gen", None),
    ("canonical", "enumerate_graphs", "graphs.enumerate_graphs", "gen", None),
    ("correlations", "enumerate_bicolored", "graphs.enumerate_bicolored", "gen", None),
    ("graphs", "enumerate_bicolored", "graphs.enumerate_bicolored", "gen", None),
    ("series", "enumerate_enriched_trees", "graphs.enumerate_enriched_trees", "gen", None),
    ("graphs", "_class_filter", "graphs.masks", "count", None),
    ("coefficients", "graph_weight_exact_1d", "weights.exact", "call", None),
    ("correlations", "graph_weight_exact_1d", "weights.exact", "call", None),
    ("canonical", "graph_weight_periodic_1d", "weights.periodic", "call", None),
    ("coefficients", "graph_weight_mc", "weights.mc", "call", _mc_samples),
    ("correlations", "graph_weight_mc", "weights.mc", "call", _mc_samples),
    ("weights", "difference_polytope_volume", "weights.polytope", "call", _polytope_nonzero),
    ("weights", "linprog", "weights.lp", "call", None),
    ("weights", "HalfspaceIntersection", "weights.qhull", "call", None),
    ("weights", "ConvexHull", "weights.qhull", "call", None),
    ("cli", "mayer_b_n", "coefficients.mayer_b_n", "call", None),
    ("cli", "irreducible_beta_n", "coefficients.irreducible_beta_n", "call", None),
    ("catalog", "append_record", "catalog.write", "call", None),
    ("cli", "eos_and_free_energy", "series.eos_and_free_energy", "call", None),
    ("cli", "log_activity_of_density", "series.log_activity_of_density", "call", None),
    ("series", "enriched_tree_invert", "series.enriched_tree_invert", "call", None),
    ("correlations", "h_n_density", "correlations.h_n_density", "call", None),
    ("canonical", "canonical_free_energy", "canonical.canonical_free_energy", "call", None),
    ("cli", "solve_py", "ozpy.solve_py", "call", _py_outcome),
    ("cli", "oz_selfconsistency", "ozpy.oz_selfconsistency", "call", None),
    ("cli", "thermodynamics", "ozpy.thermodynamics", "call", None),
]

LAYERS = ("harness", "cli", "coefficients", "catalog", "series", "correlations",
          "canonical", "ozpy", "weights", "graphs")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, op, name, start, end]
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [self._next_id, parent, self.op, name, time.perf_counter(), None]
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, hook):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(span)
                if hook is not None:
                    hook(self.counts, None, exc)
                raise
            self.close(span)
            if hook is not None:
                hook(self.counts, result, None)
            return result
        return traced

    def _gen(self, name, fn):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            return self._iterate(name, layer, fn(*args, **kwargs))
        return traced

    def _iterate(self, name, layer, gen):
        while True:
            span = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(span)
            self.counts[layer + ".yielded"] += 1
            self.counts[name + ".yielded"] += 1
            yield item

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, kind, hook in TARGETS:
            module = importlib.import_module("clusterexp." + mod_name)
            fn = getattr(module, attr)
            if kind == "call":
                wrapper = self._call(name, fn, hook)
            elif kind == "gen":
                wrapper = self._gen(name, fn)
            else:
                wrapper = self._count(name, fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus that of its direct
    children, summed by layer (the part of the name before the first dot)."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _op, name, start, end in spans:
        out[name.split(".")[0]] += (end - start) - covered[sid]
    return out


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return scale * a / b if b else 0.0


def layer_metrics(spans, counts: Counter, wall: float) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``counts`` holds the tracer's counts plus those the harness records
    from the CLI reports (catalog hits and misses, output bytes).
    """
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for _sid, _parent, _op, name, start, end in spans:
        total[name] += end - start
        calls[name] += 1
    own = self_times(spans)
    layer_total: dict[str, float] = defaultdict(float)
    for name, t in total.items():
        layer_total[name.split(".")[0]] += t
    c = counts
    mask_s = total["graphs.enumerate_graphs"] + total["graphs.enumerate_bicolored"]
    lookups = c["catalog.hits"] + c["catalog.misses"]
    m = {
        "graphs.calls": (c["graphs.calls"], "count"),
        "graphs.yielded": (c["graphs.yielded"], "count"),
        "graphs.masks": (c["graphs.masks"], "count"),
        "graphs.s": (layer_total["graphs"], "s"),
        "graphs.us_per_mask": (_ratio(mask_s, c["graphs.masks"], 1e6), "us"),
        "weights.exact_calls": (calls["weights.exact"], "count"),
        "weights.exact_s": (total["weights.exact"], "s"),
        "weights.periodic_calls": (calls["weights.periodic"], "count"),
        "weights.periodic_s": (total["weights.periodic"], "s"),
        "weights.polytope_calls": (calls["weights.polytope"], "count"),
        "weights.polytope_s": (total["weights.polytope"], "s"),
        "weights.polytope_nonzero_frac": (
            _ratio(c["weights.polytope_nonzero"], calls["weights.polytope"]), "frac"),
        "weights.lp_calls": (calls["weights.lp"], "count"),
        "weights.lp_s": (total["weights.lp"], "s"),
        "weights.qhull_calls": (calls["weights.qhull"], "count"),
        "weights.qhull_s": (total["weights.qhull"], "s"),
        "weights.mc_calls": (calls["weights.mc"], "count"),
        "weights.mc_samples": (c["weights.mc_samples"], "count"),
        "weights.mc_s": (total["weights.mc"], "s"),
        "weights.mc_ns_per_sample": (
            _ratio(total["weights.mc"], c["weights.mc_samples"], 1e9), "ns"),
        "coefficients.calls": (calls["coefficients.mayer_b_n"]
                               + calls["coefficients.irreducible_beta_n"], "count"),
        "coefficients.s": (layer_total["coefficients"], "s"),
        "catalog.hits": (c["catalog.hits"], "count"),
        "catalog.misses": (c["catalog.misses"], "count"),
        "catalog.hit_frac": (_ratio(c["catalog.hits"], lookups), "frac"),
        "catalog.records_written": (calls["catalog.write"], "count"),
        "catalog.write_s": (total["catalog.write"], "s"),
        "series.calls": (calls["series.eos_and_free_energy"]
                         + calls["series.log_activity_of_density"]
                         + calls["series.enriched_tree_invert"], "count"),
        "series.s": (layer_total["series"], "s"),
        "series.enriched_trees": (
            c["graphs.enumerate_enriched_trees.yielded"], "count"),
        "correlations.s": (layer_total["correlations"], "s"),
        "canonical.s": (layer_total["canonical"], "s"),
        "ozpy.solves": (calls["ozpy.solve_py"], "count"),
        "ozpy.converged": (c["ozpy.converged"], "count"),
        "ozpy.iterations": (c["ozpy.iterations"], "count"),
        "ozpy.s": (layer_total["ozpy"], "s"),
        "ozpy.ms_per_iter": (
            _ratio(total["ozpy.solve_py"], c["ozpy.iterations"], 1e3), "ms"),
        "ozpy.fail_stall": (c["ozpy.fail_stall"], "count"),
        "ozpy.fail_nan": (c["ozpy.fail_nan"], "count"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
        m[f"{layer}.self_frac"] = (_ratio(own.get(layer, 0.0), wall), "frac")
    return m
