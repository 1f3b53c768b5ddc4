"""Cluster coefficients b_n, irreducible coefficients beta_n and the
inversion kernels a_n, from sums of weighted graph integrals.

All coefficients use the origin-pinning convention: one vertex is fixed at
the origin and the remaining coordinates integrate over R^d, which replaces
the 1/volume normalization of a finite box for tempered potentials.
"""

from __future__ import annotations

import itertools
import math

from .graphs import Graph, GraphClass, enumerate_graphs
from .potentials import Kind, Potential
from .weights import (CoefficientEstimate, graph_weight_exact_1d, graph_weight_mc,
                      resolve_method)


def _sum_graph_weights(graphs, p: Potential, method: str,
                       n_samples: int, seed: int) -> CoefficientEstimate:
    """Sum w(g; vertex 0 at the origin) over a graph family."""
    method = resolve_method(p, method)
    total = 0.0
    var = 0.0
    samples = 0
    if method == "exact1d":
        for g in graphs:
            total += graph_weight_exact_1d(g, p, root_positions=(0.0,))
        return CoefficientEstimate(total, 0.0, "exact1d")
    for i, g in enumerate(graphs):
        est = graph_weight_mc(g, p, p.dimension, n_samples, seed=seed + i)
        total += est.value
        var += est.std_error ** 2
        samples += est.samples
    return CoefficientEstimate(total, math.sqrt(var), "mc", samples, seed)


def _scaled(est: CoefficientEstimate, factor: float) -> CoefficientEstimate:
    return CoefficientEstimate(est.value * factor, est.std_error * abs(factor),
                               est.method, est.samples, est.seed)


def mayer_b_n(p: Potential, n: int, method: str = "auto",
              n_samples: int = 100_000, seed: int = 0) -> CoefficientEstimate:
    """b_n = (1/n!) sum over connected graphs on n labeled vertices of the
    rooted weight.  b_1 = 1 for any potential."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return CoefficientEstimate(1.0, 0.0, resolve_method(p, method))
    if p.kind is Kind.ZERO:
        return CoefficientEstimate(0.0, 0.0, resolve_method(p, method))
    graphs = enumerate_graphs(n, GraphClass.CONNECTED)
    est = _sum_graph_weights(graphs, p, method, n_samples, seed)
    return _scaled(est, 1.0 / math.factorial(n))


def irreducible_beta_n(p: Potential, n: int, method: str = "auto",
                       n_samples: int = 100_000, seed: int = 0) -> CoefficientEstimate:
    """beta_n = (1/n!) sum over 2-connected graphs on n+1 labeled vertices
    of the rooted weight."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if p.kind is Kind.ZERO:
        return CoefficientEstimate(0.0, 0.0, resolve_method(p, method))
    graphs = enumerate_graphs(n + 1, GraphClass.BICONNECTED)
    est = _sum_graph_weights(graphs, p, method, n_samples, seed)
    return _scaled(est, 1.0 / math.factorial(n))


def _kernel_graphs(n: int):
    """Graphs on {0..n} whose restriction to {1..n} is connected and whose
    vertex 0 has at least one edge."""
    zero_edges = [(0, v) for v in range(1, n + 1)]
    for core in enumerate_graphs(n, GraphClass.CONNECTED):
        shifted = [(i + 1, j + 1) for i, j in core.edges]
        for r in range(1, n + 1):
            for attach in itertools.combinations(zero_edges, r):
                yield Graph.from_edges(n + 1, shifted + list(attach), white_count=1)


def a_kernel(p: Potential, n: int, method: str = "auto",
             n_samples: int = 100_000, seed: int = 0) -> CoefficientEstimate:
    """Inversion kernel a_n: minus the rooted-weight sum over graphs on
    {0..n} with {1..n} connected and vertex 0 attached by at least one edge.

    These are the clique weights of the enriched-tree expansion of
    z(rho) = rho * Tbar(rho).  Hard rods give a_1 = +2 sigma.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if p.kind is Kind.ZERO:
        return CoefficientEstimate(0.0, 0.0, resolve_method(p, method))
    est = _sum_graph_weights(_kernel_graphs(n), p, method, n_samples, seed)
    return _scaled(est, -1.0)


def beta_table(p: Potential, max_order: int, method: str = "auto",
               n_samples: int = 100_000, seed: int = 0) -> dict[int, CoefficientEstimate]:
    return {k: irreducible_beta_n(p, k, method, n_samples, seed + 1000 * k)
            for k in range(1, max_order + 1)}
