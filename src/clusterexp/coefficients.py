"""Cluster coefficients b_n, irreducible coefficients beta_n and the
inversion kernels a_n, from sums of weighted graph integrals.

All coefficients use the origin-pinning convention: one vertex is fixed at
the origin and the remaining coordinates integrate over R^d, which replaces
the 1/volume normalization of a finite box for tempered potentials.

The exact 1D path sums the weight of every labeled graph of the class.  The
Monte Carlo path draws one set of configurations per coefficient and scores
each with the whole class sum (``weights.class_sum_mc``): phi^T for b_n, the
2-connected subset recursion for beta_n and the kernel product for a_n.
Each coefficient's random stream comes from
``np.random.SeedSequence(seed, spawn_key=(family, order))``, so the streams
of different coefficients are independent for one user seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .graphs import Graph, GraphClass, enumerate_graphs
from .potentials import Kind, Potential
# Unused here: bench/tracing.py wraps coefficients.graph_weight_mc by name,
# and its --trace 1 runs fail at install without it.
from .weights import graph_weight_mc  # noqa: F401
from .weights import (CoefficientEstimate, biconnected_sum_batch, class_sum_mc,
                      graph_weight_exact_1d, kernel_sum_batch, phi_t_batch,
                      resolve_method)

# spawn-key tags of the coefficient families' random streams
_FAMILY = {"b_n": 0, "beta_n": 1, "a_n": 2}


def _exact_sum(graphs, p: Potential) -> CoefficientEstimate:
    """Sum of the exact rooted weights (vertex 0 at the origin) over a
    graph family."""
    total = 0.0
    for g in graphs:
        total += graph_weight_exact_1d(g, p, root_positions=(0.0,))
    return CoefficientEstimate(total, 0.0, "exact1d")


def _sampled_sum(score, p: Potential, m: int, family: str, order: int,
                 n_samples: int, seed: int) -> CoefficientEstimate:
    """Mayer-sampling estimate of the rooted integral of the class sum that
    ``score`` evaluates on m vertices, from the coefficient's own stream."""
    stream = np.random.SeedSequence(seed, spawn_key=(_FAMILY[family], order))
    value, err = class_sum_mc(score, p, m, n_samples, np.random.default_rng(stream))
    return CoefficientEstimate(value, err, "mc", n_samples, seed)


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
    if resolve_method(p, method) == "exact1d":
        est = _exact_sum(enumerate_graphs(n, GraphClass.CONNECTED), p)
    else:
        est = _sampled_sum(phi_t_batch, p, n, "b_n", n, n_samples, seed)
    return _scaled(est, 1.0 / math.factorial(n))


def irreducible_beta_n(p: Potential, n: int, method: str = "auto",
                       n_samples: int = 100_000, seed: int = 0) -> CoefficientEstimate:
    """beta_n = (1/n!) sum over 2-connected graphs on n+1 labeled vertices
    of the rooted weight."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if p.kind is Kind.ZERO:
        return CoefficientEstimate(0.0, 0.0, resolve_method(p, method))
    if resolve_method(p, method) == "exact1d":
        est = _exact_sum(enumerate_graphs(n + 1, GraphClass.BICONNECTED), p)
    else:
        est = _sampled_sum(biconnected_sum_batch, p, n + 1, "beta_n", n,
                           n_samples, seed)
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
    if resolve_method(p, method) == "exact1d":
        est = _exact_sum(_kernel_graphs(n), p)
    else:
        est = _sampled_sum(kernel_sum_batch, p, n + 1, "a_n", n, n_samples, seed)
    return _scaled(est, -1.0)


def beta_table(p: Potential, max_order: int, method: str = "auto",
               n_samples: int = 100_000, seed: int = 0) -> dict[int, CoefficientEstimate]:
    return {k: irreducible_beta_n(p, k, method, n_samples, seed)
            for k in range(1, max_order + 1)}
