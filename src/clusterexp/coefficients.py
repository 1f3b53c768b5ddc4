"""Cluster coefficients b_n, irreducible coefficients beta_n and the
inversion kernels a_n, from class sums of weighted graph integrals.

All coefficients use the origin-pinning convention: one vertex is fixed at
the origin and the remaining coordinates integrate over R^d, which replaces
the 1/volume normalization of a finite box for tempered potentials.

Each coefficient integrates one class sum over the configurations of its
vertices: phi^T for b_n, the 2-connected subset recursion for beta_n and
the kernel product for a_n.  The exact 1D path sums it over the cells of a
lattice arrangement (``weights.lattice_class_sum``, which falls back to
per-graph polytopes when no lattice fits).  The Monte Carlo path draws one
set of configurations per coefficient and scores each
(``weights.class_sum_mc``); its random stream comes from
``np.random.SeedSequence(seed, spawn_key=(family, order))``, so the streams
of different coefficients are independent for one user seed.
"""

from __future__ import annotations

import math

import numpy as np

from .potentials import Kind, Potential
# Unused here: bench/tracing.py wraps these names in this module, and its
# --trace 1 runs fail at install without them.
from .graphs import enumerate_graphs  # noqa: F401
from .weights import graph_weight_exact_1d, graph_weight_mc  # noqa: F401
from .weights import (CoefficientEstimate, biconnected_sum_batch, class_sum_mc,
                      kernel_sum_batch, lattice_class_sum, phi_t_batch,
                      resolve_method)

# spawn-key tags of the coefficient families' random streams
_FAMILY = {"b_n": 0, "beta_n": 1, "a_n": 2}


def _class_sum(score, p: Potential, m: int, family: str, order: int,
               method: str, n_samples: int, seed: int) -> CoefficientEstimate:
    """The rooted integral of the class sum that ``score`` evaluates on m
    vertices: exact over lattice cells, or Mayer-sampled from the
    coefficient's own stream."""
    if resolve_method(p, method) == "exact1d":
        return CoefficientEstimate(lattice_class_sum(score, p, m), 0.0, "exact1d")
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
    est = _class_sum(phi_t_batch, p, n, "b_n", n, method, n_samples, seed)
    return _scaled(est, 1.0 / math.factorial(n))


def irreducible_beta_n(p: Potential, n: int, method: str = "auto",
                       n_samples: int = 100_000, seed: int = 0) -> CoefficientEstimate:
    """beta_n = (1/n!) sum over 2-connected graphs on n+1 labeled vertices
    of the rooted weight."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if p.kind is Kind.ZERO:
        return CoefficientEstimate(0.0, 0.0, resolve_method(p, method))
    est = _class_sum(biconnected_sum_batch, p, n + 1, "beta_n", n, method,
                     n_samples, seed)
    return _scaled(est, 1.0 / math.factorial(n))


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
    est = _class_sum(kernel_sum_batch, p, n + 1, "a_n", n, method, n_samples, seed)
    return _scaled(est, -1.0)


def beta_table(p: Potential, max_order: int, method: str = "auto",
               n_samples: int = 100_000, seed: int = 0) -> dict[int, CoefficientEstimate]:
    return {k: irreducible_beta_n(p, k, method, n_samples, seed)
            for k in range(1, max_order + 1)}
