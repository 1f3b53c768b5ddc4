"""Cluster coefficients b_n, irreducible coefficients beta_n and the
inversion kernels a_n, from class sums of weighted graph integrals.

All coefficients use the origin-pinning convention: one vertex is fixed at
the origin and the remaining coordinates integrate over R^d, which replaces
the 1/volume normalization of a finite box for tempered potentials.

Each coefficient integrates one class sum over the configurations of its
vertices: phi^T for b_n, the 2-connected subset recursion for beta_n and
the kernel product for a_n.  ``weights.class_integral`` integrates it, by
the rule it applies to every coefficient and correlation order: exactly
over the cells of a lattice arrangement in 1D, or by Monte Carlo with one
set of configurations drawn from the coefficient's own stream
``weights.stream(seed, family, order)``, so the streams of different
coefficients are independent for one user seed.
"""

from __future__ import annotations

import dataclasses
import math

from .potentials import Potential
# Unused here: bench/tracing.py wraps these names in this module, and its
# --trace 1 runs fail at install without them.
from .graphs import enumerate_graphs  # noqa: F401
from .weights import graph_weight_exact_1d, graph_weight_mc  # noqa: F401
from .weights import (CoefficientEstimate, biconnected_sum_batch,
                      class_integral, kernel_sum_batch, phi_t_batch,
                      resolve_method)


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
    est = class_integral(phi_t_batch, p, n, method, n_samples, seed, ("b_n", n))
    return _scaled(est, 1.0 / math.factorial(n))


def irreducible_beta_n(p: Potential, n: int, method: str = "auto",
                       n_samples: int = 100_000, seed: int = 0) -> CoefficientEstimate:
    """beta_n = (1/n!) sum over 2-connected graphs on n+1 labeled vertices
    of the rooted weight."""
    if n < 1:
        raise ValueError("order must be >= 1")
    est = class_integral(biconnected_sum_batch, p, n + 1, method, n_samples,
                         seed, ("beta_n", n))
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
    est = class_integral(kernel_sum_batch, p, n + 1, method, n_samples, seed,
                         ("a_n", n))
    # 0.0 - value, not -value: a vanishing kernel stays +0.0
    return dataclasses.replace(est, value=0.0 - est.value)


def beta_table(p: Potential, max_order: int, method: str = "auto",
               n_samples: int = 100_000, seed: int = 0) -> dict[int, CoefficientEstimate]:
    return {k: irreducible_beta_n(p, k, method, n_samples, seed)
            for k in range(1, max_order + 1)}
