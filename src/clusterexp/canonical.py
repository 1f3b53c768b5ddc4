"""Canonical-ensemble polymer expansion on a periodic 1D box.

Particles live on a length-L torus.  Rewriting the partition function over
"polymers" (subsets V of particle labels with |V| >= 2, carrying activity
zeta(V) = sum of connected-graph weights under the normalized measure)
turns log Z into

    log Z = log(L^N / N!) + N * sum_k (1/(k+1)) P_{N,L}(k) B(k),

with P_{N,L}(k) = (N-1)...(N-k)/L^k and B(k) a volume-independent-scale sum
over polymer collections covering [k+1].  Periodic boundaries are required:
the reduction of the leading part B*(k) to 2-connected graphs only holds on
the torus.

The covering sum is log Xi by inclusion-exclusion over the label sets,
with Xi_m the partition function of the polymer packings of m labels from
one recursion.  Fed the activities as exact rationals it gives B(k) in
closed form, the log of one exact product of powers of Xi_m, so that the
inclusion-exclusion cancels without rounding; fed zeta(V) w^(|V|-1), a
series in a weight variable w whose every unit is one power of 1/L, it
gives the same sum graded by weight, so B(k) truncated at any total weight
and the leading part B*(k) (weight exactly k) are read off its
coefficients.

Polymer activities and the 2-connected graph sum of B*(k) are connected
class sums (phi^T, the 2-connected recursion) with one particle pinned,
integrated on the torus by ``weights.class_integral`` on the streams of
b_m and beta_k.  The exact direct oracle integrates the product of
(1 + f), which does not vanish on disconnected configurations, over the
lattice cells of the torus itself (``weights.lattice_class_sum``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .convergence import canonical_radius
from .graphs import EnumerationTooLarge
from .potentials import Potential, abs_f_integral, stability_profile
from .series import TruncatedSeries, series_log
# Unused here: bench/tracing.py wraps these names in this module, and its
# --trace 1 runs fail at install without them.
from .graphs import enumerate_graphs  # noqa: F401
from .weights import graph_weight_periodic_1d  # noqa: F401
from .weights import (CoefficientEstimate, biconnected_sum_batch,
                      class_integral, lattice_class_sum, phi_t_batch,
                      require_exact_1d, resolve_method, stream,
                      torus_boltzmann_mc)

# Largest N of the exact direct oracle, which "auto" picks up to this size,
# and of the Monte Carlo one.
EXACT_ORACLE_MAX_N = 4
MC_ORACLE_MAX_N = 8


def zeta(p: Potential, v_size: int, L: float) -> float:
    """Polymer activity: sum over connected graphs on the label set of the
    normalized periodic weight.  Scales as L^{-(size-1)}; singletons have
    activity 1."""
    require_exact_1d(p, L)
    if v_size < 1:
        raise ValueError("polymer size must be >= 1")
    if v_size > 5:
        raise EnumerationTooLarge("polymer activities", v_size, 5,
                                  2 ** (v_size * (v_size - 1) // 2))
    return class_integral(phi_t_batch, p, v_size, "exact1d", 0, 0,
                          ("b_n", v_size), L=L).value


def zeta_scaling_bound(p: Potential, v_size: int, L: float) -> float:
    """|zeta(V)| <= e^{n beta B} n^{n-2} C^{n-1} / L^{n-1}."""
    n = v_size
    C = abs_f_integral(p)
    B = stability_profile(p).B
    return math.exp(n * p.beta * B) * n ** max(n - 2, 0) * C ** (n - 1) / L ** (n - 1)


# ---------------------------------------------------------------------------
# polymer covering sums
# ---------------------------------------------------------------------------

# Xi_m at most this fraction of the sum of its terms' sizes is 0 up to
# rounding.
XI_ROUNDING = 64 * sys.float_info.epsilon


def _packing_partition_functions(k: int, zetas: dict) -> list:
    """Xi_m = sum over sets of pairwise-disjoint polymers inside [m] of
    prod zeta(|V|), for m = 0..k+1, with zetas[s] the activity of a size-s
    polymer in any ring (floats, or series in the weight variable);
    zetas[1], the singleton's, is the ring's 1.

    Recursion on the polymer containing label m: either none, or one of
    binom(m-1, s-1) polymers of size s.
    """
    xi = [zetas[1], zetas[1]]
    for m in range(2, k + 2):
        total = xi[m - 1]
        for s in range(2, m + 1):
            total += math.comb(m - 1, s - 1) * zetas[s] * xi[m - s]
        xi.append(total)
    return xi


def _signs(labels: int) -> list[int]:
    """The inclusion-exclusion weights (-1)^(labels-m) binom(labels, m),
    m = 0..labels, of log Xi_m in the covering sum."""
    return [(-1) ** (labels - m) * math.comb(labels, m)
            for m in range(labels + 1)]


def _covering_sum(xi: list) -> TruncatedSeries:
    """sum_n (1/n!) sum over tuples (V_1..V_n) with union [k+1] of
    phi^T * prod zeta, summed in closed form from the packing partition
    functions ``xi`` = Xi_0..Xi_{k+1}, series in the weight variable.

    Dropping the covering constraint turns the connected sum into
    log Xi_{[S]} over any ground set S (the basic exp/log expansion of the
    hard-core polymer gas); the union constraint is restored by
    inclusion-exclusion over S.
    """
    terms = [e * series_log(x) for e, x in zip(_signs(len(xi) - 1), xi)]
    return sum(terms[1:], terms[0])


def _graded(value: float, weight: int, order: int) -> TruncatedSeries:
    """value * w^weight, truncated at w^order."""
    coeffs = [0.0] * (order + 1)
    if weight <= order:
        coeffs[weight] = value
    return TruncatedSeries(coeffs)


def _require_order(k: int):
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 4:
        raise EnumerationTooLarge("canonical coefficients B(k) on k + 1 labels",
                                  k + 1, 5, 2 ** (k * (k + 1) // 2))


def canonical_B_k(p: Potential, k: int, L: float,
                  truncation: int | None = None) -> dict:
    """B(k), its leading part B*(k) and the finite-volume remainder.

    B(k) = (L^k/k!) sum over polymer collections covering [k+1] of
    phi^T * prod zeta; evaluated in closed form (truncation=None) or
    restricted to collections of total weight sum(|V|-1) <= truncation,
    any integer (a covering of k+1 labels weighs at least k, so
    truncation < k gives 0).  B*(k) keeps the collections of weight
    exactly k; it equals (L^k/k!) * sum over 2-connected graphs on k+1
    vertices of the normalized weight, and both routes are returned.
    """
    require_exact_1d(p, L)
    _require_order(k)
    return _coefficient(p, k, L, truncation,
                        {m: zeta(p, m, L) for m in range(1, k + 2)})


def _coefficient(p: Potential, k: int, L: float, truncation: int | None,
                 zetas: dict) -> dict:
    """``canonical_B_k`` from the activities zetas[1..k+1] at (p, L)."""
    zetas = {m: zetas[m] for m in range(1, k + 2)}
    order = k if truncation is None else max(k, truncation)
    graded = _covering_sum(_packing_partition_functions(
        k, {m: _graded(z, m - 1, order) for m, z in zetas.items()}))

    if truncation is None:
        xi = _packing_partition_functions(
            k, {m: Fraction(z) for m, z in zetas.items()})
        # Xi_m is the chance that m uniform particles do not overlap: 0 once
        # m of them do not fit, which rounding leaves within a few ulps of
        # the sum of its terms' sizes, Xi_m at the activities |zeta|
        size = _packing_partition_functions(
            k, {m: abs(z) for m, z in zetas.items()})
        bad = [m for m, (x, s) in enumerate(zip(xi, size))
               if x <= XI_ROUNDING * s]
        if bad:
            raise ValueError(f"{k + 1} particles do not fit in L = {L}: "
                             f"Xi_{bad[0]} = {float(xi[bad[0]])!r} is within "
                             "rounding of 0 and has no logarithm")
        # the covering sum is log prod Xi_m^(e_m); the product is formed
        # exactly, so that its cancellation, which grows with L, rounds once
        product = math.prod(x ** e for e, x in zip(_signs(k + 1), xi))
        total = math.log1p(float(product - 1))
    else:
        total = sum(graded[j] for j in range(k, truncation + 1))
    scale = L ** k / math.factorial(k)
    B = scale * total
    B_star_polymer = scale * graded[k]

    B_star_graph = scale * class_integral(
        biconnected_sum_batch, p, k + 1, "exact1d", 0, 0, ("beta_n", k),
        L=L).value
    return {
        "B": B,
        "B_star": B_star_graph,
        "B_star_polymer": B_star_polymer,
        "remainder": B - B_star_graph,
        "truncation": truncation,
    }


def prefactor(N: int, L: float, k: int) -> float:
    """P_{N,L}(k) = (N-1)...(N-k) / L^k."""
    num = 1.0
    for i in range(1, k + 1):
        num *= (N - i)
    return num / L ** k


@dataclass
class CanonicalExpansion:
    N: int
    L: float
    K: int
    coefficients: dict = field(default_factory=dict)
    log_z: float = 0.0
    remainder_estimate: float = 0.0
    within_certificate: bool = True


def canonical_free_energy(p: Potential, N: int, L: float, K: int,
                          truncation: int | None = None) -> CanonicalExpansion:
    """Truncated expansion of log Z:
    log(L^N/N!) + N sum_{k<=K} (1/(k+1)) P_{N,L}(k) B(k).

    The remainder estimate fits C e^{-ck} to the last two retained terms.
    It is a heuristic, not a bound: for the square well (sigma 1, lambda
    1.5, beta epsilon 1) at N = 10, L = 20, K = 3 it is 0.0065 against a
    true error of 0.139.  Densities beyond the canonical certificate only
    set a warning flag.
    """
    require_exact_1d(p, L)
    if not 1 <= K < N:
        raise ValueError("need 1 <= K < N")
    _require_order(K)
    cert = canonical_radius(p)
    C = abs_f_integral(p)
    within = (N / L) * C <= cert.bound_value

    ideal = N * math.log(L) - math.lgamma(N + 1)
    zetas = {m: zeta(p, m, L) for m in range(1, K + 2)}
    terms = {}
    total = ideal
    for k in range(1, K + 1):
        bk = _coefficient(p, k, L, truncation, zetas)
        term = N * prefactor(N, L, k) * bk["B"] / (k + 1)
        terms[k] = {"B": bk["B"], "B_star": bk["B_star"], "term": term}
        total += term
    if K >= 2 and terms[K]["term"] != 0 and terms[K - 1]["term"] != 0:
        ratio = abs(terms[K]["term"] / terms[K - 1]["term"])
        remainder = abs(terms[K]["term"]) * ratio / max(1e-300, 1.0 - min(ratio, 0.5))
    else:
        remainder = abs(terms[K]["term"])
    return CanonicalExpansion(N, L, K, terms, total, remainder, within)


# ---------------------------------------------------------------------------
# direct oracles
# ---------------------------------------------------------------------------

def _boltzmann_product(f: np.ndarray) -> np.ndarray:
    """Product of (1 + f) over all pairs, the sum over all graphs of the
    f-bond product, for a batch of pair matrices (B, n, n)."""
    i, j = np.triu_indices(f.shape[1], 1)
    return np.prod(1.0 + f[:, i, j], axis=1)


def oracle_method(p: Potential, N: int, method: str) -> str:
    """The path of the direct oracle: "auto" is exact up to
    ``EXACT_ORACLE_MAX_N`` particles."""
    return resolve_method(p, method, covered=N <= EXACT_ORACLE_MAX_N)


def direct_logZ_oracle(p: Potential, N: int, L: float, method: str = "auto",
                       n_samples: int = 200_000, seed: int = 0) -> CoefficientEstimate:
    """log Z by direct evaluation of (1/N!) int_{[0,L]^N} e^{-beta H}.

    Both routes give -inf, with nothing integrated or drawn, when the N hard
    cores do not fit (N sigma >= L, as ``tonks_logZ``).  The exact route
    integrates e^{-beta H}, the product of (1 + f) over all pairs, over the
    lattice cells of the torus (N <= EXACT_ORACLE_MAX_N) and raises when
    the integral is not positive although the cores fit; the MC route
    averages e^{-beta H} over uniform configurations
    (``torus_boltzmann_mc``, N <= MC_ORACLE_MAX_N), draws nothing at
    N = 1, which has no pair, and raises when no sample has nonzero weight.
    A larger N raises ``EnumerationTooLarge``.
    """
    require_exact_1d(p)
    method = oracle_method(p, N, method)
    if N < 1:
        raise ValueError("N must be >= 1")
    cap = EXACT_ORACLE_MAX_N if method == "exact1d" else MC_ORACLE_MAX_N
    if N > cap:
        raise EnumerationTooLarge(f"direct {method} oracle", N, cap,
                                  2 ** (N * (N - 1) // 2))
    # a nonzero piecewise-constant f starts with a hard core of sigma
    if p.f_pieces() and N * p.sigma >= L:
        return CoefficientEstimate(-math.inf, 0.0, method)
    ideal = N * math.log(L) - math.lgamma(N + 1)
    if method == "exact1d":
        total = lattice_class_sum(_boltzmann_product, p, N, L)
        if total <= 0:
            raise ValueError(f"the exact integral of e^(-beta H) over {N} "
                             f"particles at L = {L} is {total!r}, not "
                             "positive, although their hard cores fit")
        return CoefficientEstimate(ideal + math.log(total), 0.0, "exact1d")
    if N == 1:
        # one particle has no pair: Z = L, with nothing to draw
        return CoefficientEstimate(ideal, 0.0, "mc")
    mean, stderr = torus_boltzmann_mc(p, L, (), N, n_samples,
                                      stream(seed, "direct_logZ", N))
    if not mean:
        raise ValueError(f"no sample had nonzero weight ({n_samples} uniform "
                         f"configurations of {N} particles at L = {L})")
    return CoefficientEstimate(ideal + math.log(mean), stderr / mean, "mc",
                               n_samples, seed)


def tonks_logZ(N: int, L: float, sigma: float = 1.0) -> float:
    """Closed-form periodic hard-rod partition function:
    Z = L (L - N sigma)^{N-1} / N!."""
    if N * sigma >= L:
        return -math.inf
    return math.log(L) + (N - 1) * math.log(L - N * sigma) - math.lgamma(N + 1)
