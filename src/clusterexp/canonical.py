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

Polymer activities, the 2-connected graph sum of B*(k) and the exact direct
oracle each integrate one class sum (phi^T, the 2-connected recursion, the
product of (1 + f)) over the lattice cells of the torus
(``weights.lattice_class_sum``), falling back to per-graph periodic
polytopes when no lattice fits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import Potential, abs_f_integral, stability_profile
# Unused here: bench/tracing.py wraps these names in this module, and its
# --trace 1 runs fail at install without them.
from .graphs import enumerate_graphs  # noqa: F401
from .weights import graph_weight_periodic_1d  # noqa: F401
from .weights import (CoefficientEstimate, biconnected_sum_batch,
                      lattice_class_sum, phi_t_batch, resolve_method)


def _require_periodic_1d(p: Potential, boundary: str):
    if boundary != "periodic":
        raise ValueError("only periodic boundaries are supported: the "
                         "2-connected reduction fails for free boundaries")
    if p.dimension != 1 or not p.piecewise_constant_f:
        raise ValueError("canonical exact path needs a piecewise-constant 1D potential")


@dataclass(frozen=True)
class PolymerActivity:
    size: int
    value: float
    volume: float
    boundary: str = "periodic"

    def __post_init__(self):
        if self.size == 1 and self.value != 1.0:
            raise ValueError("singleton polymers have activity 1")


def zeta(p: Potential, v_size: int, L: float, boundary: str = "periodic") -> PolymerActivity:
    """Polymer activity: sum over connected graphs on the label set of the
    normalized periodic weight.  Scales as L^{-(size-1)}."""
    _require_periodic_1d(p, boundary)
    if v_size < 1:
        raise ValueError("polymer size must be >= 1")
    if v_size == 1:
        return PolymerActivity(1, 1.0, L, boundary)
    if v_size > 5:
        raise ValueError("polymer activities capped at size 5")
    total = lattice_class_sum(phi_t_batch, p, v_size, L)
    return PolymerActivity(v_size, total, L, boundary)


def zeta_scaling_bound(p: Potential, v_size: int, L: float) -> float:
    """|zeta(V)| <= e^{n beta B} n^{n-2} C^{n-1} / L^{n-1}."""
    n = v_size
    C = abs_f_integral(p)
    B = stability_profile(p).B
    return math.exp(n * p.beta * B) * n ** max(n - 2, 0) * C ** (n - 1) / L ** (n - 1)


# ---------------------------------------------------------------------------
# polymer covering sums
# ---------------------------------------------------------------------------

def _polymers_of(k: int) -> list[frozenset]:
    """Subsets of [k+1] = {0..k} with at least two labels."""
    labels = range(k + 1)
    out = []
    for size in range(2, k + 2):
        out.extend(frozenset(c) for c in itertools.combinations(labels, size))
    return out


def _phi_t_multiset(polymers: list[frozenset]) -> float:
    """phi^T of a polymer collection under the hard-core overlap species:
    sum over connected graphs of prod (-1 if V_i and V_j overlap)."""
    n = len(polymers)
    if n == 1:
        return 1.0
    h = np.zeros((1, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if polymers[i] & polymers[j]:
                h[0, i, j] = h[0, j, i] = -1.0
    return float(phi_t_batch(h)[0])


def _covering_multisets(k: int, max_weight: int):
    """Multisets of polymers of [k+1] with union [k+1] and total weight
    sum(|V|-1) <= max_weight, yielded as (polymer list with repeats)."""
    polymers = _polymers_of(k)
    full = frozenset(range(k + 1))

    def rec(start: int, weight_left: int, chosen: list, union: frozenset):
        if union == full:
            yield list(chosen)
        if start == len(polymers):
            return
        # bound: remaining polymers must still be able to cover
        for idx in range(start, len(polymers)):
            v = polymers[idx]
            w = len(v) - 1
            if w > weight_left:
                continue
            max_rep = weight_left // w
            for rep in range(1, max_rep + 1):
                chosen.extend([v] * rep)
                yield from rec(idx + 1, weight_left - rep * w, chosen, union | v)
                del chosen[-rep:]

    yield from rec(0, max_weight, [], frozenset())


def _packing_partition_functions(k: int, zetas: dict[int, float]) -> list[float]:
    """Xi_m = sum over sets of pairwise-disjoint polymers inside [m] of
    prod zeta(|V|), for m = 0..k+1 (singletons carry weight 1).

    Recursion on the polymer containing label m: either none, or one of
    binom(m-1, s-1) polymers of size s.
    """
    xi = [1.0, 1.0]
    for m in range(2, k + 2):
        total = xi[m - 1]
        for s in range(2, m + 1):
            total += math.comb(m - 1, s - 1) * zetas[s] * xi[m - s]
        xi.append(total)
    return xi


def _covering_sum_exact(k: int, zetas: dict[int, float]) -> float:
    """sum_n (1/n!) sum over tuples (V_1..V_n) with union [k+1] of
    phi^T * prod zeta, summed in closed form.

    Dropping the covering constraint turns the connected sum into
    log Xi_{[S]} over any ground set S (the basic exp/log expansion of the
    hard-core polymer gas); the union constraint is restored by
    inclusion-exclusion over S.
    """
    xi = _packing_partition_functions(k, zetas)
    return sum((-1) ** (k + 1 - m) * math.comb(k + 1, m) * math.log(xi[m])
               for m in range(k + 2))


def _covering_sum_truncated(k: int, zetas: dict[int, float], truncation: int) -> float:
    """Same sum restricted to multisets of total weight sum(|V_i|-1) <=
    truncation; the discarded terms carry extra 1/L powers."""
    total = 0.0
    for ms in _covering_multisets(k, truncation):
        if len(ms) > 14:
            raise ValueError("truncation too large for explicit phi^T sums")
        phit = _phi_t_multiset(ms)
        if phit == 0.0:
            continue
        mult = 1.0
        for _, grp in itertools.groupby(sorted(ms, key=sorted)):
            mult *= math.factorial(len(list(grp)))
        total += phit * math.prod(zetas[len(v)] for v in ms) / mult
    return total


def canonical_B_k(p: Potential, k: int, L: float, truncation: int | None = None,
                  boundary: str = "periodic") -> dict:
    """B(k), its leading part B*(k) and the finite-volume remainder.

    B(k) = (L^k/k!) sum over polymer collections covering [k+1] of
    phi^T * prod zeta; evaluated in closed form (truncation=None) or as an
    explicit multiset sum truncated at total weight sum(|V|-1) <=
    truncation.  B*(k) keeps only distinct-polymer collections of weight
    exactly k; it equals (L^k/k!) * sum over 2-connected graphs on k+1
    vertices of the normalized weight, and both routes are returned.
    """
    _require_periodic_1d(p, boundary)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 4:
        raise ValueError("canonical coefficients capped at k = 4")
    zetas = {m: zeta(p, m, L).value for m in range(2, k + 2)}

    if truncation is None:
        total = _covering_sum_exact(k, zetas)
    else:
        total = _covering_sum_truncated(k, zetas, truncation)
    star_polymer = _covering_sum_truncated(k, zetas, k) - (
        _covering_sum_truncated(k, zetas, k - 1) if k > 1 else 0.0)
    # weight-k collections covering k+1 labels are automatically distinct
    scale = L ** k / math.factorial(k)
    B = scale * total
    B_star_polymer = scale * star_polymer

    star_graph = lattice_class_sum(biconnected_sum_batch, p, k + 1, L)
    B_star_graph = scale * star_graph
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
                          truncation: int | None = None,
                          boundary: str = "periodic") -> CanonicalExpansion:
    """Truncated expansion of log Z:
    log(L^N/N!) + N sum_{k<=K} (1/(k+1)) P_{N,L}(k) B(k).

    The remainder estimate fits C e^{-ck} to the last two retained terms
    (empirical constants; the decay itself is the certified property).
    Densities beyond the canonical certificate only set a warning flag.
    """
    _require_periodic_1d(p, boundary)
    if not 1 <= K < N:
        raise ValueError("need 1 <= K < N")
    from .convergence import canonical_radius
    cert = canonical_radius(p)
    C = abs_f_integral(p)
    within = (N / L) * C <= cert.bound_value

    ideal = N * math.log(L) - math.lgamma(N + 1)
    terms = {}
    total = ideal
    for k in range(1, K + 1):
        bk = canonical_B_k(p, k, L, truncation=truncation)
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


def direct_logZ_oracle(p: Potential, N: int, L: float, method: str = "auto",
                       n_samples: int = 200_000, seed: int = 0,
                       boundary: str = "periodic") -> CoefficientEstimate:
    """log Z by direct evaluation of (1/N!) int_{[0,L]^N} e^{-beta H}.

    The exact route integrates e^{-beta H}, the product of (1 + f) over all
    pairs, over the lattice cells of the torus (N <= 4);
    the MC route samples uniform configurations (N <= 8).
    """
    _require_periodic_1d(p, boundary)
    if method == "auto":
        method = "exact1d" if N <= 4 else "mc"
    method = resolve_method(p, method)
    if N < 1:
        raise ValueError("N must be >= 1")
    if method == "exact1d":
        if N > 4:
            raise ValueError("exact oracle capped at N = 4")
        total = lattice_class_sum(_boltzmann_product, p, N, L)
        log_z = N * math.log(L) - math.lgamma(N + 1) + math.log(total)
        return CoefficientEstimate(log_z, 0.0, "exact1d")
    if N > 8:
        raise ValueError("MC oracle capped at N = 8")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, L, size=(n_samples, N))
    boltz = np.ones(n_samples)
    for i in range(N):
        for j in range(i + 1, N):
            dx = np.abs(x[:, i] - x[:, j])
            dx = np.minimum(dx, L - dx)
            boltz *= p.boltzmann(dx)
    mean = float(boltz.mean())
    stderr = float(boltz.std(ddof=1) / math.sqrt(n_samples))
    log_z = N * math.log(L) - math.lgamma(N + 1) + math.log(mean)
    return CoefficientEstimate(log_z, stderr / mean, "mc", n_samples, seed)


def tonks_logZ(N: int, L: float, sigma: float = 1.0) -> float:
    """Closed-form periodic hard-rod partition function:
    Z = L (L - N sigma)^{N-1} / N!."""
    if N * sigma >= L:
        return -math.inf
    return math.log(L) + (N - 1) * math.log(L - N * sigma) - math.lgamma(N + 1)
