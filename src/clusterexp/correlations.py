"""Correlation-function series in activity and density, and the
order-by-order Ornstein-Zernike identity.

Conventions (order-0 terms pin the normalization): for n white points at
fixed positions, the order-k value of

  u^(n)  is (1/k!) sum over connected graphs with k blacks,
  rho^(n) is (1/k!) sum over graphs whose blacks all reach a white,
  h^(2)  is (1/k!) sum over articulation-free graphs,
  c^(2)  is (1/k!) sum over 2-connected graphs,

each weight integrating the black coordinates with the whites pinned.
With these factors h^(2) and c^(2) start at f(r) and satisfy
h_k = c_k + sum_j c_j * h_{k-1-j} orderwise (OZ with unit density factor
per order).

Each order integrates one class sum over the black positions, scored at
every configuration: phi^T for u, the 2-connected subset recursion for c,
the 2-connected sum with the white-white bond toggled for h, and a subset
recursion over the blacks that reach a white for rho.
``weights.class_integral`` integrates it with the whites pinned, exactly
over lattice cells in 1D or by Monte Carlo with one set of configurations
per order drawn from the stream ``weights.stream(seed, family, n, order)``,
so an order does not depend on K, and every separation r of a series
shares it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import EnumerationTooLarge
from .potentials import Kind, Potential
# Unused here: bench/tracing.py wraps these names in this module, and its
# --trace 1 runs fail at install without them.
from .graphs import enumerate_bicolored  # noqa: F401
from .weights import graph_weight_exact_1d, graph_weight_mc  # noqa: F401
from .weights import (CoefficientEstimate, _as_positions, _subset_phis,
                      biconnected_sum_batch, class_integral, phi_t_batch,
                      resolve_method, stream, torus_boltzmann_mc)


@dataclass(frozen=True)
class CorrelationSeries:
    n_points: int
    positions: tuple
    variable: str  # "z" | "rho"
    values: tuple
    std_errors: tuple

    def __post_init__(self):
        if len(self.values) != len(self.std_errors):
            raise ValueError("values and std_errors must align")


# ---------------------------------------------------------------------------
# bicolored class sums at a batch of configurations (whites first)
# ---------------------------------------------------------------------------

def articulation_free_pair_batch(f: np.ndarray) -> np.ndarray:
    """Sum over the articulation-free graphs on two whites (vertices 0, 1)
    and n - 2 blacks, for a batch of pair matrices (B, n, n).

    With a black, these are the graphs that the white-white edge would make
    2-connected, so the sum is (1 + f_01) (Bic|f_01=1 - Bic|f_01=0), Bic
    the 2-connected sum, scored in one ``biconnected_sum_batch`` call on
    2B rows (the bonded matrices, then the unbonded ones); with none, it is
    the edge f_01.  The identity fails for three whites."""
    if f.shape[1] == 2:
        return f[:, 0, 1]
    B = len(f)
    toggled = np.concatenate([f, f])
    toggled[:B, 0, 1] = toggled[:B, 1, 0] = 1.0
    toggled[B:, 0, 1] = toggled[B:, 1, 0] = 0.0
    bic = biconnected_sum_batch(toggled)
    return (1.0 + f[:, 0, 1]) * (bic[:B] - bic[B:])


def black_to_white_batch(f: np.ndarray, n_white: int) -> np.ndarray:
    """Sum over the graphs on n_white whites and the remaining blacks in
    which every black reaches a white, for a batch (B, n, n).

    Every graph splits into the part that reaches the whites W, on W + U,
    and any graph on the other blacks T - U, so with Phi(S) the product of
    (1 + f) over the pairs in S,
    A(W + T) = Phi(W + T) - sum over U a proper subset of T of
    A(W + U) Phi(T - U)."""
    phis = _subset_phis(f)
    whites = (1 << n_white) - 1
    A = []    # A[t]: the sum on W + T, T the blacks in bitmask t << n_white
    for t in range(1 << (f.shape[1] - n_white)):
        acc = phis[whites | t << n_white].copy()
        u = t
        while u:    # every proper submask u of t, from t - 1 down to 0
            u = (u - 1) & t
            acc -= A[u] * phis[(t & ~u) << n_white]
        A.append(acc)
    return A[-1]


def _series(p: Potential, n: int, positions, K: int, score, family: str,
            variable: str, method: str, n_samples: int,
            seed: int) -> CorrelationSeries:
    """Orders 0..K of (1/k!) times the integral of the class sum ``score``
    over k blacks, with the n whites pinned at ``positions``."""
    if K < 0:
        raise ValueError(f"need K >= 0, got {K}")
    pts = _as_positions(positions, p.dimension)
    if len(pts) != n:
        raise ValueError(f"need {n} positions, got {len(pts)}")
    vals, errs = [], []
    for k in range(K + 1):
        est = class_integral(score, p, n + k, method, n_samples, seed,
                             (family, n, k), root_positions=pts)
        vals.append(est.value / math.factorial(k))
        errs.append(est.std_error / math.factorial(k))
    return CorrelationSeries(n, tuple(np.ravel(positions)), variable,
                             tuple(vals), tuple(errs))


def u_n_activity(p: Potential, n: int, positions, K: int, method: str = "auto",
                 n_samples: int = 100_000, seed: int = 0) -> CorrelationSeries:
    """Truncated (Ursell) correlation series: connected graphs with n white
    and k black vertices; the z^n prefactor is left to the caller."""
    return _series(p, n, positions, K, phi_t_batch, "u", "z",
                   method, n_samples, seed)


def rho_n_activity(p: Potential, n: int, positions, K: int, method: str = "auto",
                   n_samples: int = 100_000, seed: int = 0) -> CorrelationSeries:
    """n-point density series: graphs where every black vertex has a path
    to some white vertex (whites may be mutually disconnected)."""
    return _series(p, n, positions, K,
                   lambda f: black_to_white_batch(f, n), "rho", "z",
                   method, n_samples, seed)


def rho_2_from_u(p: Potential, positions, K: int, method: str = "auto",
                 n_samples: int = 100_000, seed: int = 0) -> CorrelationSeries:
    """rho^(2) assembled from the partition identity
    rho^(2)(x1,x2) = u^(2)(x1,x2) + u^(1)(x1) u^(1)(x2), orderwise in z.
    u^(1) does not depend on the point, so one series serves both."""
    u2 = u_n_activity(p, 2, positions, K, method, n_samples, seed)
    u1 = u_n_activity(p, 1, positions[:1], K, method, n_samples, seed)
    vals, errs = [], []
    for k in range(K + 1):
        v = u2.values[k] + sum(u1.values[j] * u1.values[k - j] for j in range(k + 1))
        # the two u^(1) factors share one stream, so their errors add
        e = math.hypot(u2.std_errors[k],
                       sum(abs(u1.values[j]) * u1.std_errors[k - j]
                           + u1.std_errors[j] * abs(u1.values[k - j])
                           for j in range(k + 1)))
        vals.append(v)
        errs.append(e)
    return CorrelationSeries(2, tuple(np.ravel(positions)), "z",
                             tuple(vals), tuple(errs))


def h_n_density(p: Potential, n: int, positions, K: int, method: str = "auto",
                n_samples: int = 100_000, seed: int = 0) -> CorrelationSeries:
    """Density series of the truncated pair correlation: articulation-free
    graphs.  Order 0 equals f(r).  Only the pair (n = 2) is implemented:
    its class sum is read off the 2-connected one by an identity that
    fails for three whites."""
    if n != 2:
        raise ValueError("h_n_density is implemented for the pair (n = 2)")
    return _series(p, n, positions, K, articulation_free_pair_batch, "h", "rho",
                   method, n_samples, seed)


def c2_density(p: Potential, r: float, K: int, method: str = "auto",
               n_samples: int = 100_000, seed: int = 0) -> CorrelationSeries:
    """Direct correlation function series: 2-connected graphs on 2 whites
    pinned at separation r."""
    return _series(p, 2, (0.0, r), K, biconnected_sum_batch, "c",
                   "rho", method, n_samples, seed)


def h2_density_at(p: Potential, r: float, K: int, **kw) -> CorrelationSeries:
    return h_n_density(p, 2, (0.0, r), K, **kw)


# ---------------------------------------------------------------------------
# exact radial convolutions (1D) and the hard-sphere lens volume
# ---------------------------------------------------------------------------

def lens_volume(sigma: float, r: float) -> float:
    """Volume of the intersection of two radius-sigma balls at distance r;
    equals (f*f)(r) for hard spheres."""
    if r >= 2.0 * sigma:
        return 0.0
    return math.pi * (4.0 * sigma + r) * (2.0 * sigma - r) ** 2 / 12.0


def _kink_candidates(p: Potential, order: int, support: float) -> np.ndarray:
    """Superset of radii in [0, support] where order-k correlation
    functions can kink: every nonnegative signed sum of up to k + 3
    breakpoints of f."""
    breaks = [r for r, _ in p.f_jumps()]
    n = order + 3
    sums = {sum(c * b for c, b in zip(coeffs, breaks))
            for coeffs in itertools.product(range(-n, n + 1), repeat=len(breaks))
            if sum(map(abs, coeffs)) <= n}
    return np.array(sorted(s for s in sums if 0.0 <= s <= support))


def convolve_1d(a, b, r: float, support: float, breaks, nodes: int) -> float:
    """(a*b)(r) = int a(|s|) b(|r-s|) ds for even a, b that vanish beyond
    ``support``.

    The integrand is cut where it can kink: at s = 0 and s = r, and where
    |s| or |r - s| crosses a radius in ``breaks``.  When it is a polynomial
    of degree below 2 * ``nodes`` on each piece, as the order-by-order
    correlation functions are, Gauss-Legendre quadrature with ``nodes``
    points per piece is exact."""
    lo = max(-support, r - support)
    hi = min(support, r + support)
    if hi <= lo:
        return 0.0
    cuts = {lo, hi}
    for q in (0.0, *np.asarray(breaks, dtype=float)):
        for s in (q, -q, r - q, r + q):
            if lo < s < hi:
                cuts.add(float(s))
    edges = np.array(sorted(cuts))
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for s0, s1 in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
        vals = np.array([a(abs(s)) * b(abs(r - s)) for s in mid + half * x])
        total += half * float(np.dot(w, vals))
    return total


def oz_residual_order(p: Potential, k: int, r_grid, method: str = "auto",
                      n_samples: int = 200_000, seed: int = 0) -> dict:
    """Residual of h_k = c_k + sum_{j<k} c_j * h_{k-1-j} on a grid of
    separations.  Returns per-point residuals, their max and the combined
    statistical error (zero on the exact path)."""
    method = resolve_method(p, method)
    r_grid = np.asarray(r_grid, dtype=float)

    cache: dict = {}

    def order_at(series, j, r, K):
        """Order j at r of ``series`` (h2_density_at or c2_density), from
        its orders 0..K; order j does not depend on K."""
        key = (series, K, round(float(r), 12))
        if key not in cache:
            cache[key] = series(p, float(r), K, method=method,
                                n_samples=n_samples, seed=seed)
        return cache[key].values[j], cache[key].std_errors[j]

    support = p.interaction_range * (k + 2)
    breaks = _kink_candidates(p, k, support)

    residuals, errors = [], []
    for r in r_grid:
        hv, he = order_at(h2_density_at, k, r, k)
        cv, ce = order_at(c2_density, k, r, k)
        conv_total = 0.0
        for j in range(k):
            if method == "exact1d":
                conv_total += convolve_1d(
                    lambda s: order_at(c2_density, j, s, k - 1)[0],
                    lambda s: order_at(h2_density_at, k - 1 - j, s, k - 1)[0],
                    float(r), support, breaks, k)
            elif p.kind is Kind.HARD_SPHERE and k == 1:
                conv_total += lens_volume(p.sigma, float(r))
            else:
                raise ValueError("OZ convolutions implemented exactly in 1D "
                                 "and for hard spheres at order 1")
        residuals.append(hv - cv - conv_total)
        errors.append(math.hypot(he, ce))
    residuals = np.array(residuals)
    return {"r": r_grid, "residual": residuals, "std_error": np.array(errors),
            "max_abs": float(np.max(np.abs(residuals)))}


# ---------------------------------------------------------------------------
# grand-canonical finite-volume oracle
# ---------------------------------------------------------------------------

def _hard_rod_arc_volume(ell: float, k: int, sigma: float) -> float:
    """Integral over k labeled points in an arc of length ell between two
    rods, all consecutive gaps >= sigma (labeled, any order)."""
    free = ell - (k + 1) * sigma
    return free ** k if free >= 0 else 0.0


def _hard_rod_boltzmann_volume(xs, N: int, L: float, sigma: float) -> float:
    """int over [0,L]^N of the hard-rod indicator with the points xs fixed,
    periodic distance, by the ordering (arc) decomposition."""
    n = len(xs)
    if n == 0:
        if N == 0:
            return 1.0
        if N * sigma >= L:
            return 0.0
        return L * (L - N * sigma) ** (N - 1)
    xs = np.sort(np.mod(np.asarray(xs, dtype=float), L))
    arcs = list(np.diff(xs)) + [L - xs[-1] + xs[0]]
    if n == 1:
        arcs = [L]

    def rec(j: int, left: int) -> float:
        if j == len(arcs) - 1:
            return _hard_rod_arc_volume(arcs[j], left, sigma)
        total = 0.0
        for k in range(left + 1):
            v = _hard_rod_arc_volume(arcs[j], k, sigma)
            if v:
                total += math.comb(left, k) * v * rec(j + 1, left - k)
        return total

    return rec(0, N)


def gc_correlation_oracle(p: Potential, n: int, positions, z: float, L: float,
                          N_max: int = 6, method: str = "auto",
                          n_samples: int = 200_000, seed: int = 0) -> CoefficientEstimate:
    """Finite-volume grand-canonical rho^(n)(x_1..x_n) with the particle sum
    truncated at N_max: (1/Xi) sum_N (z^{n+N}/N!) int e^{-beta H} dy.

    "auto" is exact for hard rods, via the arc decomposition of the
    excluded-volume indicator, and Monte Carlo otherwise: for each N the
    numerator and then the denominator from ``torus_boltzmann_mc``, on one
    stream per N >= 1; N = 0 draws nothing and needs no seed.
    """
    if p.dimension != 1:
        raise ValueError("oracle is one-dimensional")
    if N_max < 0:
        raise ValueError("need N_max >= 0")
    if N_max > 6:
        raise EnumerationTooLarge("grand-canonical oracle particles", N_max, 6,
                                  2 ** (N_max * (N_max - 1) // 2))
    xs = tuple(float(x) for x in np.ravel(positions))
    if len(xs) != n:
        raise ValueError("need n positions")
    method = resolve_method(p, method, covered=p.kind is Kind.HARD_ROD)
    if z == 0.0:
        return CoefficientEstimate(0.0 if n >= 1 else 1.0, 0.0, "exact1d")
    if method == "exact1d":
        if p.kind is not Kind.HARD_ROD:
            raise ValueError("exact oracle path covers hard rods only")
        num = sum(z ** (n + N) / math.factorial(N)
                  * _hard_rod_boltzmann_volume(xs, N, L, p.sigma)
                  for N in range(N_max + 1))
        den = sum(z ** N / math.factorial(N)
                  * _hard_rod_boltzmann_volume((), N, L, p.sigma)
                  for N in range(N_max + 1))
        return CoefficientEstimate(num / den, 0.0, "exact1d")

    num, num_var = 0.0, 0.0
    den, den_var = 0.0, 0.0
    for N in range(N_max + 1):
        # each N >= 1 draws from its own stream, apart from the other N;
        # N = 0 draws nothing
        rng = stream(seed, "gc_oracle", n, N) if N else None
        mean_num, err_num = torus_boltzmann_mc(p, L, xs, N, n_samples, rng)
        mean_den, err_den = torus_boltzmann_mc(p, L, (), N, n_samples, rng)
        coef_num = z ** (n + N) * L ** N / math.factorial(N)
        coef_den = z ** N * L ** N / math.factorial(N)
        num += coef_num * mean_num
        den += coef_den * mean_den
        num_var += (coef_num * err_num) ** 2
        den_var += (coef_den * err_den) ** 2
    value = num / den
    stderr = abs(value) * math.hypot(math.sqrt(num_var) / max(num, 1e-300),
                                     math.sqrt(den_var) / den)
    if not N_max:
        return CoefficientEstimate(value, stderr, "mc")
    return CoefficientEstimate(value, stderr, "mc", n_samples, seed)
