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
recursion over the blacks that reach a white for rho.  The exact 1D path
sums it over lattice cells with the whites pinned
(``weights.lattice_class_sum``); Monte Carlo draws one set of
configurations per order (``weights.class_sum_mc``) from the stream
``np.random.SeedSequence(seed, spawn_key=(family, n, order))``, so an order
does not depend on K, and every separation r of a series shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Kind, Potential
# Unused here: bench/tracing.py wraps these names in this module, and its
# --trace 1 runs fail at install without them.
from .graphs import enumerate_bicolored  # noqa: F401
from .weights import graph_weight_exact_1d, graph_weight_mc  # noqa: F401
from .weights import (CoefficientEstimate, _subset_phis, biconnected_sum_batch,
                      class_sum_mc, lattice_class_sum, phi_t_batch,
                      resolve_method)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

# spawn-key tags of the series' random streams, after the coefficient
# families 0-2 of ``coefficients``
_FAMILY = {"u": 3, "rho": 4, "h": 5, "c": 6}


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

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def value(self, k: int) -> float:
        return self.values[k]


def _as_positions(positions, d: int):
    """(n, d) coordinates; bare scalars are placed along the first axis."""
    pts = np.asarray(positions, dtype=float)
    if pts.ndim == 1:
        out = np.zeros((len(pts), d))
        out[:, 0] = pts
        return out
    pts = np.atleast_2d(pts)
    if pts.shape[1] != d:
        if pts.shape[0] == 1:
            out = np.zeros((pts.shape[1], d))
            out[:, 0] = pts[0]
            return out
        raise ValueError(f"positions must be (n, {d})")
    return pts


# ---------------------------------------------------------------------------
# bicolored class sums at a batch of configurations (whites first)
# ---------------------------------------------------------------------------

def articulation_free_pair_batch(f: np.ndarray) -> np.ndarray:
    """Sum over the articulation-free graphs on two whites (vertices 0, 1)
    and n - 2 blacks, for a batch of pair matrices (B, n, n).

    With a black, these are the graphs that the white-white edge would make
    2-connected, so the sum is (1 + f_01) (Bic|f_01=1 - Bic|f_01=0), Bic
    the 2-connected sum; with none, it is the edge f_01.  The identity
    fails for three whites."""
    if f.shape[1] == 2:
        return f[:, 0, 1]
    bonded, unbonded = f.copy(), f.copy()
    bonded[:, 0, 1] = bonded[:, 1, 0] = 1.0
    unbonded[:, 0, 1] = unbonded[:, 1, 0] = 0.0
    return (1.0 + f[:, 0, 1]) * (biconnected_sum_batch(bonded)
                                 - biconnected_sum_batch(unbonded))


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
    method = resolve_method(p, method)
    pts = _as_positions(positions, p.dimension)
    if len(pts) != n:
        raise ValueError(f"need {n} positions, got {len(pts)}")
    vals, errs = [], []
    for k in range(K + 1):
        if p.kind is Kind.ZERO and k:
            # every class joins each black to a white by an f bond
            value, err = 0.0, 0.0
        elif method == "exact1d":
            value = lattice_class_sum(score, p, n + k,
                                      root_positions=tuple(pts[:, 0].tolist()))
            err = 0.0
        else:
            stream = np.random.SeedSequence(seed,
                                            spawn_key=(_FAMILY[family], n, k))
            value, err = class_sum_mc(score, p, n + k, n_samples,
                                      np.random.default_rng(stream),
                                      root_positions=pts)
        vals.append(value / math.factorial(k))
        errs.append(err / math.factorial(k))
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


def _pair_positions(p: Potential, r: float):
    """Two points at separation r, along the first axis."""
    if p.dimension == 1:
        return (0.0, r)
    return np.array([[0.0] * p.dimension, [r] + [0.0] * (p.dimension - 1)])


def c2_density(p: Potential, r: float, K: int, method: str = "auto",
               n_samples: int = 100_000, seed: int = 0) -> CorrelationSeries:
    """Direct correlation function series: 2-connected graphs on 2 whites
    pinned at separation r."""
    return _series(p, 2, _pair_positions(p, r), K, biconnected_sum_batch, "c",
                   "rho", method, n_samples, seed)


def h2_density_at(p: Potential, r: float, K: int, **kw) -> CorrelationSeries:
    return h_n_density(p, 2, _pair_positions(p, r), K, **kw)


# ---------------------------------------------------------------------------
# exact radial convolutions (1D) and the hard-sphere lens volume
# ---------------------------------------------------------------------------

def lens_volume(sigma: float, r: float) -> float:
    """Volume of the intersection of two radius-sigma balls at distance r;
    equals (f*f)(r) for hard spheres."""
    if r >= 2.0 * sigma:
        return 0.0
    return math.pi * (4.0 * sigma + r) * (2.0 * sigma - r) ** 2 / 12.0


def _kink_candidates(p: Potential, order: int) -> np.ndarray:
    """Superset of radii where order-k correlation functions can kink."""
    base = [p.sigma]
    if p.kind is Kind.SQUARE_WELL:
        base.append(p.lam * p.sigma)
    pts = {0.0}
    reach = order + 3
    stack = [(0.0, 0)]
    while stack:
        val, depth = stack.pop()
        if depth >= reach:
            continue
        for b in base:
            nv = val + b
            if nv not in pts:
                pts.add(nv)
                stack.append((nv, depth + 1))
    return np.array(sorted(pts))


def convolve_1d(a, b, r: float, support_a: float, support_b: float,
                breaks_a, breaks_b, panels: int = 2) -> float:
    """(a*b)(r) = int a(|s|) b(|r-s|) ds for even compactly supported a, b,
    by Gauss-Legendre quadrature on panels split at every kink of the
    integrand."""
    lo = max(-support_a, r - support_b)
    hi = min(support_a, r + support_b)
    if hi <= lo:
        return 0.0
    cuts = {lo, hi}
    for q in np.asarray(breaks_a, dtype=float):
        for s in (q, -q):
            if lo < s < hi:
                cuts.add(float(s))
    for q in np.asarray(breaks_b, dtype=float):
        for s in (r - q, r + q):
            if lo < s < hi:
                cuts.add(float(s))
    edges = np.array(sorted(cuts))
    total = 0.0
    for e0, e1 in zip(edges[:-1], edges[1:]):
        sub = np.linspace(e0, e1, panels + 1)
        for s0, s1 in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
            s = mid + half * _GL_NODES
            vals = np.array([a(abs(x)) * b(abs(r - x)) for x in s])
            total += half * float(np.dot(_GL_WEIGHTS, vals))
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
    breaks = _kink_candidates(p, k)

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
                    float(r), support, support, breaks, breaks)
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
    return free ** k if free > 0 else 0.0


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

    Exact for hard rods via the arc decomposition of the excluded-volume
    indicator; Monte Carlo otherwise.
    """
    if p.dimension != 1:
        raise ValueError("oracle is one-dimensional")
    if N_max > 6:
        raise ValueError("oracle capped at N_max = 6")
    xs = tuple(float(x) for x in np.ravel(positions))
    if len(xs) != n:
        raise ValueError("need n positions")
    if method == "auto":
        method = "exact1d" if p.kind is Kind.HARD_ROD else "mc"
    method = resolve_method(p, method)
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

    b_fixed = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(xs[i] - xs[j]) % L
            b_fixed *= float(p.boltzmann(min(dx, L - dx)))
    rng = np.random.default_rng(seed)
    num, num_var = 0.0, 0.0
    den, den_var = 0.0, 0.0
    for N in range(N_max + 1):
        coef_num = z ** (n + N) * L ** N / math.factorial(N)
        coef_den = z ** N * L ** N / math.factorial(N)
        if N == 0:
            num += coef_num * b_fixed
            den += coef_den
            continue
        y = rng.uniform(0.0, L, size=(n_samples, N))
        pts = np.concatenate([np.broadcast_to(np.array(xs), (n_samples, n)), y],
                             axis=1)
        boltz = np.ones(n_samples)
        m = n + N
        for i in range(m):
            for j in range(i + 1, m):
                if i < n and j < n:
                    continue
                dx = np.abs(pts[:, i] - pts[:, j]) % L
                boltz *= p.boltzmann(np.minimum(dx, L - dx))
        mean_num = float(boltz.mean()) * b_fixed
        # denominator samples: same N free particles, no fixed points
        y2 = rng.uniform(0.0, L, size=(n_samples, N))
        boltz2 = np.ones(n_samples)
        for i in range(N):
            for j in range(i + 1, N):
                dx = np.abs(y2[:, i] - y2[:, j]) % L
                boltz2 *= p.boltzmann(np.minimum(dx, L - dx))
        num += coef_num * mean_num
        den += coef_den * float(boltz2.mean())
        num_var += (coef_num * b_fixed * float(boltz.std(ddof=1))
                    / math.sqrt(n_samples)) ** 2
        den_var += (coef_den * float(boltz2.std(ddof=1)) / math.sqrt(n_samples)) ** 2
    value = num / den
    stderr = abs(value) * math.hypot(math.sqrt(num_var) / max(num, 1e-300),
                                     math.sqrt(den_var) / den)
    return CoefficientEstimate(value, stderr, "mc", n_samples, seed)
