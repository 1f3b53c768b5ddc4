"""Weighted graph integrals: exact 1D, periodic 1D, and Monte Carlo.

For piecewise-constant Mayer functions in 1D (hard rods, square well) the
integrand is constant on the cells of the arrangement x_i - x_j in h Z,
where every breakpoint of f (and the box length on the torus) is an
integer multiple of h.  ``lattice_class_sum`` integrates a whole class sum
(connected, 2-connected, kernel, the product of (1 + f), or a bicolored
class of the correlation functions) exactly by one pass over these cells,
one point per cell, with one vertex or several pinned at any positions on
the line.  When the cells would take longer than the per-graph polytopes
(as when no lattice fits, for lambda = sqrt(2)), it sums graph by graph
instead: ``graph_weight_exact_1d`` and ``graph_weight_periodic_1d`` split
each graph's integrand into convex polytopes of constant value, and a
shortest-path (Floyd-Warshall) closure of each polytope's constraints
decides emptiness and boundedness and gives Qhull its facets and an
interior point.  Otherwise Monte Carlo: ``class_sum_mc`` samples a whole
class sum (connected, 2-connected, kernel or bicolored, from subset
recursions at each configuration) under a mixture over all spanning trees
on a root, which stands for the pinned vertices, and the free ones, with
tree edges drawn from a radial density proportional to |f|;
``graph_weight_mc`` scores one graph's bond product the same way.

``class_integral`` is the estimator of every coefficient and correlation
order: it picks the path, gives 0 for f = 0, and draws Monte Carlo
configurations from ``stream``, one spawn key per estimate.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (MAX_EXHAUSTIVE_N, EnumerationTooLarge, Graph, bfs_tree,
                     prufer_trees)
from .potentials import SURFACE_AREA, Kind, Potential


# These wrappers exist only for bench/tracing.py, which wraps these names
# here (``linprog`` is called nowhere).  Each loads scipy when called, so
# importing clusterexp loads no scipy module.
def linprog(*args, **kwargs):
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def HalfspaceIntersection(*args, **kwargs):
    from scipy.spatial import HalfspaceIntersection
    return HalfspaceIntersection(*args, **kwargs)


def ConvexHull(*args, **kwargs):
    from scipy.spatial import ConvexHull
    return ConvexHull(*args, **kwargs)


# ---------------------------------------------------------------------------
# polytope volumes
# ---------------------------------------------------------------------------

# A region is empty or flat when its closure leaves some pair of
# coordinates no more than this much room; its volume is then 0.
FLAT_TOL = 1e-12


def difference_polytope_volume(k, constraints, box=None):
    """Volume of {x in R^k : lo <= x_i - x_j <= hi for the constraints}.

    Index -1 in a constraint denotes the constant 0 (a pinned vertex);
    ``box`` optionally bounds every variable to [box[0], box[1]].
    Returns 0.0 for infeasible or lower-dimensional regions; raises if the
    region is unbounded.

    The constraints form a system of difference constraints on the nodes
    0..k-1 plus node k, the constant 0.  One Floyd-Warshall closure gives
    d[a, b], the least upper bound of x_b - x_a, which decides emptiness,
    flatness and boundedness and yields the facets and an interior point.
    """
    for i, j, lo, hi in constraints:
        if i == j and (lo > 0 or hi < 0):
            return 0.0
    if k == 0:
        return 1.0
    d = np.full((k + 1, k + 1), math.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, lo, hi in constraints:
        # index -1 is node k; x_i - x_j <= hi and x_j - x_i <= -lo
        d[j, i] = min(d[j, i], hi)
        d[i, j] = min(d[i, j], -lo)
    if box is not None:
        d[k, :k] = np.minimum(d[k, :k], box[1])
        d[:k, k] = np.minimum(d[:k, k], -box[0])
    for m in range(k + 1):
        d = np.minimum(d, d[:, m, None] + d[None, m, :])
    # a negative cycle, so an empty region, shows as a negative width
    width = d + d.T
    np.fill_diagonal(width, math.inf)
    if width.min() <= FLAT_TOL:
        return 0.0
    if not np.isfinite(d).all():
        raise ValueError("unbounded integration region")
    if k == 1:
        return float(width[1, 0])
    # Each source s gives a feasible point x_v = d[s, v] - d[s, k].  For a
    # bound x_b - x_a <= w the source-b point has x_b - x_a = -d[b, a],
    # below d[a, b] <= w since the region is full-dimensional, so the
    # mean over sources is strictly interior.
    interior = (d[:, :k] - d[:, k:]).mean(axis=0)
    a, b = np.nonzero(~np.eye(k + 1, dtype=bool))
    normals = (np.eye(k + 1)[b] - np.eye(k + 1)[a])[:, :k]
    hs = HalfspaceIntersection(np.c_[normals, -d[a, b]], interior)
    return float(ConvexHull(hs.intersections).volume)


# ---------------------------------------------------------------------------
# exact one-dimensional weights
# ---------------------------------------------------------------------------

MAX_EXACT_BLACK = 5


def _delta_branches(piece, shifts=(0.0,)):
    """Convex branches of {Delta : |Delta| in [r_lo, r_hi)} (+ periodic
    images), each as (lo, hi, value)."""
    r_lo, r_hi, val = piece
    if r_lo == 0.0:
        base = [(-r_hi, r_hi, val)]
    else:
        base = [(r_lo, r_hi, val), (-r_hi, -r_lo, val)]
    return [(lo + s, hi + s, val) for lo, hi, val in base for s in shifts]


def _edge_terms(g: Graph, p: Potential, positions, shifts=(0.0,), box=None):
    """Split edges into a constant prefactor (edges between fixed vertices)
    and per-edge convex branch lists over the free coordinates."""
    n_free = g.n_vertices - len(positions)
    fixed = dict(enumerate(positions))

    def var(v):
        return v - len(positions) if v >= len(positions) else None

    prefactor = 1.0
    edge_branches = []
    edge_vars = []
    pieces = p.f_pieces()
    for i, j in g.edges:
        vi, vj = var(i), var(j)
        if vi is None and vj is None:
            r = abs(fixed[i] - fixed[j])
            if box is not None:
                L = box[1] - box[0]
                r = min(r % L, L - r % L)
            prefactor *= float(p.mayer_f(r))
            if prefactor == 0.0:
                return 0.0, [], [], n_free
            continue
        offset = 0.0
        if vi is None:
            offset += fixed[i]
        if vj is None:
            offset -= fixed[j]
        branches = [(lo - offset, hi - offset, val)
                    for piece in pieces
                    for lo, hi, val in _delta_branches(piece, shifts)]
        edge_branches.append(branches)
        edge_vars.append((vi if vi is not None else -1,
                          vj if vj is not None else -1))
    return prefactor, edge_branches, edge_vars, n_free


def _sum_branch_combinations(prefactor, edge_branches, edge_vars, n_free, box):
    if prefactor == 0.0:
        return 0.0
    total = 0.0
    for combo in itertools.product(*edge_branches):
        val = prefactor
        constraints = []
        for (vi, vj), (lo, hi, v) in zip(edge_vars, combo):
            val *= v
            constraints.append((vi, vj, lo, hi))
        if val == 0.0:
            continue
        vol = difference_polytope_volume(n_free, constraints, box=box)
        if vol:
            total += val * vol
    return total


def graph_weight_exact_1d(g: Graph, p: Potential, root_positions=(0.0,)):
    """Infinite-volume rooted weight: the first len(root_positions) vertices
    are fixed at the given 1D positions, the rest integrate over R.

    Exact for piecewise-constant f.  The graph must connect every free
    vertex to a fixed one (else the integral diverges).
    """
    if not p.piecewise_constant_f:
        raise ValueError("use MC path: f is not piecewise constant")
    if p.dimension != 1:
        raise ValueError("exact path is one-dimensional")
    n_black = g.n_vertices - len(root_positions)
    if n_black > MAX_EXACT_BLACK:
        raise ValueError(f"exact path capped at {MAX_EXACT_BLACK} free vertices")
    if n_black < 0:
        raise ValueError("more roots than vertices")
    if p.kind is Kind.ZERO:
        if g.n_edges > 0:
            return 0.0
        if n_black > 0:
            raise ValueError("unbounded integration region")
        return 1.0
    prefactor, eb, ev, n_free = _edge_terms(g, p, root_positions)
    return _sum_branch_combinations(prefactor, eb, ev, n_free, box=None)


def graph_weight_periodic_1d(g: Graph, p: Potential, L: float):
    """Normalized periodic weight: integral over the length-L torus of the
    product of periodic f bonds, with one factor dx/L per vertex.

    Translation invariance pins vertex 0; periodic distances are realized
    by image shifts, valid because the interaction range is < L/2.
    """
    if not p.piecewise_constant_f:
        raise ValueError("use MC path: f is not piecewise constant")
    if p.dimension != 1:
        raise ValueError("periodic exact path is one-dimensional")
    if p.interaction_range >= L / 2:
        raise ValueError("interaction range must be < L/2 for image expansion")
    n_free = g.n_vertices - 1
    if n_free > MAX_EXACT_BLACK:
        raise ValueError(f"exact path capped at {MAX_EXACT_BLACK} free vertices")
    if p.kind is Kind.ZERO:
        return 0.0 if g.n_edges > 0 else 1.0
    box = (-L / 2.0, L / 2.0)
    prefactor, eb, ev, _ = _edge_terms(g, p, (0.0,), shifts=(-L, 0.0, L), box=box)
    total = _sum_branch_combinations(prefactor, eb, ev, n_free, box=box)
    return total / L ** n_free


# ---------------------------------------------------------------------------
# exact class sums over lattice cells
# ---------------------------------------------------------------------------

# Lattice cells that take no longer than one per-graph polytope, on the
# line and on the torus.  Timed for m = 3..6 on a 2-core x86 guest: a cell
# takes 0.3-1.9 us; a polytope 110-4000 us on the line (most for hard rods
# at m = 6, all of whose polytopes go to Qhull) and 38-56 us on the torus
# (most of its image branches are empty).  The lowest measured ratios are
# rounded down, so the lattice is taken only where it is the faster path.
LINE_POLYTOPE_CELLS = 250
TORUS_POLYTOPE_CELLS = 40


def _lattice(p: Potential, L: float | None):
    """(h, R, Lam): the largest length h of which every breakpoint of f (and
    L on the torus) is an integer multiple, with R = range / h and
    Lam = L / h (None on the line)."""
    breaks = {Fraction(r) for piece in p.f_pieces() for r in piece[:2] if r > 0}
    lengths = breaks | ({Fraction(L)} if L is not None else set())
    if not lengths:
        return Fraction(1), 0, None
    den = math.lcm(*(q.denominator for q in lengths))
    h = Fraction(math.gcd(*(q.numerator * (den // q.denominator)
                            for q in lengths)), den)
    R = int(max(breaks) / h) if breaks else 0
    return h, R, None if L is None else int(Fraction(L) / h)


def _n_polytopes(score, p: Potential, m: int, L: float | None,
                 n_roots: int = 1) -> float:
    """Polytopes the per-graph path visits for ``score``: one per choice of
    f piece, sign branch (and image on the torus) at each edge with a free
    end, in each graph of the class, so score at the constant pair matrix of
    that branch count (1 between pinned vertices), every graph of a class
    sum having coefficient 1."""
    branches = sum(1 if r_lo == 0 else 2 for r_lo, _, _ in p.f_pieces())
    f = np.full((1, m, m), float(branches * (1 if L is None else 3)))
    f[0, :n_roots, :n_roots] = 1.0
    np.fill_diagonal(f[0], 0.0)
    return float(score(f)[0])


def _blocks(shape: tuple[int, ...]):
    """Every multi-index of an array of ``shape``, in C order, as (b, k)
    integer arrays of at most MC_BLOCK rows."""
    total = math.prod(shape)
    for start in range(0, total, MC_BLOCK):
        idx = np.arange(start, min(start + MC_BLOCK, total))
        yield np.stack(np.unravel_index(idx, shape), axis=1)


def _line_cells(allowed: np.ndarray, anchors: np.ndarray, k: int, R: int):
    """Integer parts in ``allowed``^k of the cells that can hold a
    configuration in which every free vertex is joined to a pinned one
    (integer parts ``anchors``) by a chain of pairs whose parts differ by
    at most R: sorted together with the anchors, the parts split into runs
    with no step above R, and every run must hold an anchor (with one
    anchor: there is one run).  Yields blocks of at most MC_BLOCK."""
    pending, count = [], 0
    for idx in _blocks((len(allowed),) * k):
        n = allowed[idx]
        if len(anchors) == 1:
            s = np.sort(np.concatenate(
                [np.full((len(n), 1), anchors[0], n.dtype), n], axis=1), axis=1)
            n = n[(np.diff(s, axis=1) <= R).all(axis=1)]
        else:
            # anchors as even keys and free parts as odd ones
            keys = np.sort(np.concatenate(
                [np.broadcast_to(2 * anchors, (len(n), len(anchors))), 2 * n + 1],
                axis=1), axis=1)
            run = np.zeros(keys.shape, dtype=np.intp)
            run[:, 1:] = np.cumsum(np.diff(keys >> 1, axis=1) > R, axis=1)
            held = run[keys % 2 == 0].reshape(len(n), len(anchors))
            n = n[(np.diff(held, axis=1) > 0).sum(axis=1) == run[:, -1]]
        pending.append(n)
        count += len(n)
        if count >= MC_BLOCK:
            n = np.concatenate(pending)
            yield n[:MC_BLOCK]
            pending, count = [n[MC_BLOCK:]], len(n) - MC_BLOCK
    if count:
        yield np.concatenate(pending)


def _graph_terms(score, m: int):
    """(coefficient, graph) for every labeled graph on m vertices whose
    f-bond product appears in the class sum ``score``, read off by Mobius
    inversion of score at the 0/1 pair matrices (a class sum is multilinear
    in the f_ij)."""
    pairs = list(itertools.combinations(range(m), 2))
    i, j = np.triu_indices(m, 1)
    values = []
    for masks in _blocks((1 << len(pairs),)):
        f = np.zeros((len(masks), m, m))
        f[:, i, j] = f[:, j, i] = (masks >> np.arange(len(pairs))) & 1
        values.append(score(f))
    c = np.concatenate(values).reshape((2,) * len(pairs))
    for axis in range(len(pairs)):
        c = np.diff(c, axis=axis, prepend=0.0)
    for mask, coef in enumerate(np.rint(c.reshape(-1)).astype(int).tolist()):
        if coef:
            edges = [pair for e, pair in enumerate(pairs) if mask >> e & 1]
            yield coef, Graph.from_edges(m, edges)


def lattice_class_sum(score, p: Potential, m: int, L: float | None = None,
                      root_positions=(0.0,)) -> float:
    """Exact integral of a class sum over the positions of the free
    vertices, for a piecewise-constant 1D f.  Vertices 0..n-1 are pinned at
    the n ``root_positions`` (by default vertex 0 at the origin) and
    vertices n..m-1 are free.

    ``score`` maps pair matrices (B, m, m) to class sums (B,) and must be
    symmetric in the free vertices (``phi_t_batch``,
    ``biconnected_sum_batch``, ``kernel_sum_batch``, the product of
    (1 + f), or a bicolored class sum).  On the line (L None) the integral
    runs over R^k for k = m - n; on the length-L torus, with minimum-image
    distances and one pinned vertex, it is normalized by L^k.

    With h the lattice length of ``_lattice``, f is constant on each cell
    of the arrangement x_i - x_j in h Z (the pinned positions need not lie
    on the lattice).  A cell is fixed by the integer parts of the x_v / h
    and the order of their fractional parts.  The pinned fractional parts
    c_w and the cut points 0 and 1 split [0, 1) into gaps of lengths l_g,
    and the cells in which j_g free fractional parts fall in gap g, in a
    given order, have volume h^k prod l_g^j_g / j_g!.  Relabelling the free
    vertices maps every order with the same counts (j_g) onto the one in
    which the sorted free parts fill the gaps in turn, so the integral is
    h^k sum over the counts of k! prod l_g^j_g / j_g! times the sum of the
    score over integer patterns, at one point per cell.  With one vertex
    pinned at the origin there is one gap, of weight 1.  On the line only
    the patterns in which every free vertex can be joined to a pinned one
    are visited (every class sum but the torus product vanishes
    elsewhere); on the torus all Lam^k patterns are, with weight Lam^-k.
    When the candidate patterns cost more time than the per-graph
    polytopes would (``LINE_POLYTOPE_CELLS`` or ``TORUS_POLYTOPE_CELLS``
    per polytope; always when no lattice fits, as for lambda = sqrt(2)),
    the sum runs graph by graph over polytopes (``graph_weight_exact_1d``
    or ``graph_weight_periodic_1d``).
    """
    if not p.piecewise_constant_f:
        raise ValueError("use MC path: f is not piecewise constant")
    if p.dimension != 1:
        raise ValueError("exact path is one-dimensional")
    if L is not None and p.interaction_range >= L / 2:
        raise ValueError("interaction range must be < L/2 for image expansion")
    n_roots = len(root_positions)
    k = m - n_roots
    if n_roots < 1 or k < 0:
        raise ValueError("need 1 <= len(root_positions) <= m")
    if L is not None and n_roots > 1:
        raise ValueError("the torus pins one vertex")
    if k == 0:
        return float(score(pair_f_matrix(p, root_positions)[None])[0])
    h, R, Lam = _lattice(p, L)
    roots = [Fraction(float(x)) / h for x in root_positions]
    parts = [math.floor(x) for x in roots]
    fracs = [x - n for x, n in zip(roots, parts)]
    cuts = sorted({Fraction(0), *fracs})
    gaps = [b - a for a, b in zip(cuts, cuts[1:] + [Fraction(1)])]
    # on the line a free vertex lies within k steps shorter than R of a
    # pinned one
    lo, hi = min(parts) - k * R, max(math.ceil(x) for x in roots) + k * R
    n_cells = ((hi - lo if L is None else Lam) ** k
               * math.comb(k + len(gaps) - 1, k))
    if k > MAX_EXACT_BLACK:
        raise EnumerationTooLarge("exact 1D class sums", m,
                                  n_roots + MAX_EXACT_BLACK, n_cells)
    per_polytope = LINE_POLYTOPE_CELLS if L is None else TORUS_POLYTOPE_CELLS
    # no polytope count is needed when the cells cost less than one polytope
    if n_cells > per_polytope and \
            n_cells > per_polytope * _n_polytopes(score, p, m, L, n_roots):
        if L is None:
            return math.fsum(c * graph_weight_exact_1d(g, p, root_positions)
                             for c, g in _graph_terms(score, m))
        return math.fsum(c * graph_weight_periodic_1d(g, p, L)
                         for c, g in _graph_terms(score, m))
    # f on the cells at integer distances 0..R-1 (in units of h); 0 beyond
    table = np.zeros(R + 1)
    table[:R] = p.mayer_f((np.arange(R) + 0.5) * float(h))
    i, j = np.triu_indices(m, 1)
    anchors = np.array(parts)

    def scores(offsets, M):
        cells = (_line_cells(np.arange(lo, hi), anchors, k, R) if L is None
                 else _blocks((Lam,) * k))
        for n in cells:
            # positions in units of h / M: integer part times M plus the
            # rank of the fractional part
            y = np.concatenate([np.broadcast_to(anchors, (len(n), n_roots)), n],
                               axis=1)
            y = M * y + offsets
            dist = np.abs(y[:, i] - y[:, j])
            if L is not None:
                dist = np.minimum(dist % (M * Lam), M * Lam - dist % (M * Lam))
            f = np.zeros((len(n), m, m))
            f[:, i, j] = f[:, j, i] = table[np.minimum(dist // M, R)]
            yield from score(f).tolist()

    total = Fraction(0)
    for gap_of in itertools.combinations_with_replacement(range(len(gaps)), k):
        # ranks of the fractional parts: cut g, then the free parts in gap g
        cut_rank = [g + bisect.bisect_left(gap_of, g) for g in range(len(gaps))]
        offsets = np.array([cut_rank[cuts.index(c)] for c in fracs]
                           + [g + 1 + v for v, g in enumerate(gap_of)])
        weight = math.factorial(k) * math.prod(
            gaps[g] ** gap_of.count(g) / math.factorial(gap_of.count(g))
            for g in range(len(gaps)))
        total += weight * Fraction(math.fsum(scores(offsets, len(gaps) + k)))
    return float(total * (h ** k if L is None else Fraction(1, Lam ** k)))


def resolve_method(p: Potential, method: str) -> str:
    """The weight path that ``method`` selects: "exact1d" or "mc".

    "auto" takes the exact path for a piecewise-constant f in one dimension
    and Monte Carlo otherwise; a name other than the three raises.
    """
    if method == "auto":
        return "exact1d" if (p.piecewise_constant_f and p.dimension == 1) else "mc"
    if method not in ("exact1d", "mc"):
        raise ValueError(f"unknown method {method!r}; "
                         "expected 'auto', 'exact1d' or 'mc'")
    return method


# ---------------------------------------------------------------------------
# Monte Carlo weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientEstimate:
    """A cluster-integral value with its statistical pedigree."""

    value: float
    std_error: float
    method: str  # "exact1d" | "mc" | "quadrature"
    samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.method == "exact1d" and self.std_error != 0:
            raise ValueError("exact estimates carry no statistical error")

    def agrees_with(self, other_value: float, n_sigma: float = 3.0,
                    atol: float = 1e-9) -> bool:
        tol = n_sigma * self.std_error + atol
        return abs(self.value - other_value) <= tol


class RadialProposal:
    """Piecewise-constant radial density proportional to |f|.

    Exact for hard-core / square-well potentials; for Lennard-Jones the
    density is |f| gridded at bin midpoints and truncated at ``r_max`` (the
    tree-edge displacement never exceeds r_max, a documented tail
    truncation).  For hard cores |f| = fbar = 1 on the core.
    """

    def __init__(self, p: Potential, d: int, n_bins: int = 2048, r_max: float | None = None):
        self.d = d
        if p.piecewise_constant_f:
            edges, vals = [0.0], []
            for r_lo, r_hi, val in p.f_pieces():
                if edges[-1] != r_lo:
                    edges.append(r_lo)
                    vals.append(0.0)
                edges.append(r_hi)
                vals.append(abs(val))
        else:
            if r_max is None:
                r_max = 50.0 * p.sigma if p.cutoff is None else p.cutoff
            grid = np.linspace(0.0, r_max, n_bins + 1)
            mids = 0.5 * (grid[:-1] + grid[1:])
            edges = list(grid)
            vals = list(np.abs(p.mayer_f(mids)))
        self.edges = np.array(edges)
        self.vals = np.array(vals)
        shell = (self.edges[1:] ** d - self.edges[:-1] ** d) * SURFACE_AREA[d] / d
        masses = self.vals * shell
        self.norm = float(masses.sum())
        if self.norm <= 0:
            raise ValueError("zero proposal mass: f vanishes")
        self.cum = np.concatenate([[0.0], np.cumsum(masses)]) / self.norm

    def sample_radii(self, rng, size):
        u = rng.random(size)
        k = np.searchsorted(self.cum, u, side="right") - 1
        k = np.clip(k, 0, len(self.vals) - 1)
        u2 = rng.random(size)
        lo_d = self.edges[k] ** self.d
        hi_d = self.edges[k + 1] ** self.d
        return (lo_d + u2 * (hi_d - lo_d)) ** (1.0 / self.d)

    def pdf(self, r):
        """Proposal density at radius r (value of the d-dim pdf)."""
        k = np.searchsorted(self.edges, r, side="right") - 1
        k = np.clip(k, 0, len(self.vals) - 1)
        inside = (r >= self.edges[0]) & (r < self.edges[-1])
        return np.where(inside, self.vals[k], 0.0) / self.norm


def _random_directions(rng, size, d):
    if d == 1:
        return rng.choice([-1.0, 1.0], size=(size, 1))
    v = rng.normal(size=(size, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def graph_weight_mc(g: Graph, p: Potential, n_samples: int,
                    seed: int) -> CoefficientEstimate:
    """Mayer-sampling estimate of the weight of g with vertex 0 pinned at
    the origin: ``class_integral`` with g's bond product as the score."""
    i, j = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    return class_integral(lambda f: np.prod(f[:, i, j], axis=1), p,
                          g.n_vertices, "mc", n_samples, seed, ("graph",))


# ---------------------------------------------------------------------------
# class sums at fixed configurations
# ---------------------------------------------------------------------------
# Internally a batch of subset values is a (2^n, B) array: row S holds the
# value on vertex subset S (bit v set when vertex v is in S) for every
# configuration of the batch.

def pair_f_matrix(p: Potential, points) -> np.ndarray:
    """Matrix of f(|x_i - x_j|) for a configuration (n, d) or (n,) array."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    f = np.asarray(p.mayer_f(r))
    np.fill_diagonal(f, 0.0)
    return f


def phi_t_value(p: Potential, points) -> float:
    """phi^T = sum over connected graphs of the f-bond product."""
    f = pair_f_matrix(p, points)
    return float(phi_t_batch(f[None, :, :])[0])


def _subset_phis(f: np.ndarray) -> np.ndarray:
    """(2^n, B): subset S -> product of (1 + f) over the pairs in S."""
    B, n, _ = f.shape
    g = 1.0 + np.moveaxis(f, 0, -1)
    out = np.ones((1 << n, B))
    for s in range(1, 1 << n):
        top = s.bit_length() - 1
        rest = s & ~(1 << top)
        acc = out[rest].copy()
        t = rest
        while t:
            j = (t & -t).bit_length() - 1
            acc *= g[top, j]
            t &= t - 1
        out[s] = acc
    return out


def phi_batch(f: np.ndarray) -> np.ndarray:
    """phi for a batch of pair matrices, for every vertex subset.

    f: (B, n, n).  Returns (B, 2^n): subset S -> product over pairs in S.
    """
    return _subset_phis(f).T


def connected_sums(f: np.ndarray) -> np.ndarray:
    """phi^T(S), the connected-graph sum on S, for every vertex subset S of
    a batch of pair matrices (B, n, n).  Returns (2^n, B); row 0 is unused.

    Uses the partition identity phi(S) = sum over U containing the least
    element of S of phi^T(U) phi(S - U).
    """
    phis = _subset_phis(f)
    phit = np.zeros_like(phis)
    for s in range(1, len(phis)):
        low = s & -s
        acc = phis[s].copy()
        rest = s & ~low
        if rest:
            # proper submasks sm = low | t with t a strict submask of rest
            t = (rest - 1) & rest
            while True:
                sm = t | low
                acc -= phit[sm] * phis[s & ~sm]
                if t == 0:
                    break
                t = (t - 1) & rest
        phit[s] = acc
    return phit


def phi_t_batch(f: np.ndarray) -> np.ndarray:
    """phi^T over all n vertices for a batch of pair matrices (B, n, n);
    equivalent to the connected-graph sum and cross-checked against it in
    the tests."""
    return connected_sums(f)[-1]


def biconnected_sum_batch(f: np.ndarray) -> np.ndarray:
    """Sum over 2-connected graphs on all n >= 2 vertices of the f-bond
    product (one edge counts as 2-connected), for a batch (B, n, n).

    With C(S) from ``connected_sums`` and r = min S, two subset recursions
    over the sets S that contain vertex 0 (so r = 0):

    - D(S), the connected sum on S in which r lies in exactly one block:
      D(S) = C(S) - sum over P with q in P, P a proper subset of S - r, of
      D(r + P) C(S - P), where q = min(S - r) and P is the component of q
      once r is removed.
    - Bic(S) = D(S) - sum over r in B, B a proper subset of S, |B| >= 2, of
      Bic(B) H(B - r, S - B): B is r's block, and H(U, R) sums
      prod over u in U of C(u + A_u) over the ways of splitting R into the
      branches A_u hanging from the other vertices of the block.
    """
    C = connected_sums(f)
    one = np.ones(f.shape[0])
    memo: dict[tuple[int, int], np.ndarray] = {}

    def H(U: int, R: int) -> np.ndarray:
        if R == 0:
            return one
        if (U, R) not in memo:
            u = U & -U
            others = U & ~u
            if not others:
                val = C[u | R]
            else:
                val = H(others, R).copy()    # the branch of u is empty
                a = R
                while a:
                    val += C[u | a] * H(others, R & ~a)
                    a = (a - 1) & R
            memo[U, R] = val
        return memo[U, R]

    D: dict[int, np.ndarray] = {}
    bic: dict[int, np.ndarray] = {}
    for s in range(3, len(C), 2):         # odd masks contain vertex 0
        rest = s & ~1
        q = rest & -rest
        others = rest & ~q
        acc = C[s].copy()
        if others:
            t = (others - 1) & others
            while True:
                P = q | t
                acc -= D[1 | P] * C[s & ~P]
                if t == 0:
                    break
                t = (t - 1) & others
        D[s] = acc
        acc = acc.copy()
        t = (rest - 1) & rest
        while t:
            acc -= bic[1 | t] * H(t, rest & ~t)
            t = (t - 1) & rest
        bic[s] = acc
    return bic[len(C) - 1]


def kernel_sum_batch(f: np.ndarray) -> np.ndarray:
    """Sum over graphs on {0..n-1} whose restriction to {1..n-1} is
    connected and in which vertex 0 has an edge, for a batch (B, n, n):
    phi^T(1..n-1) (prod over v of (1 + f_0v) - 1)."""
    attach = np.prod(1.0 + f[:, 0, 1:], axis=1) - 1.0
    return phi_t_batch(f[:, 1:, 1:]) * attach


def fbar_tree_sum_batch(fbar: np.ndarray) -> np.ndarray:
    """Sum over all trees of the fbar-bond product, by the matrix-tree
    theorem, for a batch of pair matrices (B, n, n)."""
    B, n, _ = fbar.shape
    if n == 1:
        return np.ones(B)
    idx = np.arange(n)
    w = fbar.copy()
    w[:, idx, idx] = 0.0
    lap = -w
    lap[:, idx, idx] = w.sum(axis=2)
    return np.linalg.det(lap[:, 1:, 1:])


# ---------------------------------------------------------------------------
# Mayer sampling of class sums
# ---------------------------------------------------------------------------

# Configurations drawn and scored together.  Bounds the per-block arrays,
# such as the (block, pairs, d) differences and the subset tables.
MC_BLOCK = 256


@functools.cache
def _spanning_trees(m: int) -> np.ndarray:
    """All m^(m-2) labeled trees on m vertices as (n_trees, m - 1, 2) rows
    of (parent, child) edges in breadth-first order from vertex 0."""
    trees = np.array([bfs_tree(t, 1) for t in prufer_trees(m)], dtype=np.intp)
    trees.setflags(write=False)
    return trees


def class_sum_mc(score, p: Potential, m: int, n_samples: int,
                 rng: np.random.Generator,
                 root_positions=None) -> tuple[float, float]:
    """Mean and standard error of a Mayer-sampling estimate of the integral
    of score(f) over the positions of the free vertices.  Vertices 0..n-1
    are pinned at the rows of ``root_positions``, an (n, d) array (by
    default vertex 0 at the origin), and vertices n..m-1 are free;
    ``score`` maps pair matrices (B, m, m) to class sums (B,).

    The pinned vertices act as one root.  Each configuration grows along a
    labeled spanning tree on the root and the k = m - n free vertices,
    drawn uniformly at random, with ``RadialProposal`` displacements on its
    edges; each edge from the root starts at a pinned vertex drawn
    uniformly.  Its density is q(x) = T(x) / (k+1)^(k-1), where T is the
    matrix-tree sum of the proposal pdf over all pairs, the root's pdf to a
    free vertex being the mean over the pinned vertices, and its weight is
    score(f) / q.  The pdf is |f| / norm on every pair, for the hard core
    and the well alike, so the tree-graph inequality |phi^T| <= sum over
    trees of prod |f| bounds the hard-core connected weights by
    m^(m-2) norm^(m-1) when one vertex is pinned; with a well, |f| rather
    than fbar keeps the weights from growing by |f| / fbar per well bond.
    Draws ``n_samples`` configurations in blocks of ``MC_BLOCK``; with no
    free vertex the score is exact.
    """
    d = p.dimension
    if d not in SURFACE_AREA or d > 3:
        raise ValueError("d must be 1, 2 or 3")
    if m > MAX_EXHAUSTIVE_N:
        raise EnumerationTooLarge("class sums", m, MAX_EXHAUSTIVE_N,
                                  2 ** (m * (m - 1) // 2))
    roots = np.zeros((1, d)) if root_positions is None else \
        np.asarray(root_positions, dtype=float).reshape(-1, d)
    n_roots = len(roots)
    k = m - n_roots
    if k < 0 or n_samples < 1:
        raise ValueError("need m >= the pinned vertices and n_samples >= 1")
    if k == 0:
        return float(score(pair_f_matrix(p, roots)[None])[0]), 0.0
    proposal = RadialProposal(p, d)
    trees = _spanning_trees(k + 1)
    i, j = np.triu_indices(m, 1)
    count, mean, sq = 0, 0.0, 0.0
    for start in range(0, n_samples, MC_BLOCK):
        b = min(MC_BLOCK, n_samples - start)
        edges = trees[rng.integers(len(trees), size=b)]
        r = proposal.sample_radii(rng, (b, k))
        disp = _random_directions(rng, b * k, d).reshape(b, k, d)
        disp *= r[..., None]
        if n_roots > 1:
            # tree vertex v > 0 is row n_roots - 1 + v, and each edge from
            # the root starts at a pinned row drawn uniformly
            edges = edges + (n_roots - 1)
            from_root = edges[:, :, 0] == n_roots - 1
            edges[:, :, 0][from_root] = rng.integers(n_roots, size=(b, k))[from_root]
        pos = np.zeros((b, m, d))
        pos[:, :n_roots] = roots
        rows = np.arange(b)
        for e in range(k):
            pos[rows, edges[:, e, 1]] = pos[rows, edges[:, e, 0]] + disp[:, e]
        dist = np.linalg.norm(pos[:, i] - pos[:, j], axis=-1)
        f = np.zeros((b, m, m))
        f[:, i, j] = f[:, j, i] = p.mayer_f(dist)
        pdf = np.zeros((b, m, m))
        pdf[:, i, j] = pdf[:, j, i] = proposal.pdf(dist)
        if n_roots > 1:
            # the root's pdf to a free vertex: the mean over pinned rows
            root_pdf = pdf[:, :n_roots, n_roots:].mean(axis=1)
            pdf = pdf[:, n_roots - 1:, n_roots - 1:]
            pdf[:, 0, 1:] = pdf[:, 1:, 0] = root_pdf
        w = score(f) * len(trees) / fbar_tree_sum_batch(pdf)
        # merge the block's mean and sum of squared deviations (Chan et al.)
        w_mean = float(w.mean())
        delta = w_mean - mean
        total = count + b
        mean += delta * b / total
        sq += float(((w - w_mean) ** 2).sum()) + delta * delta * count * b / total
        count = total
    stderr = math.sqrt(sq / (count - 1) / count) if count > 1 else math.inf
    return mean, stderr


# ---------------------------------------------------------------------------
# the estimator policy: path, vanishing f and random streams
# ---------------------------------------------------------------------------

# spawn-key tags of the families of random streams; no two may be equal
STREAMS = {"b_n": 0, "beta_n": 1, "a_n": 2, "u": 3, "rho": 4, "h": 5, "c": 6,
           "graph": 7, "direct_logZ": 8, "gc_oracle": 9}


def stream(seed: int, family: str, *key: int) -> np.random.Generator:
    """The generator of the estimate keyed (family, *key): independent of
    every other key's for one seed."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(STREAMS[family], *key)))


def class_integral(score, p: Potential, m: int, method: str, n_samples: int,
                   seed: int, key: tuple,
                   root_positions=None) -> CoefficientEstimate:
    """Integral of the class sum ``score`` on m vertices over the free
    ones, vertices 0..n-1 pinned at the rows of ``root_positions`` (n, d)
    (by default vertex 0 at the origin): ``lattice_class_sum`` or
    ``class_sum_mc`` on ``stream(seed, *key)``, as ``resolve_method``
    picks.  A class sum vanishes unless each free vertex is joined to a
    pinned one by f bonds, so for f = 0 it is +0.0, with nothing drawn,
    once a vertex is free."""
    method = resolve_method(p, method)
    roots = np.zeros((1, p.dimension)) if root_positions is None else \
        np.asarray(root_positions, dtype=float).reshape(-1, p.dimension)
    if p.kind is Kind.ZERO and m > len(roots):
        return CoefficientEstimate(0.0, 0.0, method)
    if method == "exact1d":
        value = lattice_class_sum(score, p, m,
                                  root_positions=tuple(roots[:, 0].tolist()))
        return CoefficientEstimate(value, 0.0, "exact1d")
    value, err = class_sum_mc(score, p, m, n_samples, stream(seed, *key),
                              root_positions=roots)
    return CoefficientEstimate(value, err, "mc", n_samples, seed)
