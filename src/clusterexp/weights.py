"""Weighted graph integrals: exact 1D, periodic 1D, and Monte Carlo.

For piecewise-constant Mayer functions in 1D (hard rods, square well) the
integrand is constant on the cells of the arrangement x_i - x_j in h Z,
where every breakpoint of f (and the box length on the torus) is an
integer multiple of h.  ``lattice_class_sum`` integrates a whole class sum
(connected, 2-connected, kernel, the product of (1 + f), or a bicolored
class of the correlation functions) exactly by one pass over these cells,
one point per cell, with one vertex or several pinned at any positions on
the line.  When there are more cells than ``CELLS_PER_POLYTOPE`` per
polytope of all graphs, a closed-form count decided before anything is
scored (as when no lattice fits, for lambda = sqrt(2)), it sums graph by
graph instead: ``graph_weight_exact_1d`` and ``graph_weight_periodic_1d`` split
each graph's integrand into convex polytopes of constant value, and a
shortest-path (Floyd-Warshall) closure of each polytope's constraints
decides emptiness and boundedness and gives Qhull its facets and an
interior point.  Otherwise Monte Carlo: ``class_sum_mc`` samples a whole
class sum (connected, 2-connected, kernel or bicolored, from subset
recursions at each configuration) under a mixture over all spanning trees
on a root, which stands for the pinned vertices, and the free ones, with
tree edges drawn from a radial density proportional to |f|;
``graph_weight_mc`` scores one graph's bond product the same way.  At
f = 1 on every pair a class sum counts the labeled graphs of its class;
the subset recursions keep the dtype of f, so ``count_graphs`` runs them
in Python integers.

``class_integral`` is the estimator of every coefficient, correlation
order and canonical class sum: it picks the path and the domain, gives 0
for f = 0, and draws Monte Carlo configurations from ``stream``, one spawn
key per estimate.  The finite-volume oracles share its "auto" rule
(``resolve_method``, told whether their exact path covers the input), the
domain check of the exact paths (``require_exact_1d``) and one
uniform-torus sampler (``torus_boltzmann_mc``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import (MAX_EXHAUSTIVE_N, EnumerationTooLarge, Graph, GraphClass,
                     bfs_tree, prufer_trees)
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


def require_exact_1d(p: Potential, L: float | None = None):
    """Raise ValueError unless the exact 1D paths cover p: a
    piecewise-constant f in one dimension and, on the length-L torus, a
    range below L/2, so that each pair meets one periodic image."""
    if not p.piecewise_constant_f:
        raise ValueError("use MC path: f is not piecewise constant")
    if p.dimension != 1:
        raise ValueError("exact path is one-dimensional")
    if L is not None and p.interaction_range >= L / 2:
        raise ValueError("interaction range must be < L/2 for image expansion")


def _delta_branches(piece, shifts=(0.0,)):
    """Convex branches of {Delta : |Delta| in [r_lo, r_hi)} (+ periodic
    images), each as (lo, hi, value)."""
    r_lo, r_hi, val = piece
    if r_lo == 0.0:
        base = [(-r_hi, r_hi, val)]
    else:
        base = [(r_lo, r_hi, val), (-r_hi, -r_lo, val)]
    return [(lo + s, hi + s, val) for lo, hi, val in base for s in shifts]


def _edge_terms(g: Graph, p: Potential, positions, shifts=(0.0,)):
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
            prefactor *= float(p.mayer_f(abs(fixed[i] - fixed[j])))
            if prefactor == 0.0:
                return 0.0, [], [], n_free
            continue
        # the pinned vertices carry the lowest labels, so in an edge i < j
        # with one pinned end that end is i
        offset = fixed[i] if vi is None else 0.0
        branches = [(lo - offset, hi - offset, val)
                    for piece in pieces
                    for lo, hi, val in _delta_branches(piece, shifts)]
        edge_branches.append(branches)
        edge_vars.append((-1 if vi is None else vi, vj))
    return prefactor, edge_branches, edge_vars, n_free


def _sum_branch_combinations(prefactor, edge_branches, edge_vars, n_free, box):
    if n_free > MAX_EXACT_BLACK:
        raise EnumerationTooLarge("exact 1D graph weights", n_free,
                                  MAX_EXACT_BLACK,
                                  math.prod(map(len, edge_branches)))
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
    require_exact_1d(p)
    if g.n_vertices < len(root_positions):
        raise ValueError("more roots than vertices")
    prefactor, eb, ev, n_free = _edge_terms(g, p, root_positions)
    return _sum_branch_combinations(prefactor, eb, ev, n_free, box=None)


def graph_weight_periodic_1d(g: Graph, p: Potential, L: float):
    """Normalized periodic weight: integral over the length-L torus of the
    product of periodic f bonds, with one factor dx/L per vertex.

    Translation invariance pins vertex 0; periodic distances are realized
    by image shifts, valid because the interaction range is < L/2.
    """
    require_exact_1d(p, L)
    if p.kind is Kind.ZERO:
        return 0.0 if g.n_edges > 0 else 1.0
    box = (-L / 2.0, L / 2.0)
    prefactor, eb, ev, n_free = _edge_terms(g, p, (0.0,), shifts=(-L, 0.0, L))
    total = _sum_branch_combinations(prefactor, eb, ev, n_free, box=box)
    return total / L ** n_free


# ---------------------------------------------------------------------------
# exact class sums over lattice cells
# ---------------------------------------------------------------------------

# Lattice cells that take no longer than one per-graph polytope.  Timed for
# m = 3..6 on a 2-core x86 guest: a cell takes 0.3-1.9 us and a polytope
# 38-4000 us, fewest on the torus (most of its image branches are empty) and
# most for hard rods on the line at m = 6 (all of whose polytopes go to
# Qhull).  One constant serves the line and the torus, and the polytope
# count it is set against is an upper bound, those of all graphs, so the
# lattice also takes some inputs on which it is up to about twice as slow,
# and is exact there.
CELLS_PER_POLYTOPE = 250


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


def _n_polytopes(p: Potential, m: int, L: float | None, n_roots: int) -> int:
    """An upper bound on the polytopes the per-graph path visits for a class
    sum on m vertices, n_roots of them pinned: those of all graphs, one per
    choice of f piece, sign branch (and of 3 images on the torus) at each
    edge with a free end."""
    branches = sum(1 if r_lo == 0 else 2 for r_lo, _, _ in p.f_pieces())
    pinned = math.comb(n_roots, 2)
    return ((1 + branches * (1 if L is None else 3))
            ** (math.comb(m, 2) - pinned) * 2 ** pinned)


def _blocks(shape: tuple[int, ...], rows: int):
    """Every multi-index of an array of ``shape``, in C order, as (b, k)
    integer arrays of at most ``rows`` rows."""
    total = math.prod(shape)
    for start in range(0, total, rows):
        idx = np.arange(start, min(start + rows, total))
        yield np.stack(np.unravel_index(idx, shape), axis=1)


def _line_cells(allowed: np.ndarray, anchors: np.ndarray, k: int, R: int,
                rows: int):
    """Integer parts in ``allowed``^k of the cells that can hold a
    configuration in which every free vertex is joined to a pinned one
    (integer parts ``anchors``) by a chain of pairs whose parts differ by
    at most R: sorted together with the anchors, the parts split into runs
    with no step above R, and every run must hold an anchor (with one
    anchor: there is one run).  Filters the candidates in blocks of
    ``BATCH_ENTRIES`` and yields the cells in C order, in blocks of at most
    ``rows``."""
    pending, count = [], 0
    for idx in _blocks((len(allowed),) * k, BATCH_ENTRIES):
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
        if count >= rows:
            n = np.concatenate(pending)
            whole = len(n) - len(n) % rows
            yield from np.split(n[:whole], whole // rows)
            pending, count = [n[whole:]], len(n) - whole
    if count:
        yield np.concatenate(pending)


def _expansion(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is that of ``terms``: each is the
    correctly rounded ``math.fsum`` of what the ones before it leave, until
    nothing is left (a sum of doubles that is not 0 never rounds to 0), so
    the ``math.fsum`` of the result is that of ``terms``, bit for bit."""
    out = []
    while (s := math.fsum(terms)) != 0.0:
        out.append(s)
        if not math.isfinite(s):
            break
        terms.append(-s)
    return out


def _graph_terms(score, m: int):
    """(coefficient, graph) for every labeled graph on m vertices whose
    f-bond product appears in the class sum ``score``, read off by Mobius
    inversion of score at the 0/1 pair matrices (a class sum is multilinear
    in the f_ij)."""
    pairs = list(itertools.combinations(range(m), 2))
    i, j = np.triu_indices(m, 1)
    values = []
    for masks in _blocks((1 << len(pairs),), _batch_rows(m)):
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
    pinned at the origin there is one gap, of weight 1.  The patterns are
    generated once: each block of them is placed at every order of the
    fractional parts (each choice of counts), and the stacked pair matrices,
    at most ``_batch_rows(m)``, go to ``score`` in one call.  Each order
    keeps the exact sum of its scores so far as an ``_expansion`` (a few
    floats), so memory stays that of one block and the sum is the
    ``math.fsum`` of all the scores: the batching changes no value.
    On the line only
    the patterns in which every free vertex can be joined to a pinned one
    are visited (every class sum but the torus product vanishes
    elsewhere); on the torus all Lam^k patterns are, with weight Lam^-k.
    When there are more than ``CELLS_PER_POLYTOPE`` candidate patterns per
    polytope of all graphs, a closed-form count decided before anything is
    scored (always when no lattice fits, as for lambda = sqrt(2)), the sum
    runs graph by graph over polytopes (``graph_weight_exact_1d`` or
    ``graph_weight_periodic_1d``).
    """
    require_exact_1d(p, L)
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
    if n_cells > CELLS_PER_POLYTOPE * _n_polytopes(p, m, L, n_roots):
        if L is None:
            return math.fsum(c * graph_weight_exact_1d(g, p, root_positions)
                             for c, g in _graph_terms(score, m))
        return math.fsum(c * graph_weight_periodic_1d(g, p, L)
                         for c, g in _graph_terms(score, m))
    # every order of the free fractional parts over the gaps: the ranks of
    # the fractional parts (cut g, then the free parts in gap g) and the
    # order's weight
    offsets, order_weights = [], []
    for gap_of in itertools.combinations_with_replacement(range(len(gaps)), k):
        cut_rank = [g + bisect.bisect_left(gap_of, g) for g in range(len(gaps))]
        offsets.append([cut_rank[cuts.index(c)] for c in fracs]
                       + [g + 1 + v for v, g in enumerate(gap_of)])
        order_weights.append(math.factorial(k) * math.prod(
            gaps[g] ** gap_of.count(g) / math.factorial(gap_of.count(g))
            for g in range(len(gaps))))
    offsets = np.array(offsets)[:, None, :]
    M = len(gaps) + k
    # f on the cells at integer distances 0..R-1 (in units of h); 0 beyond
    table = np.zeros(R + 1)
    table[:R] = p.mayer_f((np.arange(R) + 0.5) * float(h))
    i, j = np.triu_indices(m, 1)
    anchors = np.array(parts)
    rows = _batch_rows(m)
    # a block of cells is scored at every order at once
    per_block = max(1, rows // len(order_weights))
    cells = (_line_cells(np.arange(lo, hi), anchors, k, R, per_block)
             if L is None else _blocks((Lam,) * k, per_block))
    sums = [[] for _ in order_weights]
    for n in cells:
        # positions in units of h / M: integer part times M plus the rank of
        # the fractional part, stacked as (order, cell)
        y = np.concatenate([np.broadcast_to(anchors, (len(n), n_roots)), n],
                           axis=1)
        y = (M * y + offsets).reshape(-1, m)
        dist = np.abs(y[:, i] - y[:, j])
        if L is not None:
            dist = np.minimum(dist % (M * Lam), M * Lam - dist % (M * Lam))
        f = np.zeros((len(y), m, m))
        f[:, i, j] = f[:, j, i] = table[np.minimum(dist // M, R)]
        scores = np.concatenate(
            [score(f[a:a + rows]) for a in range(0, len(f), rows)]
        ).reshape(len(order_weights), len(n))
        sums = [_expansion(acc + row.tolist())
                for acc, row in zip(sums, scores)]
    total = sum((w * Fraction(math.fsum(acc))
                 for w, acc in zip(order_weights, sums)), Fraction(0))
    return float(total * (h ** k if L is None else Fraction(1, Lam ** k)))


def resolve_method(p: Potential, method: str, covered: bool = True) -> str:
    """The weight path that ``method`` selects: "exact1d" or "mc".

    "auto" takes the exact path for a piecewise-constant f in one dimension
    when ``covered``, the caller's word that its exact path takes this
    input, and Monte Carlo otherwise; a name other than the three raises.
    """
    if method == "auto":
        return "exact1d" if (p.piecewise_constant_f and p.dimension == 1
                             and covered) else "mc"
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
    method: str  # "exact1d" | "mc"
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


# Bins of the gridded Lennard-Jones proposal.
PROPOSAL_BINS = 2048


class RadialProposal:
    """Piecewise-constant radial density proportional to |f|.

    Exact for hard-core / square-well potentials; for Lennard-Jones the
    density is |f| gridded at the midpoints of ``PROPOSAL_BINS`` bins and
    truncated at r_max, the cutoff or else 50 sigma (the tree-edge
    displacement never exceeds r_max, a documented tail truncation).  For
    hard cores |f| = fbar = 1 on the core.
    """

    def __init__(self, p: Potential):
        self.d = d = p.dimension
        if p.piecewise_constant_f:
            # the pieces tile [0, range)
            pieces = p.f_pieces()
            edges = [0.0] + [r_hi for _, r_hi, _ in pieces]
            vals = [abs(val) for _, _, val in pieces]
        else:
            r_max = 50.0 * p.sigma if p.cutoff is None else p.cutoff
            grid = np.linspace(0.0, r_max, PROPOSAL_BINS + 1)
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

    @staticmethod
    def draw(rng, size):
        """The two uniforms of each radius, in the order of the stream."""
        return rng.random(size), rng.random(size)

    def radii(self, u, u2):
        """Radii from the uniforms of ``draw``: u picks the bin by its mass,
        u2 the radius within it, uniform in r^d."""
        k = np.searchsorted(self.cum, u, side="right") - 1
        k = np.clip(k, 0, len(self.vals) - 1)
        lo_d = self.edges[k] ** self.d
        hi_d = self.edges[k + 1] ** self.d
        return (lo_d + u2 * (hi_d - lo_d)) ** (1.0 / self.d)

    def pdf(self, r):
        """Proposal density at radius r (value of the d-dim pdf)."""
        k = np.searchsorted(self.edges, r, side="right") - 1
        k = np.clip(k, 0, len(self.vals) - 1)
        inside = (r >= self.edges[0]) & (r < self.edges[-1])
        return np.where(inside, self.vals[k], 0.0) / self.norm


def _direction_draws(rng, size, d):
    """(size, d) draws behind unit directions: signs in d = 1, Gaussian
    vectors otherwise, which ``_directions`` normalizes."""
    if d == 1:
        return rng.choice([-1.0, 1.0], size=(size, 1))
    return rng.normal(size=(size, d))


def _directions(v):
    """Unit directions from the rows of ``_direction_draws``."""
    if v.shape[1] == 1:
        return v
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def torus_boltzmann_mc(p: Potential, L: float, fixed, N: int,
                       n_samples: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of e^{-beta H} over configurations of the 1D
    points ``fixed`` and N points drawn uniformly on the length-L torus,
    with minimum-image distances.  With N = 0 nothing is drawn and the
    value is exact."""
    rows = n_samples if N else 1
    x = np.concatenate([np.broadcast_to(np.asarray(fixed, dtype=float),
                                        (rows, len(fixed))),
                        rng.uniform(0.0, L, size=(rows, N))], axis=1)
    boltz = np.ones(rows)
    for i, j in itertools.combinations(range(x.shape[1]), 2):
        dx = np.abs(x[:, i] - x[:, j]) % L
        boltz *= p.boltzmann(np.minimum(dx, L - dx))
    if not N:
        return float(boltz[0]), 0.0
    return float(boltz.mean()), float(boltz.std(ddof=1) / math.sqrt(rows))


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


def _subset_phis(f: np.ndarray) -> np.ndarray:
    """(2^n, B): subset S -> product of (1 + f) over the pairs in S."""
    B, n, _ = f.shape
    g = 1 + np.moveaxis(f, 0, -1)
    out = np.ones((1 << n, B), dtype=f.dtype)
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


def _branch_sums(C: np.ndarray, one: np.ndarray,
                 memo: dict[tuple[int, int], np.ndarray],
                 U: int, R: int) -> np.ndarray:
    """H(U, R) of ``biconnected_sum_batch``, memoized in ``memo``.  A
    module-level function, so that no closure cycle keeps the memo alive
    after the sum returns."""
    if R == 0:
        return one
    if (U, R) not in memo:
        u = U & -U
        others = U & ~u
        if not others:
            val = C[u | R]
        else:
            # the branch of u is empty
            val = _branch_sums(C, one, memo, others, R).copy()
            a = R
            while a:
                val += C[u | a] * _branch_sums(C, one, memo, others, R & ~a)
                a = (a - 1) & R
        memo[U, R] = val
    return memo[U, R]


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
    H = functools.partial(_branch_sums, C, np.ones(f.shape[0], dtype=f.dtype),
                          {})
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


MAX_COUNT_N = 10


def count_graphs(n: int, cls: GraphClass) -> int:
    """Number of labeled graphs of the class on {0..n-1} (n <= 10): its
    class sum at f = 1 on every pair, in Python integers (the tree sum is
    a float determinant, rounded)."""
    if n < 1:
        raise ValueError("need n >= 1")
    # the subset recursions visit about 3^n (subset, submask) pairs
    if n > MAX_COUNT_N:
        raise EnumerationTooLarge("graph counts", n, MAX_COUNT_N, 3 ** n)
    if cls is GraphClass.ALL:
        return 2 ** (n * (n - 1) // 2)
    ones = np.ones((1, n, n), dtype=object)
    if cls is GraphClass.CONNECTED:
        return int(phi_t_batch(ones)[0])
    if cls is GraphClass.BICONNECTED:
        return int(biconnected_sum_batch(ones)[0]) if n >= 2 else 0
    if cls is GraphClass.TREE:
        return round(fbar_tree_sum_batch(ones.astype(float))[0])
    raise ValueError(f"no count for class {cls}")


# ---------------------------------------------------------------------------
# Mayer sampling of class sums
# ---------------------------------------------------------------------------

# Configurations drawn from the generator together: the block of the
# random stream of ``class_sum_mc``, and of its running mean and variance.
# A change to it changes every Monte Carlo value.
MC_BLOCK = 256
# Subset-table entries (2^m rows per configuration) scored at once.  Sizes
# the batches of lattice cells, and of Monte Carlo configurations drawn
# together, whose new bond patterns are scored together, and so the
# per-batch arrays, but changes no value.
BATCH_ENTRIES = 1 << 14


def _batch_rows(m: int) -> int:
    """Configurations, or lattice cells, scored at once on m vertices: the
    whole draw blocks whose subset tables fill BATCH_ENTRIES, at least one."""
    return MC_BLOCK * max(1, (BATCH_ENTRIES >> m) // MC_BLOCK)


@functools.cache
def _spanning_trees(m: int) -> np.ndarray:
    """All m^(m-2) labeled trees on m vertices as (n_trees, m - 1, 2) rows
    of (parent, child) edges in breadth-first order from vertex 0."""
    trees = np.array([bfs_tree(t, 1) for t in prufer_trees(m)], dtype=np.intp)
    trees.setflags(write=False)
    return trees


def _draw_blocks(rng: np.random.Generator, b: int, n_trees: int, k: int,
                 d: int, n_roots: int) -> list[np.ndarray]:
    """The raw randoms of b configurations with k free vertices, drawn
    MC_BLOCK configurations at a time in the order of the stream: the tree
    index, the two uniforms of each radius (``RadialProposal.draw``), the
    direction draws (b k rows) and, with several pinned vertices, the
    pinned row of each edge from the root."""
    parts = []
    for start in range(0, b, MC_BLOCK):
        c = min(MC_BLOCK, b - start)
        part = [rng.integers(n_trees, size=c),
                *RadialProposal.draw(rng, (c, k)),
                _direction_draws(rng, c * k, d)]
        if n_roots > 1:
            part.append(rng.integers(n_roots, size=(c, k)))
        parts.append(part)
    return [np.concatenate(x) for x in zip(*parts)]


def _mc_weights(score, f: np.ndarray, pdf: np.ndarray, n_roots: int,
                n_trees: int) -> np.ndarray:
    """score(f) n_trees / T(pdf), the Mayer-sampling weight of each row of
    a batch of pair matrices (B, m, m), where T is the matrix-tree sum of
    the proposal pdf with the pinned vertices merged into one root, whose
    pdf to a free vertex is the mean over the pinned ones."""
    if n_roots > 1:
        root_pdf = pdf[:, :n_roots, n_roots:].mean(axis=1)
        pdf = pdf[:, n_roots - 1:, n_roots - 1:]
        pdf[:, 0, 1:] = pdf[:, 1:, 0] = root_pdf
    return score(f) * n_trees / fbar_tree_sum_batch(pdf)


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
    Draws ``n_samples`` configurations in blocks of ``MC_BLOCK``, which
    fix the random stream and the blocks of the running mean and variance,
    and scores them in batches of whole blocks (``_batch_rows``, sized by
    ``BATCH_ENTRIES``), so the batch size changes no value; with no free
    vertex the score is exact.

    For a piecewise-constant f (hard cores, square wells) the f and pdf of
    a pair are fixed by its radial bin, so a weight depends only on the
    bond pattern: the bin of every pair, with one more code for the pairs
    beyond the range, read as one int64 (a ValueError names the width when
    it exceeds 63 bits).  Each batch scores only the patterns not yet seen
    in the call, on pair matrices of f and the pdf at the bin midpoints,
    and gathers the weights back in draw order; a pattern's weight is the
    one its configurations would get, bit for bit.  Other potentials score
    every configuration's own pair matrices.
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
    proposal = RadialProposal(p)
    i, j = np.triu_indices(m, 1)
    if p.piecewise_constant_f:
        # a pair's code is its radial bin, or the last code beyond the
        # range, and a pattern's code has one base-n_codes digit per pair
        n_codes = len(proposal.edges)
        width = (n_codes ** len(i) - 1).bit_length()
        if width > 63:
            raise ValueError(f"bond patterns of {len(i)} pairs in {n_codes} "
                             f"radial codes take {width} bits; an int64 code "
                             "holds 63")
        place = n_codes ** np.arange(len(i), dtype=np.int64)
        at = np.append(0.5 * (proposal.edges[:-1] + proposal.edges[1:]),
                       proposal.edges[-1])
        f_of, pdf_of = p.mayer_f(at), proposal.pdf(at)
        # the weight of each pattern scored so far in this call
        memo: dict[int, float] = {}
    trees = _spanning_trees(k + 1)
    batch = _batch_rows(m)

    def pair_matrices(vals):
        out = np.zeros((len(vals), m, m))
        out[:, i, j] = out[:, j, i] = vals
        return out

    count, mean, sq = 0, 0.0, 0.0
    for start in range(0, n_samples, batch):
        b = min(batch, n_samples - start)
        which, u, u2, v, *picks = _draw_blocks(rng, b, len(trees), k, d,
                                               n_roots)
        edges = trees[which]
        disp = _directions(v).reshape(b, k, d)
        disp *= proposal.radii(u, u2)[..., None]
        if n_roots > 1:
            # tree vertex v > 0 is row n_roots - 1 + v, and each edge from
            # the root starts at a pinned row drawn uniformly
            edges = edges + (n_roots - 1)
            from_root = edges[:, :, 0] == n_roots - 1
            edges[:, :, 0][from_root] = picks[0][from_root]
        pos = np.zeros((b, m, d))
        pos[:, :n_roots] = roots
        rows = np.arange(b)
        for e in range(k):
            pos[rows, edges[:, e, 1]] = pos[rows, edges[:, e, 0]] + disp[:, e]
        dist = np.linalg.norm(pos[:, i] - pos[:, j], axis=-1)
        if p.piecewise_constant_f:
            bins = np.searchsorted(proposal.edges[1:], dist, side="right")
            codes, first, inverse = np.unique(bins @ place, return_index=True,
                                              return_inverse=True)
            codes = codes.tolist()
            new = [n for n, c in enumerate(codes) if c not in memo]
            if new:
                fresh = bins[first[new]]
                memo.update(zip([codes[n] for n in new], _mc_weights(
                    score, pair_matrices(f_of[fresh]),
                    pair_matrices(pdf_of[fresh]), n_roots, len(trees)).tolist()))
            w = np.array([memo[c] for c in codes])[inverse]
        else:
            w = _mc_weights(score, pair_matrices(p.mayer_f(dist)),
                            pair_matrices(proposal.pdf(dist)), n_roots,
                            len(trees))
        # merge each draw block's mean and sum of squared deviations
        # (Chan et al.)
        for lo in range(0, b, MC_BLOCK):
            wb = w[lo:lo + MC_BLOCK]
            c = len(wb)
            w_mean = float(wb.mean())
            delta = w_mean - mean
            total = count + c
            mean += delta * c / total
            sq += (float(((wb - w_mean) ** 2).sum())
                   + delta * delta * count * c / total)
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
                   seed: int, key: tuple, root_positions=None,
                   L: float | None = None) -> CoefficientEstimate:
    """Integral of the class sum ``score`` on m vertices over the free
    ones, vertices 0..n-1 pinned at the rows of ``root_positions`` (n, d)
    (by default vertex 0 at the origin): ``lattice_class_sum`` or
    ``class_sum_mc`` on ``stream(seed, *key)``, as ``resolve_method``
    picks.  A class sum vanishes unless each free vertex is joined to a
    pinned one by f bonds, so for f = 0 it is +0.0, with nothing drawn,
    once a vertex is free.  On the torus of side ``L``, vertex 0 pinned and
    normalized by L^(d(m-1)), it is the free-space integral over that when
    (m - 1) * range, the most the vertices span, is below L/2; otherwise
    the exact path sums the torus cells, and Monte Carlo raises."""
    method = resolve_method(p, method)
    roots = np.zeros((1, p.dimension)) if root_positions is None else \
        np.asarray(root_positions, dtype=float).reshape(-1, p.dimension)
    if p.kind is Kind.ZERO and m > len(roots):
        return CoefficientEstimate(0.0, 0.0, method)
    if L is not None and (m - 1) * p.interaction_range >= L / 2:
        if method == "mc":
            raise ValueError(f"Monte Carlo on the torus needs (m - 1) * "
                             f"range < L/2 = {L / 2!r}, at m - 1 = {m - 1}")
        return CoefficientEstimate(lattice_class_sum(score, p, m, L), 0.0,
                                   "exact1d")
    volume = 1 if L is None else L ** (p.dimension * (m - 1))
    if method == "exact1d":
        value = lattice_class_sum(score, p, m,
                                  root_positions=tuple(roots[:, 0].tolist()))
        return CoefficientEstimate(value / volume, 0.0, "exact1d")
    value, err = class_sum_mc(score, p, m, n_samples, stream(seed, *key),
                              root_positions=roots)
    return CoefficientEstimate(value / volume, err / volume, "mc", n_samples,
                               seed)
