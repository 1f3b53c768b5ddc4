"""Labeled simple graphs, bicolored classes and enriched trees.

A graph on vertex set {0..n-1} is stored as a tuple of n neighbor
bitmasks: bit j of ``adj[i]`` is set when i and j are adjacent.  Only this
module builds or reads those masks; the other layers see ``Graph.edges``,
the sorted tuple of (i, j) pairs with i < j.  The first ``white_count``
vertices are "white" (root / fixed) vertices, the rest are "black"
(integrated) vertices.  A ``Graph`` is the immutable tuple
``(n_vertices, adj, white_count)``.  Built by hand it checks its masks
(one per vertex, no self-loop, no bit at or past n, symmetric); the
listings build each graph once, straight from masks that are well formed
by construction, and skip those checks.

Enumeration walks the edge masks over the n(n-1)/2 unordered pairs (bit k
is the k-th pair in lexicographic order) in increasing order, which gives
every enumeration a reproducible order.  Trees are the exception: every
tree class comes from ``prufer_trees``, in the lexicographic order of the
Prufer sequences, at every n.  The walk takes the masks in blocks of
``MASK_BLOCK`` = 2^14: the low 14 pairs run over the block and the higher
pairs are fixed within it, so a block is an (n, 2^14) ``uint8`` array of
neighbor masks (n <= 7, so a mask fits in 8 bits), built once per walk
and ORed with the fixed pairs.  The class predicates answer for a whole
block at once with numpy bit operations.  Each is a reachability
question, and ``_reach`` is the one routine that answers it, for every
graph of the block together.  ``dump_lines`` writes the one-line text
forms of the listed graphs straight from each block's kept edge masks,
without making the ``Graph``s.

The walk lists graphs; it does not count them.  The number of graphs of
a class comes from its class sum at f = 1 on every pair
(``weights.count_graphs``, up to n = 10), and the walk is that count's
test oracle.  Listing by the walk is capped at n = 7 (2^21 edge subsets),
trees at n = 12 and enriched trees at n = 8.  ``series.enriched_tree_invert``
solves the enriched trees' species equation instead of listing them, so
``enumerate_enriched_trees`` is kept as the explicit oracle the tests
check it against.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_EXHAUSTIVE_N = 7
MAX_TREE_N = 12
MAX_ENRICHED_N = 8
# edge masks per block of the walk
MASK_BLOCK = 1 << 14


class EnumerationTooLarge(ValueError):
    """Raised when an enumeration request exceeds the configured caps."""

    def __init__(self, what, requested, cap, count_bound):
        self.count_bound = count_bound
        super().__init__(
            f"enumeration too large: {what} with n={requested} exceeds cap "
            f"{cap} (would require visiting about {count_bound} structures)"
        )


class GraphClass(Enum):
    ALL = "all"
    CONNECTED = "connected"
    BICONNECTED = "biconnected"
    TREE = "tree"
    BLACK_TO_WHITE_CONNECTED = "black_to_white_connected"
    ARTICULATION_FREE = "articulation_free"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph(namedtuple("Graph", "n_vertices adj white_count")):
    """Labeled simple graph as neighbor bitmasks with an optional white
    prefix: the immutable tuple ``(n_vertices, adj, white_count)``, so its
    repr, ``==`` and hash are those of a record of the three fields.

    ``Graph(n, adj, w)`` checks its input and turns ``adj`` into a tuple of
    ints.  The listings of this module build their graphs with
    ``tuple.__new__`` instead, once per graph and without the checks: the
    walk and the Prufer decoding make well-formed masks by construction."""

    __slots__ = ()

    def __new__(cls, n_vertices: int, adj: Iterable[int], white_count: int = 0):
        n, w = operator.index(n_vertices), operator.index(white_count)
        adj = tuple(map(operator.index, adj))
        if len(adj) != n:
            raise ValueError("Graph takes one neighbor mask per vertex; "
                             "use Graph.from_edges for an edge list")
        if not 0 <= w <= n:
            raise ValueError("white_count out of range")
        for i, nbrs in enumerate(adj):
            if not 0 <= nbrs < 1 << n:
                raise ValueError(f"neighbor mask {nbrs} of vertex {i} has a "
                                 f"bit at or past n={n}")
            if nbrs >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
            for j in _bits(nbrs):
                if not adj[j] >> i & 1:
                    raise ValueError(f"asymmetric masks: {j} is a neighbor "
                                     f"of {i} but not {i} of {j}")
        return tuple.__new__(cls, (n, adj, w))

    @classmethod
    def _make(cls, fields) -> "Graph":
        # namedtuple's own _make, which _replace calls, skips the checks
        return cls(*fields)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   white_count: int = 0) -> "Graph":
        """Graph on {0..n-1} from (i, j) pairs with i < j."""
        adj = [0] * n
        for i, j in edges:
            if not (0 <= i < j < n):
                raise ValueError(f"bad edge ({i},{j}) for n={n}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(n, tuple(adj), white_count)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (i, j) pairs with i < j, in lexicographic order."""
        return tuple((i, j) for i, nbrs in enumerate(self.adj)
                     for j in _bits(nbrs >> (i + 1) << (i + 1)))

    @property
    def n_edges(self) -> int:
        return sum(nbrs.bit_count() for nbrs in self.adj) // 2

    @property
    def blacks(self) -> range:
        return range(self.white_count, self.n_vertices)

    def dump_line(self) -> str:
        """One-line text form: ``n k <edge list as i-j pairs> whites=<w>``."""
        es = "".join(f" {i}-{j}" for i, j in self.edges)
        return f"{self.n_vertices} {self.n_edges}{es} whites={self.white_count}"


# ---------------------------------------------------------------------------
# reachability and the class predicates built on it, over blocks of graphs
#
# ``adj`` is an (n, M) uint8 array: row v holds vertex v's neighbor mask in
# each of M graphs on the same n <= 7 vertices.  Every predicate returns a
# boolean array of length M.
# ---------------------------------------------------------------------------

# _POPCOUNT[mask] is the number of set bits of an 8-bit mask
_POPCOUNT = np.array([bin(m).count("1") for m in range(256)], np.uint8)


def _reach(adj: np.ndarray, start: int | np.ndarray,
           allowed: int | np.ndarray) -> np.ndarray:
    """Per graph, the mask of the vertices that the vertex set ``start`` (a
    mask inside ``allowed``) reaches along paths that stay inside
    ``allowed``; ``start`` and ``allowed`` are masks or arrays of M masks."""
    seen = np.zeros(adj.shape[1], np.uint8) | start
    # a path inside n vertices has at most n - 1 edges
    for _ in range(len(adj) - 1):
        grown = seen.copy()
        for v, nbrs in enumerate(adj):
            grown |= nbrs & -((seen >> v) & 1)
        grown &= allowed
        if np.array_equal(grown, seen):
            break
        seen = grown
    return seen


def _connected(adj: np.ndarray) -> np.ndarray:
    full = (1 << len(adj)) - 1
    return _reach(adj, 1, full) == full


def _is_cut(adj: np.ndarray, v: int) -> np.ndarray:
    """Removing v splits its neighbors into more than one component (False
    where v has no neighbor)."""
    nbrs = adj[v]
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    return (nbrs & ~_reach(adj, nbrs & -nbrs, rest)) != 0


def _biconnected(adj: np.ndarray) -> np.ndarray:
    if len(adj) < 2:
        return np.zeros(adj.shape[1], bool)
    keep = _connected(adj)
    for v in range(len(adj)):
        keep &= ~_is_cut(adj, v)
    return keep


def _black_to_white_connected(adj: np.ndarray, white_count: int) -> np.ndarray:
    full = (1 << len(adj)) - 1
    return _reach(adj, (1 << white_count) - 1, full) == full


def _articulation_free(adj: np.ndarray, white_count: int) -> np.ndarray:
    # Menger: black b has two paths to distinct whites sharing only b iff
    # no single other vertex v cuts b off from every white other than v;
    # a black with one neighbor is cut off by it
    if white_count < 1:
        return np.zeros(adj.shape[1], bool)
    keep = np.logical_and.reduce(_POPCOUNT[adj[white_count:]] >= 2, axis=0)
    keep &= _connected(adj)
    full = (1 << len(adj)) - 1
    whites = (1 << white_count) - 1
    blacks = full & ~whites
    for v in range(len(adj)):
        rest = full & ~(1 << v)
        keep &= (blacks & rest & ~_reach(adj, whites & rest, rest)) == 0
    return keep


def bfs_tree(g: Graph, n_roots: int) -> list[tuple[int, int]]:
    """Edges (parent, child) of the breadth-first tree grown from vertices
    0..n_roots-1, visiting neighbors in ascending order; raises ValueError
    unless the tree reaches every vertex."""
    seen = (1 << n_roots) - 1
    queue = list(range(n_roots))
    tree = []
    for v in queue:
        new = g.adj[v] & ~seen
        seen |= new
        for u in _bits(new):
            tree.append((v, u))
            queue.append(u)
    if seen != (1 << g.n_vertices) - 1:
        raise ValueError("graph does not connect all free vertices to the roots")
    return tree


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _check_cap(what: str, n: int, cap: int, count_bound: int):
    if n > cap:
        raise EnumerationTooLarge(what, n, cap, count_bound)


def prufer_trees(n: int) -> Iterator[Graph]:
    """All labeled trees on n vertices via Prufer sequences (n <= 12), in
    the lexicographic order of the sequences."""
    yield from _trees(n, 0)


def _trees(n: int, white_count: int) -> Iterator[Graph]:
    """``prufer_trees(n)`` with the first ``white_count`` vertices white,
    each tree built once."""
    _check_cap("trees", n, MAX_TREE_N, n ** max(n - 2, 0))
    if n == 1:
        yield tuple.__new__(Graph, (1, (0,), white_count))
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        # ascending, so already a heap
        leaves = [v for v in range(n) if degree[v] == 1]
        adj = [0] * n
        for v in seq:
            leaf = heapq.heappop(leaves)
            adj[leaf] |= 1 << v
            adj[v] |= 1 << leaf
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, w = leaves
        adj[u] |= 1 << w
        adj[w] |= 1 << u
        yield tuple.__new__(Graph, (n, tuple(adj), white_count))


def _class_filter(adj: np.ndarray, white_count: int,
                  cls: GraphClass) -> np.ndarray:
    """Which of the M graphs in the (n, M) neighbor-mask block ``adj``
    belong to the class, as a boolean array of length M."""
    if cls is GraphClass.ALL:
        return np.ones(adj.shape[1], bool)
    if cls is GraphClass.CONNECTED:
        return _connected(adj)
    if cls is GraphClass.BICONNECTED:
        return _biconnected(adj)
    if cls is GraphClass.BLACK_TO_WHITE_CONNECTED:
        return _black_to_white_connected(adj, white_count)
    if cls is GraphClass.ARTICULATION_FREE:
        return _articulation_free(adj, white_count)
    raise ValueError(f"unknown class {cls}")


def _walk_split(n: int) -> tuple[list[tuple[int, int]], int]:
    """The pairs of {0..n-1} in edge-mask bit order, and how many of them
    (the low ones) run over a block of the walk."""
    pairs = list(itertools.combinations(range(n), 2))
    return pairs, min(len(pairs), MASK_BLOCK.bit_length() - 1)


def _blocks(n: int, white_count: int,
            cls: GraphClass) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The walk, one block at a time in ascending edge-mask order.  Per
    block: the mask of its fixed high pairs (bit k is pair low + k), its
    (n, M) neighbor masks, and the ascending columns that ``_class_filter``
    keeps, which are also the low bits of their edge masks."""
    pairs, low = _walk_split(n)
    masks = np.arange(1 << low)
    low_adj = np.zeros((n, 1 << low), np.uint8)
    for k, (i, j) in enumerate(pairs[:low]):
        bit = (masks >> k & 1).astype(np.uint8)
        low_adj[i] |= bit << j
        low_adj[j] |= bit << i
    for high in range(1 << (len(pairs) - low)):
        high_adj = [0] * n
        for k in _bits(high):
            i, j = pairs[low + k]
            high_adj[i] |= 1 << j
            high_adj[j] |= 1 << i
        adj = low_adj | np.array(high_adj, np.uint8)[:, None]
        yield high, adj, np.flatnonzero(_class_filter(adj, white_count, cls))


def _enumerate(n: int, white_count: int, cls: GraphClass) -> Iterator[Graph]:
    """The graphs of the class in ascending edge-mask order, from the
    columns that ``_blocks`` keeps."""
    for _high, adj, kept in _blocks(n, white_count, cls):
        # tolist() gives Python ints, which Graph.edges needs
        for g in zip(*adj[:, kept].tolist()):
            yield tuple.__new__(Graph, (n, g, white_count))


def _graphs_of_class(what: str, n: int, white_count: int,
                     cls: GraphClass) -> Iterator[Graph]:
    if cls is GraphClass.TREE:
        return _trees(n, white_count)
    _check_cap(what, n, MAX_EXHAUSTIVE_N, 2 ** (n * (n - 1) // 2))
    return _enumerate(n, white_count, cls)


def enumerate_graphs(n: int, cls: GraphClass) -> Iterator[Graph]:
    """Stream every graph of the class on {0..n-1}: trees in Prufer
    sequence order (n <= 12), every other class lexicographic by edge
    bitmask (n <= 7)."""
    if n < 1:
        raise ValueError("need n >= 1")
    yield from _graphs_of_class("graphs", n, 0, cls)


def dump_lines(n: int, cls: GraphClass) -> Iterator[str]:
    """``g.dump_line()`` for every g of ``enumerate_graphs(n, cls)``, in
    that order.  The walked classes build their lines a block at a time
    from the edge masks, without making the graphs: a mask's edge list is
    that of its low pairs followed by that of its block's high pairs."""
    if n < 1:
        raise ValueError("need n >= 1")
    if cls is GraphClass.TREE:
        yield from (g.dump_line() for g in prufer_trees(n))
        return
    _check_cap("graphs", n, MAX_EXHAUSTIVE_N, 2 ** (n * (n - 1) // 2))
    pairs, low = _walk_split(n)
    texts = [f" {i}-{j}" for i, j in pairs]
    # edge text and count of every low part: a part whose top bit is k is
    # the part without that bit, plus pair k
    low_text, low_count = [""], [0]
    for k in range(low):
        low_text += [t + texts[k] for t in low_text]
        low_count += [c + 1 for c in low_count]
    for high, _adj, kept in _blocks(n, 0, cls):
        high_text = "".join(texts[low + k] for k in _bits(high))
        high_count = high.bit_count()
        for m in kept.tolist():
            yield (f"{n} {low_count[m] + high_count}"
                   f"{low_text[m]}{high_text} whites=0")


def enumerate_bicolored(n_white: int, n_black: int, cls: GraphClass) -> Iterator[Graph]:
    """Stream graphs with ``n_white`` white then ``n_black`` black vertices,
    in the order of ``enumerate_graphs``."""
    if n_white < 1:
        raise ValueError("need at least one white vertex")
    if n_black < 0:
        raise ValueError("need n_black >= 0")
    yield from _graphs_of_class("bicolored graphs", n_white + n_black,
                                n_white, cls)


def set_partitions(items: Sequence[int]) -> Iterator[tuple[frozenset[int], ...]]:
    """All partitions of ``items`` into nonempty blocks; the empty sequence
    has exactly one partition, the empty one."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        # first joins an existing block, or starts its own
        for k in range(len(part)):
            yield part[:k] + (part[k] | {first},) + part[k + 1:]
        yield part + (frozenset({first}),)


@dataclass(frozen=True)
class EnrichedTree:
    """Rooted tree on {0..n} with the children of every vertex partitioned
    into cliques (sibling groups)."""

    tree: Graph
    child_partitions: tuple[tuple[frozenset[int], ...], ...]

    def cliques(self) -> Iterator[frozenset[int]]:
        for part in self.child_partitions:
            yield from part


def enumerate_enriched_trees(n: int) -> Iterator[EnrichedTree]:
    """Stream the enriched rooted trees on vertex set {0..n}, i.e. pairs of
    a tree rooted at 0 and a partition of each vertex's children."""
    if n < 0:
        raise ValueError("need n >= 0")
    _check_cap("enriched trees", n, MAX_ENRICHED_N, (n + 1) ** max(n - 1, 0))
    for tree in prufer_trees(n + 1):
        children = [[] for _ in range(n + 1)]
        for parent, child in bfs_tree(tree, 1):
            children[parent].append(child)
        per_vertex = [list(set_partitions(ch)) for ch in children]
        for combo in itertools.product(*per_vertex):
            yield EnrichedTree(tree, tuple(combo))
