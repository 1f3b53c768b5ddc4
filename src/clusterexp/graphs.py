"""Labeled simple graphs, bicolored classes and enriched trees.

A graph on vertex set {0..n-1} is stored as a tuple of n neighbor
bitmasks: bit j of ``adj[i]`` is set when i and j are adjacent.  Only this
module builds or reads those masks; the other layers see ``Graph.edges``,
the sorted tuple of (i, j) pairs with i < j.  The first ``white_count``
vertices are "white" (root / fixed) vertices, the rest are "black"
(integrated) vertices.

Enumeration walks the edge masks over the n(n-1)/2 unordered pairs (bit k
is the k-th pair in lexicographic order) in increasing order, which gives
every enumeration a reproducible order.  The walk keeps one running list of
neighbor masks: going from mask - 1 to mask flips only the pairs in
mask ^ (mask - 1), about two on average, so each step toggles those pairs
instead of rebuilding the graph.  Every class predicate is a reachability
question, and ``_reach`` is the one routine that answers it.

Exhaustive class filtering is capped at n = 7 (2^21 edge subsets); trees
are generated by Prufer sequences up to n = 12; enriched trees are capped
at n = 8.  ``series.enriched_tree_invert`` solves the enriched trees'
species equation instead of listing them, so ``enumerate_enriched_trees``
is kept as the explicit oracle the tests check it against.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

MAX_EXHAUSTIVE_N = 7
MAX_TREE_N = 12
MAX_ENRICHED_N = 8


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


@dataclass(frozen=True)
class Graph:
    """Labeled simple graph as neighbor bitmasks with an optional white prefix."""

    n_vertices: int
    adj: tuple[int, ...]
    white_count: int = 0

    def __post_init__(self):
        if len(self.adj) != self.n_vertices:
            raise ValueError("Graph takes one neighbor mask per vertex; "
                             "use Graph.from_edges for an edge list")
        if not (0 <= self.white_count <= self.n_vertices):
            raise ValueError("white_count out of range")

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
    def whites(self) -> range:
        return range(self.white_count)

    @property
    def blacks(self) -> range:
        return range(self.white_count, self.n_vertices)

    def dump_line(self) -> str:
        """One-line text form: ``n k <edge list as i-j pairs> whites=<w>``."""
        es = " ".join(f"{i}-{j}" for i, j in self.edges)
        body = f"{self.n_vertices} {self.n_edges}"
        if es:
            body += " " + es
        return body + f" whites={self.white_count}"


# ---------------------------------------------------------------------------
# reachability and the class predicates built on it
# ---------------------------------------------------------------------------

def _reach(adj: Sequence[int], start: int, allowed: int) -> int:
    """Mask of the vertices that the vertex set ``start`` (a mask inside
    ``allowed``) reaches along paths that stay inside ``allowed``."""
    seen = frontier = start
    while frontier:
        nbrs = 0
        while frontier:
            low = frontier & -frontier
            nbrs |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nbrs & allowed & ~seen
        seen |= frontier
    return seen


def _connected(adj: Sequence[int]) -> bool:
    full = (1 << len(adj)) - 1
    return not adj or _reach(adj, 1, full) == full


def _is_cut(adj: Sequence[int], v: int) -> bool:
    """Removing v splits its neighbors into more than one component."""
    nbrs = adj[v]
    if not nbrs:
        return False
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    return bool(nbrs & ~_reach(adj, nbrs & -nbrs, rest))


def _biconnected(adj: Sequence[int]) -> bool:
    return (len(adj) >= 2 and _connected(adj)
            and not any(_is_cut(adj, v) for v in range(len(adj))))


def _tree(adj: Sequence[int]) -> bool:
    n_edges = sum(nbrs.bit_count() for nbrs in adj) // 2
    return n_edges == len(adj) - 1 and _connected(adj)


def _black_to_white_connected(adj: Sequence[int], white_count: int) -> bool:
    full = (1 << len(adj)) - 1
    return _reach(adj, (1 << white_count) - 1, full) == full


def _articulation_free(adj: Sequence[int], white_count: int) -> bool:
    # Menger: black b has two paths to distinct whites sharing only b iff
    # no single other vertex v cuts b off from every white other than v
    if white_count < 1 or not _connected(adj):
        return False
    full = (1 << len(adj)) - 1
    whites = (1 << white_count) - 1
    blacks = full & ~whites
    for v in range(len(adj)):
        rest = full & ~(1 << v)
        if blacks & rest & ~_reach(adj, whites & rest, rest):
            return False
    return True


def is_connected(g: Graph) -> bool:
    return _connected(g.adj)


def cutpoints(g: Graph) -> set[int]:
    """Vertices whose removal increases the number of components."""
    return {v for v in range(g.n_vertices) if _is_cut(g.adj, v)}


def is_biconnected(g: Graph) -> bool:
    """Connected with no cutpoint; the single edge on 2 vertices counts."""
    return _biconnected(g.adj)


def is_articulation_free(g: Graph) -> bool:
    """Connected, and every black vertex reaches two distinct white
    vertices by two paths that share no vertex besides the black one."""
    return _articulation_free(g.adj, g.white_count)


def nodal_vertices(g: Graph) -> set[int]:
    """Vertices v through which every path between some pair of white
    vertices (both != v) is forced to pass."""
    if g.white_count < 2:
        raise ValueError("need at least 2 white vertices")
    adj = g.adj
    full = (1 << g.n_vertices) - 1
    whites = (1 << g.white_count) - 1
    comp = [_reach(adj, 1 << w, full) for w in g.whites]
    nodal = set()
    for v in range(g.n_vertices):
        rest = full & ~(1 << v)
        for w in _bits(whites & rest):
            if comp[w] & whites & rest & ~_reach(adj, 1 << w, rest):
                nodal.add(v)
                break
    return nodal


def blocks(g: Graph) -> list[Graph]:
    """Maximal 2-connected subgraphs (blocks), by the standard DFS stack."""
    adj = g.adj
    n = g.n_vertices
    disc = [-1] * n
    low = [0] * n
    timer = itertools.count()
    edge_stack: list[tuple[int, int]] = []
    out: list[Graph] = []

    def pop_block(i, j):
        blk = []
        while edge_stack:
            e = edge_stack.pop()
            blk.append(tuple(sorted(e)))
            if e == (i, j) or e == (j, i):
                break
        out.append(Graph.from_edges(n, blk, g.white_count))

    def dfs(root):
        stack = [(root, -1, _bits(adj[root]))]
        disc[root] = low[root] = next(timer)
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if u == parent:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = next(timer)
                    edge_stack.append((v, u))
                    stack.append((u, v, _bits(adj[u])))
                    advanced = True
                    break
                elif disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], disc[u])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        pop_block(pv, v)

    for r in range(n):
        if disc[r] == -1 and adj[r]:
            dfs(r)
    return out


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
    """All labeled trees on n vertices via Prufer sequences (n <= 12)."""
    _check_cap("trees", n, MAX_TREE_N, n ** max(n - 2, 0))
    if n == 1:
        yield Graph.from_edges(1, ())
        return
    if n == 2:
        yield Graph.from_edges(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        avail = [v for v in range(n) if degree[v] == 1]
        deg = degree[:]
        heapq.heapify(avail)
        for v in seq:
            leaf = heapq.heappop(avail)
            edges.append(tuple(sorted((leaf, v))))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(avail, v)
        u, w = heapq.heappop(avail), heapq.heappop(avail)
        edges.append(tuple(sorted((u, w))))
        yield Graph.from_edges(n, edges)


def _class_filter(adj: Sequence[int], white_count: int, cls: GraphClass) -> bool:
    if cls is GraphClass.ALL:
        return True
    if cls is GraphClass.CONNECTED:
        return _connected(adj)
    if cls is GraphClass.BICONNECTED:
        return _biconnected(adj)
    if cls is GraphClass.TREE:
        return _tree(adj)
    if cls is GraphClass.BLACK_TO_WHITE_CONNECTED:
        return _black_to_white_connected(adj, white_count)
    if cls is GraphClass.ARTICULATION_FREE:
        return _articulation_free(adj, white_count)
    raise ValueError(f"unknown class {cls}")


def _enumerate(n: int, white_count: int, cls: GraphClass) -> Iterator[Graph]:
    pairs = list(itertools.combinations(range(n), 2))
    adj = [0] * n
    for mask in range(1 << len(pairs)):
        # mask - 1 -> mask flips the pairs up to the lowest set bit of mask
        for k in range((mask & -mask).bit_length()):
            i, j = pairs[k]
            adj[i] ^= 1 << j
            adj[j] ^= 1 << i
        g = tuple(adj)
        if _class_filter(g, white_count, cls):
            yield Graph(n, g, white_count)


def enumerate_graphs(n: int, cls: GraphClass) -> Iterator[Graph]:
    """Stream every graph of the class on {0..n-1}, lexicographic by edge
    bitmask.  Trees fall back to Prufer generation for 7 < n <= 12."""
    if n < 1:
        raise ValueError("need n >= 1")
    if cls is GraphClass.TREE and n > MAX_EXHAUSTIVE_N:
        yield from prufer_trees(n)
        return
    _check_cap("graphs", n, MAX_EXHAUSTIVE_N, 2 ** (n * (n - 1) // 2))
    yield from _enumerate(n, 0, cls)


def enumerate_bicolored(n_white: int, n_black: int, cls: GraphClass) -> Iterator[Graph]:
    """Stream graphs with ``n_white`` white then ``n_black`` black vertices."""
    if n_white < 1:
        raise ValueError("need at least one white vertex")
    n = n_white + n_black
    _check_cap("bicolored graphs", n, MAX_EXHAUSTIVE_N, 2 ** (n * (n - 1) // 2))
    yield from _enumerate(n, n_white, cls)


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
