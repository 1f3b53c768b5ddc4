import hashlib
import itertools
import pickle

import numpy as np
import pytest

from clusterexp.graphs import (
    MASK_BLOCK,
    EnrichedTree,
    EnumerationTooLarge,
    Graph,
    GraphClass,
    _enumerate,
    dump_lines,
    enumerate_bicolored,
    enumerate_enriched_trees,
    enumerate_graphs,
    set_partitions,
)
from clusterexp.weights import MAX_COUNT_N, count_graphs


def connected(vertices, edges):
    """Union-find connectivity of the graph on ``vertices``, independent
    of the bitmask predicates."""
    root = {v: v for v in vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j in edges:
        root[find(i)] = find(j)
    return len({find(v) for v in vertices}) <= 1


def biconnected(vertices, edges):
    """At least two vertices, connected, and still connected without any
    one vertex."""
    return len(vertices) >= 2 and connected(vertices, edges) and all(
        connected([u for u in vertices if u != v],
                  [e for e in edges if v not in e]) for v in vertices)


def black_to_white_connected(vertices, edges, whites):
    """Every vertex shares a component with a white (union-find with the
    whites tied together)."""
    return whites >= 1 and connected(
        vertices, list(edges) + [(0, w) for w in range(1, whites)])


def articulation_free(vertices, edges, whites):
    """Connected, at least one white, and every black has two paths to
    distinct whites that share only that black (listed path by path)."""
    nbrs = {v: set() for v in vertices}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)

    def paths_to_whites(path):
        # simple paths from path[0] that stop at the first white they reach
        for u in nbrs[path[-1]] - set(path):
            if u < whites:
                yield path + [u]
            else:
                yield from paths_to_whites(path + [u])

    def fanned(b):
        paths = [set(p) for p in paths_to_whites([b])]
        return any(p & q == {b} for p, q in itertools.combinations(paths, 2))

    return whites >= 1 and connected(vertices, edges) and all(
        fanned(b) for b in vertices if b >= whites)


# independent predicates for every class the edge-mask walk lists
ORACLES = {
    GraphClass.ALL: lambda vertices, edges, whites: True,
    GraphClass.CONNECTED: lambda vertices, edges, whites: connected(
        vertices, edges),
    GraphClass.BICONNECTED: lambda vertices, edges, whites: biconnected(
        vertices, edges),
    GraphClass.BLACK_TO_WHITE_CONNECTED: black_to_white_connected,
    GraphClass.ARTICULATION_FREE: articulation_free,
}


def edges_of_mask(n, mask):
    """The edges of edge mask ``mask``: bit k is the k-th pair (i, j)."""
    pairs = itertools.combinations(range(n), 2)
    return [p for k, p in enumerate(pairs) if mask >> k & 1]


def brute_force_count(n, predicate):
    """Independent census: loop over all edge subsets directly."""
    pairs = list(itertools.combinations(range(n), 2))
    return sum(1 for r in range(len(pairs) + 1)
               for sub in itertools.combinations(pairs, r)
               if predicate(range(n), sub))


# labeled graphs on n = 1..10 vertices: all (OEIS A006125), connected
# (A001187), 2-connected (A013922, with 0 at n = 1) and trees (A000272)
OEIS_COUNTS = {
    GraphClass.ALL: [1, 2, 8, 64, 1024, 32768, 2097152, 268435456,
                     68719476736, 35184372088832],
    GraphClass.CONNECTED: [1, 1, 4, 38, 728, 26704, 1866256, 251548592,
                           66296291072, 34496488594816],
    GraphClass.BICONNECTED: [0, 1, 1, 10, 238, 11368, 1014888, 166537616,
                             50680432112, 29107809374336],
    GraphClass.TREE: [1, 1, 3, 16, 125, 1296, 16807, 262144, 4782969,
                      100000000],
}
CONNECTED_COUNTS = [(n, OEIS_COUNTS[GraphClass.CONNECTED][n - 1])
                    for n in range(1, 7)]
BICONNECTED_COUNTS = [(n, OEIS_COUNTS[GraphClass.BICONNECTED][n - 1])
                      for n in range(2, 7)]
COUNTED = list(OEIS_COUNTS)


class TestCensus:
    @pytest.mark.parametrize("n,expected", CONNECTED_COUNTS,
                             ids=[str(n) for n, _ in CONNECTED_COUNTS])
    def test_connected_counts_match_brute_force(self, n, expected):
        got = sum(1 for _ in enumerate_graphs(n, GraphClass.CONNECTED))
        assert got == expected
        assert got == brute_force_count(n, connected)

    @pytest.mark.parametrize("n,expected", BICONNECTED_COUNTS,
                             ids=[str(n) for n, _ in BICONNECTED_COUNTS])
    def test_biconnected_counts_match_brute_force(self, n, expected):
        got = sum(1 for _ in enumerate_graphs(n, GraphClass.BICONNECTED))
        assert got == expected
        assert got == brute_force_count(n, biconnected)

    @pytest.mark.parametrize("n,total", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_all_counts(self, n, total):
        assert sum(1 for _ in enumerate_graphs(n, GraphClass.ALL)) == total

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trees_are_the_connected_graphs_with_n_minus_1_edges(self, n):
        trees = {g.edges for g in enumerate_graphs(n, GraphClass.TREE)}
        assert trees == {g.edges for g in enumerate_graphs(n, GraphClass.CONNECTED)
                         if g.n_edges == n - 1}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cayley_tree_counts(self, n):
        trees = [g.edges for g in enumerate_graphs(n, GraphClass.TREE)]
        assert len(trees) == len(set(trees)) == n ** max(n - 2, 0)

    def test_bicolored_trees_carry_the_whites(self):
        trees = list(enumerate_bicolored(2, 3, GraphClass.TREE))
        assert [g.edges for g in trees] == [
            g.edges for g in enumerate_graphs(5, GraphClass.TREE)]
        assert {g.white_count for g in trees} == {2}

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_graphs(9, GraphClass.CONNECTED))


class TestCounts:
    @pytest.mark.parametrize("cls", COUNTED, ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_equals_the_walk(self, n, cls):
        assert count_graphs(n, cls) == sum(1 for _ in enumerate_graphs(n, cls))

    def test_count_equals_the_walk_at_seven(self):
        walked = {cls: sum(1 for _ in enumerate_graphs(7, cls))
                  for cls in COUNTED}
        assert {cls: count_graphs(7, cls) for cls in COUNTED} == walked

    @pytest.mark.parametrize("cls", COUNTED, ids=lambda c: c.value)
    def test_counts_match_oeis(self, cls):
        got = [count_graphs(n, cls) for n in range(1, MAX_COUNT_N + 1)]
        assert got == OEIS_COUNTS[cls]
        assert all(type(c) is int for c in got)

    def test_count_cap(self):
        with pytest.raises(EnumerationTooLarge):
            count_graphs(MAX_COUNT_N + 1, GraphClass.CONNECTED)

    @pytest.mark.parametrize("n,cls", [
        (0, GraphClass.CONNECTED),
        (3, GraphClass.ARTICULATION_FREE),
    ])
    def test_count_rejects(self, n, cls):
        with pytest.raises(ValueError):
            count_graphs(n, cls)


class TestBicolored:
    # white vertices 0..1, black 2..; counts cross-checked by brute force
    @pytest.mark.parametrize("k,cls,expected", [
        (0, GraphClass.CONNECTED, 1),
        (0, GraphClass.BLACK_TO_WHITE_CONNECTED, 2),
        (0, GraphClass.ARTICULATION_FREE, 1),
        (0, GraphClass.BICONNECTED, 1),
        (1, GraphClass.CONNECTED, 4),
        (1, GraphClass.BLACK_TO_WHITE_CONNECTED, 6),
        (1, GraphClass.ARTICULATION_FREE, 2),
        (1, GraphClass.BICONNECTED, 1),
        (2, GraphClass.CONNECTED, 38),
        (2, GraphClass.BLACK_TO_WHITE_CONNECTED, 48),
        (2, GraphClass.ARTICULATION_FREE, 16),
        (2, GraphClass.BICONNECTED, 10),
        # recorded with the earlier path-listing predicates, as an oracle
        # independent of the bitmask ones
        (3, GraphClass.BLACK_TO_WHITE_CONNECTED, 828),
        (3, GraphClass.ARTICULATION_FREE, 328),
        (4, GraphClass.ARTICULATION_FREE, 14064),
    ])
    def test_two_white_counts(self, k, cls, expected):
        got = sum(1 for _ in enumerate_bicolored(2, k, cls))
        assert got == expected

    # recorded with the earlier path-listing predicates
    @pytest.mark.parametrize("k,cls,expected", [
        (2, GraphClass.BLACK_TO_WHITE_CONNECTED, 896),
        (2, GraphClass.ARTICULATION_FREE, 448),
        (3, GraphClass.ARTICULATION_FREE, 17032),
    ])
    def test_three_white_counts(self, k, cls, expected):
        got = sum(1 for _ in enumerate_bicolored(3, k, cls))
        assert got == expected

    def test_black_to_white_requires_black_attachment(self):
        for g in enumerate_bicolored(2, 2, GraphClass.BLACK_TO_WHITE_CONNECTED):
            for b in g.blacks:
                assert any(b in e for e in g.edges), \
                    "isolated black vertex slipped through"

    def test_articulation_free_is_subset_of_connected(self):
        af = {g.edges for g in enumerate_bicolored(2, 2, GraphClass.ARTICULATION_FREE)}
        con = {g.edges for g in enumerate_bicolored(2, 2, GraphClass.CONNECTED)}
        assert af <= con

    @pytest.mark.parametrize("n_white", [1, 2])
    @pytest.mark.parametrize("cls", list(GraphClass), ids=lambda c: c.value)
    def test_negative_black_count_is_rejected_at_first_next(self, n_white, cls):
        listing = enumerate_bicolored(n_white, -1, cls)
        with pytest.raises(ValueError, match="n_black >= 0"):
            next(listing)


class TestArticulationFree:
    @staticmethod
    def articulation_free(g):
        n_black = g.n_vertices - g.white_count
        return g in set(enumerate_bicolored(g.white_count, n_black,
                                            GraphClass.ARTICULATION_FREE))

    def test_black_on_white_path(self):
        # white-black-white path: the middle black vertex separates whites
        # but still has two vertex-disjoint routes to distinct whites
        assert self.articulation_free(Graph.from_edges(3, [(0, 2), (1, 2)], 2))

    def test_dangling_black_is_articulated(self):
        # black 3 reaches a white only through black 2
        g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)], 2)
        assert not self.articulation_free(g)

    def test_direct_edge_graph_articulation_free(self):
        assert self.articulation_free(Graph.from_edges(2, [(0, 1)], 2))


class TestEdgeMaskWalk:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_neighbor_masks_match_edge_bits(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for whites in range(min(n, 3) + 1):
            got = list(_enumerate(n, whites, GraphClass.ALL))
            assert len(got) == 2 ** len(pairs)
            for mask, g in enumerate(got):
                assert g == Graph.from_edges(n, edges_of_mask(n, mask), whites)

    @pytest.mark.parametrize("cls", list(ORACLES), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_listing_matches_oracle(self, n, cls):
        for whites in range(min(n, 3) + 1):
            want = []
            for mask in range(2 ** (n * (n - 1) // 2)):
                edges = edges_of_mask(n, mask)
                if ORACLES[cls](range(n), edges, whites):
                    want.append(Graph.from_edges(n, edges, whites))
            got = list(_enumerate(n, whites, cls))
            assert got == want
            # a numpy integer has no bit_length, which Graph.edges needs
            assert all(type(nbrs) is int for g in got for nbrs in g.adj)

    def test_block_boundaries_at_seven(self):
        # the walk takes the 2^21 masks in blocks of MASK_BLOCK: check the
        # last graph of each block and the first of the next
        blocks = 2 ** 21 // MASK_BLOCK
        assert blocks > 1
        edges = {m: edges_of_mask(7, m) for j in range(1, blocks)
                 for m in (MASK_BLOCK * j - 1, MASK_BLOCK * j)}
        seen = 0
        for mask, g in enumerate(_enumerate(7, 0, GraphClass.ALL)):
            if mask in edges:
                assert g == Graph.from_edges(7, edges[mask])
                seen += 1
        assert seen == len(edges) == 2 * (blocks - 1)

    @pytest.mark.parametrize("cls", list(GraphClass), ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_unchecked_graphs_pass_the_checks(self, n, cls):
        # the walk and the trees build their graphs without Graph's checks
        listings = [enumerate_graphs(n, cls)] + [
            enumerate_bicolored(whites, n - whites, cls)
            for whites in range(1, min(n, 3) + 1)]
        for g in itertools.chain.from_iterable(listings):
            assert type(g) is Graph
            assert g == Graph.from_edges(n, g.edges, g.white_count)
            assert g == Graph(*g)

    def test_listing_is_pinned(self):
        # sha256 of the reprs of every listing for n <= 6, every class,
        # 0 to 3 whites, in order, as the frozen-dataclass Graph gave them
        digest = hashlib.sha256()
        for n in range(1, 7):
            for cls in GraphClass:
                digest.update(repr(list(enumerate_graphs(n, cls))).encode())
                for whites in range(1, min(n, 3) + 1):
                    digest.update(repr(list(enumerate_bicolored(
                        whites, n - whites, cls))).encode())
        assert digest.hexdigest() == (
            "63b46dcfed12cb16c0404828ce65f3f21ffa4c31eeca20db66998a72cf464240")

    def test_connected_listing_ascends_at_seven(self):
        adj = np.fromiter(itertools.chain.from_iterable(
            g.adj for g in _enumerate(7, 0, GraphClass.CONNECTED)),
            np.uint8).reshape(-1, 7).astype(np.int64)
        masks = np.zeros(len(adj), np.int64)
        for k, (i, j) in enumerate(itertools.combinations(range(7), 2)):
            masks |= (adj[:, i] >> j & 1) << k
        assert len(masks) == 1866256
        assert np.all(np.diff(masks) > 0)


class TestPartitionsAndEnrichedTrees:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)])
    def test_set_partition_counts(self, n, bell):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell

    def test_enriched_tree_count_two_children(self):
        assert sum(1 for _ in enumerate_enriched_trees(2)) == 4

    def test_enriched_tree_count_one(self):
        assert sum(1 for _ in enumerate_enriched_trees(1)) == 1

    def test_enriched_tree_invariants(self):
        for et in enumerate_enriched_trees(3):
            assert isinstance(et, EnrichedTree)
            tree = et.tree
            assert connected(range(tree.n_vertices), tree.edges)
            assert len(tree.edges) == tree.n_vertices - 1
            # every child sits in exactly one clique of its parent
            for v, parts in enumerate(et.child_partitions):
                seen = set()
                for clique in parts:
                    assert clique, "empty clique"
                    assert not (seen & set(clique))
                    seen |= set(clique)


class TestConstruction:
    def test_from_edges_validates(self):
        with pytest.raises(ValueError, match="bad edge"):
            Graph.from_edges(3, [(1, 0)])
        with pytest.raises(ValueError, match="bad edge"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="white_count"):
            Graph.from_edges(2, [(0, 1)], 3)

    def test_edges_sorted_and_equal_graphs_compare_equal(self):
        g = Graph.from_edges(4, [(2, 3), (0, 2), (0, 1)], 1)
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.n_edges == 3
        assert g == Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)], 1)

    @pytest.mark.parametrize("adj,match", [
        ((2, 0), "asymmetric"),
        ((1, 1), "self-loop"),
        ((4, 0), "at or past n=2"),
        ((-1, 0), "at or past n=2"),
        ((2,), "one neighbor mask per vertex"),
    ])
    def test_contradictory_masks_are_rejected(self, adj, match):
        with pytest.raises(ValueError, match=match):
            Graph(2, adj)

    def test_masks_become_a_tuple_of_ints(self):
        g = Graph(2, [np.uint8(2), 1])
        assert g.adj == (2, 1)
        assert all(type(nbrs) is int for nbrs in g.adj)
        assert hash(g) == hash(Graph(2, (2, 1)))
        with pytest.raises(TypeError):
            Graph(2, (2.0, 1.0))

    def test_value_semantics(self):
        walked = list(enumerate_bicolored(1, 2, GraphClass.CONNECTED))
        g = walked[-1]
        assert repr(g) == "Graph(n_vertices=3, adj=(6, 5, 3), white_count=1)"
        assert hash(g) == hash((3, (6, 5, 3), 1))
        assert g == Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], 1)
        assert g != Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], 0)
        assert walked == [Graph.from_edges(3, e, 1) for e in
                          [[(0, 1), (0, 2)], [(0, 1), (1, 2)],
                           [(0, 2), (1, 2)], [(0, 1), (0, 2), (1, 2)]]]
        assert Graph(3, (0, 0, 0)).white_count == 0
        for tree in enumerate_bicolored(2, 2, GraphClass.TREE):
            copy = pickle.loads(pickle.dumps(tree))
            assert copy == tree and type(copy) is Graph
        with pytest.raises(AttributeError):
            g.adj = (0, 0, 0)
        with pytest.raises(AttributeError):
            g.color = "white"
        with pytest.raises(ValueError, match="self-loop"):
            g._replace(adj=(1, 0, 0))


class TestDump:
    def test_dump_line_format(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], 2)
        assert g.dump_line() == "3 2 0-1 1-2 whites=2"
        assert Graph.from_edges(3, []).dump_line() == "3 0 whites=0"

    @pytest.mark.parametrize("cls", [GraphClass.ALL, GraphClass.CONNECTED,
                                     GraphClass.BICONNECTED, GraphClass.TREE],
                             ids=lambda c: c.value)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_dump_lines_are_the_graphs_dump_lines(self, n, cls):
        assert list(dump_lines(n, cls)) == [
            g.dump_line() for g in enumerate_graphs(n, cls)]

    def test_dump_lines_at_block_boundaries_at_seven(self):
        # the last line of each block and the first of the next: the low
        # pairs' text and the high pairs' text both change there
        want = {m: Graph.from_edges(7, edges_of_mask(7, m)).dump_line()
                for j in range(1, 2 ** 21 // MASK_BLOCK)
                for m in (MASK_BLOCK * j - 1, MASK_BLOCK * j)}
        got = {m: line for m, line in enumerate(dump_lines(7, GraphClass.ALL))
               if m in want}
        assert got == want

    def test_dump_lines_caps(self):
        with pytest.raises(EnumerationTooLarge):
            next(dump_lines(8, GraphClass.CONNECTED))
        with pytest.raises(ValueError, match="n >= 1"):
            next(dump_lines(0, GraphClass.ALL))
