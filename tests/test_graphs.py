import itertools

import pytest

from clusterexp.graphs import (
    EnrichedTree,
    EnumerationTooLarge,
    Graph,
    GraphClass,
    _class_filter,
    _enumerate,
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
        # one walk over the 2^21 masks serves the classes it filters
        walked = {cls: 0 for cls in COUNTED}
        for g in _enumerate(7, 0, GraphClass.ALL):
            walked[GraphClass.ALL] += 1
            if _class_filter(g.adj, 0, GraphClass.CONNECTED):
                walked[GraphClass.CONNECTED] += 1
                walked[GraphClass.BICONNECTED] += _class_filter(
                    g.adj, 0, GraphClass.BICONNECTED)
        walked[GraphClass.TREE] = sum(
            1 for _ in enumerate_graphs(7, GraphClass.TREE))
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
                edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
                assert g == Graph.from_edges(n, edges, whites)


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


class TestDump:
    def test_dump_line_format(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], 2)
        line = g.dump_line()
        assert line.startswith("3 2 ")
        assert "0-1" in line and "1-2" in line
        assert line.endswith("whites=2")
