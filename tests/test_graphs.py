import itertools

import pytest

from clusterexp.graphs import (
    EnrichedTree,
    EnumerationTooLarge,
    Graph,
    GraphClass,
    _enumerate,
    blocks,
    cutpoints,
    enumerate_bicolored,
    enumerate_enriched_trees,
    enumerate_graphs,
    is_articulation_free,
    is_biconnected,
    is_connected,
    nodal_vertices,
    prufer_trees,
    set_partitions,
)


def brute_force_count(n, predicate):
    """Independent census: loop over all edge subsets directly."""
    pairs = list(itertools.combinations(range(n), 2))
    count = 0
    for r in range(len(pairs) + 1):
        for sub in itertools.combinations(pairs, r):
            g = Graph.from_edges(n, sub, n)
            if predicate(g):
                count += 1
    return count


# connected labeled graphs, OEIS A001187
CONNECTED_COUNTS = [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728), (6, 26704)]
# 2-connected labeled graphs, OEIS A013922
BICONNECTED_COUNTS = [(2, 1), (3, 1), (4, 10), (5, 238), (6, 11368)]


class TestCensus:
    @pytest.mark.parametrize("n,expected", CONNECTED_COUNTS,
                             ids=[str(n) for n, _ in CONNECTED_COUNTS])
    def test_connected_counts_match_brute_force(self, n, expected):
        got = sum(1 for _ in enumerate_graphs(n, GraphClass.CONNECTED))
        assert got == expected
        assert got == brute_force_count(n, is_connected)

    @pytest.mark.parametrize("n,expected", BICONNECTED_COUNTS,
                             ids=[str(n) for n, _ in BICONNECTED_COUNTS])
    def test_biconnected_counts_match_brute_force(self, n, expected):
        got = sum(1 for _ in enumerate_graphs(n, GraphClass.BICONNECTED))
        assert got == expected
        assert got == brute_force_count(n, is_biconnected)

    @pytest.mark.parametrize("n,total", [(1, 1), (2, 2), (3, 8), (4, 64)])
    def test_all_counts(self, n, total):
        assert sum(1 for _ in enumerate_graphs(n, GraphClass.ALL)) == total

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cayley_tree_counts(self, n):
        trees = list(prufer_trees(n))
        assert len(trees) == n ** (n - 2)
        assert len({t.edges for t in trees}) == len(trees)
        for t in trees:
            assert len(t.edges) == n - 1 and is_connected(t)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_graphs(9, GraphClass.CONNECTED))


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


class TestBlocksAndNodal:
    def test_path_blocks(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], 4)
        bl = blocks(g)
        assert len(bl) == 3
        assert cutpoints(g) == {1, 2}

    def test_triangle_with_pendant(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)], 4)
        bl = blocks(g)
        sizes = sorted(len(b.edges) for b in bl)
        assert sizes == [1, 3]
        assert cutpoints(g) == {2}

    def test_nodal_vertex_on_white_path(self):
        # white-black-white path: the middle black vertex separates whites
        # but still has two vertex-disjoint routes to distinct whites
        g = Graph.from_edges(3, [(0, 2), (1, 2)], 2)
        assert 2 in nodal_vertices(g)
        assert is_articulation_free(g)

    def test_dangling_black_is_articulated(self):
        # black 3 reaches a white only through black 2
        g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)], 2)
        assert not is_articulation_free(g)

    def test_nodal_census(self):
        # recorded with the earlier component-listing nodal_vertices
        got = sum(1 for g in enumerate_bicolored(2, 3, GraphClass.CONNECTED)
                  if nodal_vertices(g))
        assert got == 216

    def test_direct_edge_graph_articulation_free(self):
        g = Graph.from_edges(2, [(0, 1)], 2)
        assert is_articulation_free(g)


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
            assert is_connected(et.tree)
            assert len(et.tree.edges) == et.tree.n_vertices - 1
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
