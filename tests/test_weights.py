import ast
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from clusterexp import weights
from clusterexp.coefficients import a_kernel, irreducible_beta_n, mayer_b_n
from clusterexp.correlations import u_n_activity
from clusterexp.graphs import (EnumerationTooLarge, Graph, GraphClass,
                               enumerate_graphs, prufer_trees)
from clusterexp.potentials import (hard_rods, hard_spheres, lennard_jones,
                                   square_well, zero_potential)
from clusterexp.weights import (
    STREAMS,
    CoefficientEstimate,
    biconnected_sum_batch,
    connected_sums,
    difference_polytope_volume,
    fbar_tree_sum_batch,
    graph_weight_exact_1d,
    graph_weight_mc,
    graph_weight_periodic_1d,
    kernel_sum_batch,
    lattice_class_sum,
    pair_f_matrix,
    phi_batch,
    phi_t_batch,
    phi_t_value,
)

EDGE = Graph.from_edges(2, [(0, 1)], 1)
TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], 1)
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)], 1)


def mc_volume(constraints, box, k, n=200_000, seed=3):
    """Monte Carlo oracle for difference-constraint polytope volumes."""
    rng = np.random.default_rng(seed)
    lo, hi = box
    x = rng.uniform(lo, hi, size=(n, k))
    ok = np.ones(n, dtype=bool)
    for i, j, clo, chi in constraints:
        xi = x[:, i] if i >= 0 else 0.0
        xj = x[:, j] if j >= 0 else 0.0
        d = xi - xj
        ok &= (d >= clo) & (d <= chi)
    return (hi - lo) ** k * ok.mean()


class TestPolytopeVolume:
    def test_interval(self):
        # single variable pinned to [0.25, 1.0]
        v = difference_polytope_volume(1, [(0, -1, 0.25, 1.0)])
        assert v == pytest.approx(0.75, abs=1e-12)

    def test_half_square(self):
        # x1, x2 in [0,1], x2 - x1 >= 0
        v = difference_polytope_volume(
            2, [(0, -1, 0.0, 1.0), (1, -1, 0.0, 1.0), (1, 0, 0.0, 10.0)])
        assert v == pytest.approx(0.5, abs=1e-10)

    def test_band_around_diagonal(self):
        cons = [(0, -1, 0.0, 1.0), (1, -1, 0.0, 1.0), (1, 0, -0.25, 0.25)]
        exact = 1.0 - 0.75 ** 2  # unit square minus two corner triangles
        assert difference_polytope_volume(2, cons) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("k,seed", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1), (5, 2)],
                             ids=["0", "1", "2", "k5-0", "k5-1", "k5-2"])
    def test_random_3d_against_mc(self, k, seed):
        rng = np.random.default_rng(seed)
        cons = [(i, -1, -1.0, 1.0) for i in range(k)]
        for _ in range(k):
            i, j = rng.choice(k, size=2, replace=False)
            c = rng.uniform(-0.5, 0.5)
            w = rng.uniform(0.4, 1.2)
            cons.append((int(i), int(j), c - w, c + w))
        v = difference_polytope_volume(k, cons)
        est = mc_volume(cons, (-1.0, 1.0), k, n=400_000, seed=seed + 10)
        frac = est / 2.0 ** k
        sigma = 2.0 ** k * math.sqrt(frac * (1.0 - frac) / 400_000)
        assert abs(v - est) <= 5 * sigma

    def test_infeasible_is_zero(self):
        cons = [(0, -1, 0.0, 1.0), (1, -1, 0.0, 1.0), (1, 0, 3.0, 4.0)]
        assert difference_polytope_volume(2, cons) == 0.0

    @pytest.mark.parametrize("k,cons", [
        (2, [(1, 0, 0.5, 0.5)]),
        (1, [(0, -1, 0.3, 0.3)]),
    ], ids=["equality-in-box", "point"])
    def test_flat_is_zero(self, k, cons):
        assert difference_polytope_volume(k, cons, box=(0.0, 1.0)) == 0.0

    def test_unbounded_raises(self):
        with pytest.raises(ValueError):
            difference_polytope_volume(2, [(1, 0, 0.0, 1.0)])

    def test_qhull_goes_through_the_traced_names(self, monkeypatch):
        # bench/tracing.py counts weights.qhull by wrapping these two names
        calls = []
        for name in ("HalfspaceIntersection", "ConvexHull"):
            def counted(*args, name=name, real=getattr(weights, name)):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(weights, name, counted)
        cons = [(0, -1, -1.0, 1.0), (1, -1, -1.0, 1.0), (1, 0, -1.5, 1.5)]
        assert difference_polytope_volume(2, cons) == pytest.approx(3.75, abs=1e-12)
        assert sorted(calls) == ["ConvexHull", "HalfspaceIntersection"]


class TestExact1D:
    def test_edge_weight(self):
        assert graph_weight_exact_1d(EDGE, hard_rods()) == pytest.approx(-2.0, abs=1e-12)

    def test_triangle_weight(self):
        assert graph_weight_exact_1d(TRIANGLE, hard_rods()) == pytest.approx(-3.0, abs=1e-12)

    def test_path_weight(self):
        # int f(x) dx * int f(y) dy for the chain = (-2)^2
        assert graph_weight_exact_1d(PATH3, hard_rods()) == pytest.approx(4.0, abs=1e-12)

    def test_square_well_edge(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.3, beta=1.0, dimension=1)
        expected = -2.0 + 2.0 * 0.5 * math.expm1(0.3)
        assert graph_weight_exact_1d(EDGE, p) == pytest.approx(expected, abs=1e-12)

    def test_matches_quadrature_on_square_well_triangle(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.4, beta=1.0, dimension=1)
        val_exact = graph_weight_exact_1d(TRIANGLE, p)
        # midpoint-rule oracle on a fine grid
        xs = np.linspace(-3.0, 3.0, 1201)
        h = xs[1] - xs[0]
        X, Y = np.meshgrid(xs + h / 2, xs + h / 2, indexing="ij")
        f = p.mayer_f
        val = np.sum(f(np.abs(X)) * f(np.abs(Y)) * f(np.abs(X - Y))) * h * h
        assert val_exact == pytest.approx(val, abs=5e-3)

    def test_two_roots(self):
        # pinned white vertices at distance 0.5: single edge weight f(0.5)
        g = Graph.from_edges(2, [(0, 1)], 2)
        assert graph_weight_exact_1d(g, hard_rods(), root_positions=(0.0, 0.5)) \
            == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [zero_potential(), hard_rods()],
                             ids=["zero", "hard-rods"])
    def test_free_vertex_with_no_edge_diverges(self, p):
        with pytest.raises(ValueError, match="unbounded integration region"):
            graph_weight_exact_1d(Graph.from_edges(2, []), p)

    def test_zero_potential(self):
        p = zero_potential()
        pinned = Graph.from_edges(2, [], 2)
        assert graph_weight_exact_1d(pinned, p, root_positions=(0.0, 0.5)) == 1.0
        assert graph_weight_exact_1d(EDGE, p) == 0.0
        assert graph_weight_exact_1d(PATH3, p) == 0.0


class TestPeriodic1D:
    def test_edge_periodic(self):
        assert graph_weight_periodic_1d(EDGE, hard_rods(), L=10.0) \
            == pytest.approx(-0.2, abs=1e-12)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            graph_weight_periodic_1d(EDGE, hard_rods(), L=1.5)

    def test_zero_potential(self):
        # the normalized torus integral of an edgeless graph is 1
        p = zero_potential()
        assert graph_weight_periodic_1d(Graph.from_edges(3, []), p, L=10.0) == 1.0
        assert graph_weight_periodic_1d(EDGE, p, L=10.0) == 0.0

    def test_matches_free_weight_for_large_L(self):
        # with L large the periodic images cannot contribute: w_bar = w / L^{n-1}
        free = graph_weight_exact_1d(TRIANGLE, hard_rods())
        per = graph_weight_periodic_1d(TRIANGLE, hard_rods(), L=50.0)
        assert per == pytest.approx(free / 50.0 ** 2, rel=1e-12)


class TestMonteCarlo:
    def test_hard_sphere_edge_zero_variance(self):
        est = graph_weight_mc(EDGE, hard_spheres(), n_samples=2_000, seed=1)
        assert est.value == pytest.approx(-4.0 * math.pi / 3.0, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_hard_sphere_triangle(self):
        est = graph_weight_mc(TRIANGLE, hard_spheres(),
                              n_samples=200_000, seed=7)
        exact = -5.0 * math.pi ** 2 / 6.0
        assert est.agrees_with(exact, n_sigma=4.0)
        assert est.std_error < abs(exact) * 0.02

    def test_mc_matches_exact_1d(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.3, beta=1.0, dimension=1)
        exact = graph_weight_exact_1d(TRIANGLE, p)
        est = graph_weight_mc(TRIANGLE, p, n_samples=300_000, seed=11)
        assert est.agrees_with(exact, n_sigma=4.0)

    def test_seed_reproducibility(self):
        a = graph_weight_mc(TRIANGLE, hard_spheres(), n_samples=5_000, seed=5)
        b = graph_weight_mc(TRIANGLE, hard_spheres(), n_samples=5_000, seed=5)
        assert a.value == b.value and a.std_error == b.std_error


class TestCoefficientEstimate:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CoefficientEstimate(1.0, -0.1, "mc")
        with pytest.raises(ValueError):
            CoefficientEstimate(1.0, 0.5, "exact1d")

    def test_agrees_with(self):
        est = CoefficientEstimate(1.0, 0.1, "mc", samples=10)
        assert est.agrees_with(1.25)
        assert not est.agrees_with(1.5)


def random_pair_matrices(rng, batch, n):
    """Random symmetric pair matrices (batch, n, n) with entries in
    (-1, 1), the range of a Mayer f, and a zero diagonal."""
    f = rng.uniform(-1.0, 1.0, size=(batch, n, n))
    return np.triu(f, 1) + np.triu(f, 1).transpose(0, 2, 1)


def kernel_graphs(n):
    """Graphs on {0..n} whose restriction to {1..n} is connected and whose
    vertex 0 has at least one edge."""
    zero_edges = [(0, v) for v in range(1, n + 1)]
    for core in enumerate_graphs(n, GraphClass.CONNECTED):
        shifted = [(i + 1, j + 1) for i, j in core.edges]
        for r in range(1, n + 1):
            for attach in itertools.combinations(zero_edges, r):
                yield Graph.from_edges(n + 1, shifted + list(attach), white_count=1)


def edge_product_sum(f, graphs):
    out = np.zeros(len(f))
    for g in graphs:
        term = np.ones(len(f))
        for i, j in g.edges:
            term = term * f[:, i, j]
        out += term
    return out


class TestPartitionIdentities:
    def setup_method(self):
        rng = np.random.default_rng(42)
        self.p = square_well(sigma=1.0, lam=1.5, epsilon=0.5, beta=1.0, dimension=1)
        self.points = rng.uniform(0.0, 4.0, size=(32, 4, 1))
        diff = self.points[:, :, None, :] - self.points[:, None, :, :]
        self.r = np.linalg.norm(diff, axis=-1)
        self.f = np.asarray(self.p.mayer_f(self.r))
        self.fbar = np.asarray(self.p.mayer_fbar(self.r))
        for m in (self.f, self.fbar):
            idx = np.arange(4)
            m[:, idx, idx] = 0.0

    def graph_sum(self, cls):
        return edge_product_sum(self.f, enumerate_graphs(4, cls))

    def test_phi_batch_is_all_graph_sum(self):
        got = phi_batch(self.f)[:, -1]
        expect = self.graph_sum(GraphClass.ALL)
        assert np.allclose(got, expect, atol=1e-12)

    def test_phi_t_batch_is_connected_graph_sum(self):
        got = phi_t_batch(self.f)
        expect = self.graph_sum(GraphClass.CONNECTED)
        assert np.allclose(got, expect, atol=1e-12)

    def test_phi_t_value_matches_batch(self):
        v = phi_t_value(self.p, self.points[0])
        assert v == pytest.approx(phi_t_batch(self.f)[0], abs=1e-12)

    def test_matrix_tree_equals_explicit_tree_sum(self):
        got = fbar_tree_sum_batch(self.fbar)
        expect = np.zeros(len(self.fbar))
        for t in prufer_trees(4):
            term = np.ones(len(self.fbar))
            for i, j in t.edges:
                term = term * self.fbar[:, i, j]
            expect += term
        assert np.allclose(got, expect, atol=1e-10)

    def test_pair_f_matrix(self):
        m = pair_f_matrix(self.p, self.points[0])
        assert m.shape == (4, 4)
        assert np.allclose(np.diag(m), 0.0)
        assert np.allclose(m, m.T)


class TestClassSums:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_biconnected_recursion_is_graph_sum(self, m):
        f = random_pair_matrices(np.random.default_rng(m), 16, m)
        expect = edge_product_sum(f, enumerate_graphs(m, GraphClass.BICONNECTED))
        assert np.allclose(biconnected_sum_batch(f), expect, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kernel_product_is_graph_sum(self, n):
        f = random_pair_matrices(np.random.default_rng(10 + n), 16, n + 1)
        expect = edge_product_sum(f, kernel_graphs(n))
        assert np.allclose(kernel_sum_batch(f), expect, rtol=0.0, atol=1e-12)

    def test_connected_sums_cover_every_subset(self):
        f = random_pair_matrices(np.random.default_rng(7), 8, 4)
        sums = connected_sums(f)
        for s in range(1, 16):
            verts = [v for v in range(4) if s >> v & 1]
            sub = f[:, verts][:, :, verts]
            assert np.allclose(sums[s], phi_t_batch(sub), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p", [hard_spheres(), lennard_jones(beta=0.5)],
                             ids=["hard_sphere", "lennard_jones"])
    def test_tree_sum_unchanged_by_vectorised_diagonal(self, p):
        # the per-sample fill_diagonal loop this replaced, as the reference
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.5, 1.5, size=(200, 5, 3))
        r = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)
        fbar = np.asarray(p.mayer_fbar(r))
        w = fbar.copy()
        for b in range(len(w)):
            np.fill_diagonal(w[b], 0.0)
        lap = -w
        idx = np.arange(5)
        lap[:, idx, idx] = w.sum(axis=2)
        assert np.array_equal(fbar_tree_sum_batch(fbar),
                              np.linalg.det(lap[:, 1:, 1:]))


def boltzmann_product(f):
    i, j = np.triu_indices(f.shape[1], 1)
    return np.prod(1.0 + f[:, i, j], axis=1)


# (score, graphs on m vertices whose f-bond products it sums)
CLASS_SUMS = {
    "connected": (phi_t_batch, lambda m: enumerate_graphs(m, GraphClass.CONNECTED)),
    "biconnected": (biconnected_sum_batch,
                    lambda m: enumerate_graphs(m, GraphClass.BICONNECTED)),
    "kernel": (kernel_sum_batch, lambda m: kernel_graphs(m - 1)),
    "all": (boltzmann_product, lambda m: enumerate_graphs(m, GraphClass.ALL)),
}
SQUARE_WELLS = {lam: square_well(sigma=1.0, lam=lam, epsilon=1.0, beta=1.0,
                                 dimension=1) for lam in (1.5, 2.0)}


class TestLatticeClassSum:
    """Class sums over lattice cells against the per-graph polytope sums."""

    @pytest.mark.parametrize("cls", ["connected", "biconnected", "kernel"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_hard_rods_match_polytopes(self, cls, m):
        score, graphs = CLASS_SUMS[cls]
        want = sum(graph_weight_exact_1d(g, hard_rods()) for g in graphs(m))
        assert lattice_class_sum(score, hard_rods(), m) == \
            pytest.approx(want, rel=1e-12, abs=1e-12)

    # five-vertex square-well polytope sums take a minute each; see
    # test_square_well_order_five_matches_recorded_polytope_values
    @pytest.mark.parametrize("lam", [1.5, 2.0])
    @pytest.mark.parametrize("cls", ["connected", "biconnected", "kernel"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_square_well_matches_polytopes(self, lam, cls, m):
        p = SQUARE_WELLS[lam]
        score, graphs = CLASS_SUMS[cls]
        want = sum(graph_weight_exact_1d(g, p) for g in graphs(m))
        assert lattice_class_sum(score, p, m) == \
            pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_square_well_order_five_matches_recorded_polytope_values(self):
        # 5! b_5, 4! beta_4 and the 570-graph kernel sum of a_4 from the
        # per-graph polytope path
        p = SQUARE_WELLS[1.5]
        assert lattice_class_sum(phi_t_batch, p, 5) / 120 == \
            pytest.approx(0.05234621010122877, rel=1e-12)
        assert lattice_class_sum(biconnected_sum_batch, p, 5) / 24 == \
            pytest.approx(-4.436070638600947, rel=1e-12)
        assert lattice_class_sum(kernel_sum_batch, p, 5) == \
            pytest.approx(-9.70874294397424, rel=1e-12)

    @pytest.mark.parametrize("L", [10.0, 20.0])
    @pytest.mark.parametrize("cls", ["connected", "biconnected", "all"])
    @pytest.mark.parametrize("name,m", [("hard_rods", 2), ("hard_rods", 3),
                                        ("hard_rods", 4), ("square_well", 2),
                                        ("square_well", 3)])
    def test_torus_matches_periodic_polytopes(self, L, cls, name, m):
        # four-vertex square-well periodic polytope sums take 37 s each
        p = hard_rods() if name == "hard_rods" else SQUARE_WELLS[1.5]
        score, graphs = CLASS_SUMS[cls]
        want = sum(graph_weight_periodic_1d(g, p, L) for g in graphs(m))
        assert lattice_class_sum(score, p, m, L) == \
            pytest.approx(want, rel=1e-12, abs=1e-12)

    # each side of the choice of path: (potential, m, L, cells, polytopes);
    # the lattice runs when cells <= 250 polytopes on the line, 40 on the torus
    @pytest.mark.parametrize("lam,m,L,lattice", [
        (1.0625, 3, None, True),    # 4,624 cells, 54 polytopes
        (1.03125, 3, None, False),  # 17,424 cells
        (None, 3, 20.0, True),      # hard rods: 400 cells, 54 polytopes
        (None, 3, 20.0625, False),  # 103,041 cells
        (None, 4, 20.5, True),      # 68,921 cells, 3,834 polytopes
    ])
    def test_takes_the_faster_path(self, lam, m, L, lattice):
        p = hard_rods() if lam is None else \
            square_well(sigma=1.0, lam=lam, epsilon=1.0, beta=1.0, dimension=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "LINE_POLYTOPE_CELLS", 10 ** 18)
            mp.setattr(weights, "TORUS_POLYTOPE_CELLS", 10 ** 18)
            want = lattice_class_sum(phi_t_batch, p, m, L)
        calls = []

        def counted(weight):
            def wrapped(*args):
                calls.append(args[0])
                return weight(*args)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "graph_weight_exact_1d",
                       counted(graph_weight_exact_1d))
            mp.setattr(weights, "graph_weight_periodic_1d",
                       counted(graph_weight_periodic_1d))
            got = lattice_class_sum(phi_t_batch, p, m, L)
        assert len(calls) == (0 if lattice else
                              len(list(enumerate_graphs(m, GraphClass.CONNECTED))))
        assert got == pytest.approx(want, rel=1e-12)

    def test_irrational_lengths_fall_back_to_polytopes(self):
        p = square_well(sigma=1.0, lam=math.sqrt(2.0), epsilon=1.0, beta=1.0,
                        dimension=1)
        calls = []

        def counted(g, p, L):
            calls.append(g)
            return graph_weight_periodic_1d(g, p, L)

        # 2 b_2 = int f = -2 + 2 (lambda - 1)(e - 1)
        b2 = 2.0 * (-1.0 + (math.sqrt(2.0) - 1.0) * math.expm1(1.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "graph_weight_periodic_1d", counted)
            assert lattice_class_sum(phi_t_batch, p, 2, 10.0) == \
                pytest.approx(b2 / 10.0, rel=1e-12)
        assert len(calls) == 1
        assert lattice_class_sum(phi_t_batch, p, 2) == pytest.approx(b2, rel=1e-12)
        assert lattice_class_sum(phi_t_batch, hard_rods(), 2, 10.0 * math.sqrt(2.0)) \
            == pytest.approx(-2.0 / (10.0 * math.sqrt(2.0)), rel=1e-12)
        # a decimal length is its float's exact binary value, so none fits
        p = square_well(sigma=1.0, lam=1.1, epsilon=1.0, beta=1.0, dimension=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "graph_weight_periodic_1d", counted)
            assert lattice_class_sum(phi_t_batch, p, 2, 12.3) == pytest.approx(
                2.0 * (-1.0 + 0.1 * math.expm1(1.0)) / 12.3, rel=1e-12)
        assert len(calls) == 2

    def test_fallback_reads_the_class_off_the_score(self):
        # the Mobius inversion of a class sum lists exactly its graphs
        for cls in ("connected", "biconnected", "kernel"):
            score, graphs = CLASS_SUMS[cls]
            terms = list(weights._graph_terms(score, 4))
            assert {c for c, _ in terms} == {1}
            assert sorted(g.edges for _, g in terms) == \
                sorted(g.edges for g in graphs(4))

    def test_cells_stream_in_blocks(self, monkeypatch):
        # the sum does not depend on the block size
        p = SQUARE_WELLS[1.5]
        full = lattice_class_sum(biconnected_sum_batch, p, 4)
        monkeypatch.setattr(weights, "MC_BLOCK", 7)
        assert lattice_class_sum(biconnected_sum_batch, p, 4) == full

    def test_caps(self):
        with pytest.raises(ValueError):
            lattice_class_sum(phi_t_batch, hard_rods(), 7)
        with pytest.raises(ValueError):
            lattice_class_sum(phi_t_batch, hard_rods(), 2, 1.5)
        with pytest.raises(ValueError):
            lattice_class_sum(phi_t_batch, hard_spheres(), 2)

    def test_cap_counts_the_pinned_vertices(self):
        # MAX_EXACT_BLACK free vertices run, so the cap on m is n_roots + 5
        for roots, m, cap in (((0.0,), 7, 6), ((0.0, 1.5), 8, 7)):
            with pytest.raises(EnumerationTooLarge,
                               match=f"n={m} exceeds cap {cap} "):
                lattice_class_sum(phi_t_batch, hard_rods(), m,
                                  root_positions=roots)


def _no_polytopes(*args, **kwargs):
    raise AssertionError("per-graph polytope path called")


class TestEstimatorPolicy:
    @pytest.mark.parametrize("method", ["exact1d", "mc"])
    def test_vanishing_f_gives_positive_zero_and_integrates_nothing(
            self, monkeypatch, method):
        sizes = []
        for name in ("lattice_class_sum", "class_sum_mc"):
            def recording(score, p, m, *args, real=getattr(weights, name),
                          **kwargs):
                sizes.append(m)
                return real(score, p, m, *args, **kwargs)
            monkeypatch.setattr(weights, name, recording)
        p = zero_potential()
        values = [fn(p, n, method, 1_000, 1).value
                  for fn in (mayer_b_n, irreducible_beta_n, a_kernel)
                  for n in (2, 3)]
        values += u_n_activity(p, 2, [0.0, 0.5], 3, method, 1_000, 1).values[1:]
        # +0.0, though a_kernel negates the class integral
        assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)
        # only order 0 of the series, with no free vertex, is evaluated
        assert sizes == [2]

    def test_only_weights_stream_makes_generators(self):
        makers = set()
        for path in sorted(Path(weights.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                names = {getattr(n, "attr", getattr(n, "id", None))
                         for n in ast.walk(node)}
                if names & {"default_rng", "SeedSequence"}:
                    makers.add((path.stem, getattr(node, "name", None)))
        assert makers == {("weights", "stream")}

    def test_stream_tags(self):
        assert len(set(STREAMS.values())) == len(STREAMS)
        # these tags fix every coefficient and series Monte Carlo value
        assert {name: STREAMS[name]
                for name in ("b_n", "beta_n", "a_n", "u", "rho", "h", "c")} \
            == {"b_n": 0, "beta_n": 1, "a_n": 2, "u": 3, "rho": 4, "h": 5, "c": 6}
