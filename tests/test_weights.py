import ast
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from clusterexp import weights
from clusterexp.coefficients import a_kernel, irreducible_beta_n, mayer_b_n
from clusterexp.correlations import h_n_density, u_n_activity
from clusterexp.graphs import (EnumerationTooLarge, Graph, GraphClass,
                               enumerate_graphs, prufer_trees)
from clusterexp.potentials import (hard_rods, hard_spheres, lennard_jones,
                                   square_well, zero_potential)
from clusterexp.weights import (
    STREAMS,
    CoefficientEstimate,
    biconnected_sum_batch,
    class_integral,
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

    @pytest.mark.parametrize("weight", [
        graph_weight_exact_1d,
        lambda g, p: graph_weight_periodic_1d(g, p, 20.0)], ids=["line", "torus"])
    def test_cap_raises_enumeration_too_large(self, weight):
        n = weights.MAX_EXACT_BLACK + 2
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        with pytest.raises(EnumerationTooLarge):
            weight(path, hard_rods())

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


def _roots(n_roots, d):
    pts = np.zeros((n_roots, d))
    pts[:, 0] = [0.0, 1.2, 2.1][:n_roots]
    if d > 1:
        pts[:, 1] = [0.0, 0.3, -0.4][:n_roots]
    return pts


# class_sum_mc as at commit f398f1a, which scored every configuration: five
# vertices, of which the first n_roots are pinned at _roots(n_roots, d), and
# 4537 samples from default_rng(17), whose last batch and block are partial
# ("lj3" on four vertices)
MC_AS_AT_F398F1A = {
    ("hs2", "phi_t", 1): ("0x1.3b5a9adf8bdbfp+12", "0x1.1f1fd1bc78af7p+5"),
    ("hs2", "phi_t", 2): ("0x1.2f1056b1ea4c0p+8", "0x1.643c828fd3d2dp+2"),
    ("hs2", "phi_t", 3): ("0x1.1f234e4cb03b6p+1", "0x1.3bcb06084ec66p-3"),
    ("hs2", "bic", 1): ("-0x1.ee4439fa5dbfap+5", "0x1.94e09f40d7b97p+1"),
    ("hs2", "bic", 2): ("-0x1.400c02f34ebc6p-2", "0x1.1faaecdbb3d6ep-2"),
    ("hs2", "bic", 3): ("0x0.0p+0", "0x0.0p+0"),
    ("hs2", "kernel", 1): ("0x1.d0d9019f502e3p+10", "0x1.19012844e3b49p+5"),
    ("hs2", "kernel", 2): ("0x1.21c326945014cp+7", "0x1.9ee3c583a8a6fp+1"),
    ("hs2", "kernel", 3): ("0x1.1f234e4cb03b6p+1", "0x1.3bcb06084ec66p-3"),
    ("hs3", "phi_t", 1): ("0x1.2fa419b6c2ca7p+14", "0x1.016377e8cc271p+7"),
    ("hs3", "phi_t", 2): ("0x1.14e3c9e618bfdp+9", "0x1.95922606c3d17p+3"),
    ("hs3", "phi_t", 3): ("0x1.0e319fb92baf4p+1", "0x1.a2f2443b4875ap-3"),
    ("hs3", "bic", 1): ("-0x1.24b4d79b11970p+6", "0x1.0391a388a9014p+3"),
    ("hs3", "bic", 2): ("0x1.ef6e819168451p-7", "0x1.cc686f8744fccp-2"),
    ("hs3", "bic", 3): ("0x0.0p+0", "0x0.0p+0"),
    ("hs3", "kernel", 1): ("0x1.f28c1f2a502d5p+12", "0x1.229587dbd6af8p+7"),
    ("hs3", "kernel", 2): ("0x1.0ce49e753f011p+8", "0x1.d9683457e91f7p+2"),
    ("hs3", "kernel", 3): ("0x1.0e319fb92baf4p+1", "0x1.a2f2443b4875ap-3"),
    ("sw1", "phi_t", 1): ("-0x1.25178285272d8p+6", "0x1.3d627a278c9d5p+6"),
    ("sw1", "phi_t", 2): ("0x1.d99a81beddee7p+3", "0x1.57757c3a2d2e0p+4"),
    ("sw1", "phi_t", 3): ("-0x1.0e8c0e3eee2d9p+3", "0x1.8058c34d40df4p+1"),
    ("sw1", "bic", 1): ("-0x1.e8ff69acaacd1p+6", "0x1.a61a3e9a1a9d3p+4"),
    ("sw1", "bic", 2): ("-0x1.033bd5c1c62e4p+6", "0x1.85a0e8106522dp+3"),
    ("sw1", "bic", 3): ("0x1.f1aad50cdd039p-48", "0x1.1651bf9ae73fdp-50"),
    ("sw1", "kernel", 1): ("-0x1.76e74566f03ddp+6", "0x1.e2d4315d96d2bp+5"),
    ("sw1", "kernel", 2): ("-0x1.0e6123bcfefacp+3", "0x1.43c61279f97d1p+4"),
    ("sw1", "kernel", 3): ("-0x1.ccda703e903dcp+4", "0x1.e3384e87360fbp+1"),
    ("sw2", "phi_t", 1): ("-0x1.8f07fa1969efcp+13", "0x1.3faa4932bc7c6p+13"),
    ("sw2", "phi_t", 2): ("0x1.454ab8d3d266fp+9", "0x1.4183b35cd711cp+10"),
    ("sw2", "phi_t", 3): ("0x1.7b11088f4eff8p+7", "0x1.da539eed3fbf0p+6"),
    ("sw2", "bic", 1): ("0x1.32fe5e15e6fe5p+9", "0x1.0691f889e737ap+11"),
    ("sw2", "bic", 2): ("-0x1.5261c78e9fe03p+7", "0x1.3fe248e8cf70dp+8"),
    ("sw2", "bic", 3): ("-0x1.d406a45176745p+6", "0x1.aa663fd09b1b3p+4"),
    ("sw2", "kernel", 1): ("-0x1.96540441b5514p+12", "0x1.eaa97924bf970p+12"),
    ("sw2", "kernel", 2): ("-0x1.04449aac8596fp+9", "0x1.d240f919bbd83p+9"),
    ("sw2", "kernel", 3): ("-0x1.d50d1bc2d924dp+3", "0x1.845083ceaf926p+6"),
    ("sw3", "phi_t", 1): ("0x1.d16cbed717cf0p+21", "0x1.6c5404e869394p+18"),
    ("sw3", "phi_t", 2): ("0x1.ba50093dee37bp+17", "0x1.591e614af1701p+14"),
    ("sw3", "phi_t", 3): ("0x1.6bb62348885f9p+13", "0x1.c3bc515414417p+9"),
    ("sw3", "bic", 1): ("0x1.ecfaa238a9a6fp+14", "0x1.01b2a4194c14ep+16"),
    ("sw3", "bic", 2): ("0x1.714f0d36bd418p+12", "0x1.36bceb8e417f6p+12"),
    ("sw3", "bic", 3): ("0x1.9b43d81d68477p+8", "0x1.b81489b70462bp+7"),
    ("sw3", "kernel", 1): ("0x1.5f55a270f6297p+20", "0x1.144d0bcd259f4p+18"),
    ("sw3", "kernel", 2): ("0x1.3be786542896ep+16", "0x1.d7fb1ac8adbbbp+13"),
    ("sw3", "kernel", 3): ("0x1.addcd40bdaa4ap+12", "0x1.865989894ff55p+9"),
    ("lj3", "phi_t", 1): ("0x1.09ddae690928fp+14", "0x1.449bdbb097123p+10"),
}
POTENTIALS = {"hs2": hard_spheres(dimension=2), "hs3": hard_spheres(dimension=3),
              "sw1": square_well(dimension=1), "sw2": square_well(dimension=2),
              "sw3": square_well(dimension=3), "lj3": lennard_jones()}
SCORES = {"phi_t": phi_t_batch, "bic": biconnected_sum_batch,
          "kernel": kernel_sum_batch}


class TestBatches:
    """Configurations are drawn MC_BLOCK at a time, which fixes the stream,
    and scored in batches of whole blocks, which must change no value."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("m,n_roots", [(m, n) for m in range(2, 6)
                                           for n in (1, 2, 3) if n < m])
    def test_batch_size_changes_no_value(self, monkeypatch, m, n_roots, d):
        # a well makes two radial bins; 4537 samples end in a part block
        p = square_well(dimension=d)
        assert weights._batch_rows(m) > weights.MC_BLOCK

        def estimate():
            return weights.class_sum_mc(phi_t_batch, p, m, 4537,
                                        np.random.default_rng(5),
                                        root_positions=_roots(n_roots, d))

        batched = estimate()
        monkeypatch.setattr(weights, "BATCH_ENTRIES", 0)
        assert weights._batch_rows(m) == weights.MC_BLOCK
        assert estimate() == batched

    def test_hard_sphere_coefficients_as_at_9539195(self):
        # the values of commit 9539195, which scored one draw block at a time
        for est, value, err in (
                (mayer_b_n(hard_spheres(), 4, n_samples=5000, seed=1),
                 "-0x1.053314519be14p+5", "0x1.376af57e68c6ep-3"),
                (irreducible_beta_n(hard_spheres(), 3, n_samples=5000, seed=1),
                 "-0x1.cd98a979362d9p+1", "0x1.237edaa6481d8p-3")):
            assert (est.value, est.std_error) == \
                (float.fromhex(value), float.fromhex(err))

    @pytest.mark.parametrize("key", MC_AS_AT_F398F1A,
                             ids=lambda key: "-".join(map(str, key)))
    def test_class_sums_as_at_f398f1a(self, key):
        name, score, n_roots = key
        p = POTENTIALS[name]
        got = weights.class_sum_mc(SCORES[score], p, 4 if name == "lj3" else 5,
                                   4537, np.random.default_rng(17),
                                   root_positions=_roots(n_roots, p.dimension))
        assert got == tuple(map(float.fromhex, MC_AS_AT_F398F1A[key]))

    def test_each_bond_pattern_is_scored_once(self, monkeypatch):
        # a hard-sphere pair is in the core (f = -1) or not (f = 0), so its
        # ten pairs fix the weight of a configuration on five vertices
        i, j = np.triu_indices(5, 1)
        patterns, tree_rows = [], []

        def spy(f):
            patterns.extend(map(bytes, f[:, i, j] < 0))
            return phi_t_batch(f)

        def tree_spy(pdf):
            tree_rows.append(len(pdf))
            return fbar_tree_sum_batch(pdf)

        monkeypatch.setattr(weights, "fbar_tree_sum_batch", tree_spy)
        weights.class_sum_mc(spy, hard_spheres(), 5, 5000,
                             np.random.default_rng(1))
        assert len(set(patterns)) == len(patterns) <= 2 ** 10
        assert sum(tree_rows) == len(patterns) < 5000

    def test_no_samples_raise(self):
        with pytest.raises(ValueError, match="n_samples >= 1"):
            weights.class_sum_mc(phi_t_batch, hard_spheres(), 3, 0,
                                 np.random.default_rng(1))

    def test_pattern_codes_wider_than_63_bits_raise_before_drawing(
            self, monkeypatch):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew from the stream: {name}")

        def refuse(m):
            raise AssertionError(f"listed the {m}^{m - 2} trees")

        # 45 pairs in three codes (core, well, beyond) need 3^45 > 2^63
        monkeypatch.setattr(weights, "MAX_EXHAUSTIVE_N", 10)
        monkeypatch.setattr(weights, "_spanning_trees", refuse)
        with pytest.raises(ValueError, match="72 bits"):
            weights.class_sum_mc(phi_t_batch, square_well(), 10, 100, NoDraws())


class TestCoefficientEstimate:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CoefficientEstimate(1.0, -0.1, "mc")
        with pytest.raises(ValueError):
            CoefficientEstimate(1.0, 0.5, "exact1d")

    @pytest.mark.parametrize("fields", [{"seed": None}, {"seed": 4.0},
                                        {"samples": 2000.0}, {"samples": None}])
    def test_samples_and_seed_are_ints(self, fields):
        with pytest.raises(ValueError, match="must be an int"):
            CoefficientEstimate(7.39, 0.01, "mc", **fields)

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

    def test_float_sums_unchanged_by_the_integer_path(self):
        # values of the float-only subset recursions, before they kept the
        # dtype of f so that Python integers give exact counts
        f = random_pair_matrices(np.random.default_rng(17), 3, 5)
        expect = {
            phi_t_batch: ["-0x1.ffccc4b3769c6p-3", "-0x1.d27d927e41cb5p-6",
                          "0x1.6f629ee62abf2p-3"],
            biconnected_sum_batch: ["-0x1.cf1ece913f127p-4",
                                    "-0x1.2173562f75e07p-5",
                                    "0x1.aa02ece2fc151p-5"],
            lambda f: phi_batch(f)[:, -1]: ["0x1.e7fca830aeb28p-8",
                                            "0x1.836793340bf6cp-7",
                                            "0x1.536d2d99ef5efp-5"],
        }
        for score, values in expect.items():
            assert score(f).tolist() == [float.fromhex(v) for v in values]

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

    def test_torus_pins_one_vertex(self):
        with pytest.raises(ValueError, match="the torus pins one vertex"):
            lattice_class_sum(phi_t_batch, hard_rods(), 3, 10.0, (0.0, 0.5))

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

    # each side of the choice of path: (potential, m, L, cells, polytopes of
    # all graphs); the lattice runs when cells <= 250 polytopes
    @pytest.mark.parametrize("lam,score,m,L,lattice", [
        (1.0625, phi_t_batch, 3, None, True),    # 4,624 cells, 64 polytopes
        (1.03125, phi_t_batch, 3, None, False),  # 17,424 cells
        (None, phi_t_batch, 3, 20.0, True),      # hard rods: 400 cells, 64
        (None, phi_t_batch, 3, 20.0625, False),  # 103,041 cells
        (None, phi_t_batch, 4, 20.5, True),      # 68,921 cells, 4,096
        (None, biconnected_sum_batch, 3, 40.0, True),  # 1,600 cells, 64
    ])
    def test_takes_the_faster_path(self, lam, score, m, L, lattice):
        p = hard_rods() if lam is None else \
            square_well(sigma=1.0, lam=lam, epsilon=1.0, beta=1.0, dimension=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weights, "CELLS_PER_POLYTOPE", 10 ** 18)
            want = lattice_class_sum(score, p, m, L)
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
            got = lattice_class_sum(score, p, m, L)
        assert len(calls) == (0 if lattice else
                              len(list(weights._graph_terms(score, m))))
        assert got == pytest.approx(want, rel=1e-12)

    def test_hard_rod_triangle_on_the_torus_is_exact(self):
        # the triangle's f f f is -1 on a 3 sigma^2 area of the L^2 torus
        assert lattice_class_sum(biconnected_sum_batch, hard_rods(), 3, 40.0) \
            == -3 / 1600

    def test_path_choice_scores_nothing(self):
        # hard rods at m = 5 have 4,096 candidate cells on the line: every
        # score call is one block of the cells, and no call counts polytopes
        sizes = []

        def spy(f):
            sizes.append(len(f))
            return phi_t_batch(f)

        lattice_class_sum(spy, hard_rods(), 5)
        cells = weights._line_cells(np.arange(-4, 4), np.array([0]), 4, 1,
                                    weights._batch_rows(5))
        assert sizes == [len(n) for n in cells]

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
        # 7-row batches; candidates filtered 16 at a time
        monkeypatch.setattr(weights, "MC_BLOCK", 7)
        monkeypatch.setattr(weights, "BATCH_ENTRIES", 16)
        assert weights._batch_rows(4) == 7
        assert lattice_class_sum(biconnected_sum_batch, p, 4) == full

    @pytest.mark.parametrize("p,roots,m,L,block", [
        (SQUARE_WELLS[1.5], (0.0,), 5, None, None),
        (SQUARE_WELLS[1.5], (0.0,), 4, 10.0, None),
        (SQUARE_WELLS[1.5], (0.0, math.sqrt(2.0)), 4, None, None),
        (hard_rods(), (0.0, 0.5, 1.25), 6, None, None),
        # 3-row batches, fewer than the 4 orders of three free fractional
        # parts over two gaps
        (hard_rods(), (0.0, 0.3), 5, None, 3),
    ], ids=["line", "torus", "two-whites", "three-whites", "small-batches"])
    def test_no_score_call_exceeds_a_batch(self, monkeypatch, p, roots, m, L,
                                           block):
        want = lattice_class_sum(biconnected_sum_batch, p, m, L, roots)
        if block:
            monkeypatch.setattr(weights, "_batch_rows", lambda m: block)
        sizes = []

        def spy(f):
            sizes.append(len(f))
            return biconnected_sum_batch(f)

        assert lattice_class_sum(spy, p, m, L, roots) == want
        assert 0 < max(sizes) <= weights._batch_rows(m)

    @pytest.mark.parametrize("k", [1, 2])
    def test_two_white_sum_in_one_batch_calls_score_once(self, k):
        # 5^k candidate patterns, at most 250 cells, so no polytope count;
        # the k + 1 orders of the free fractional parts over the two gaps
        # are scored together
        sizes = []

        def spy(f):
            sizes.append(len(f))
            return phi_t_batch(f)

        m = 2 + k
        lattice_class_sum(spy, hard_rods(), m, root_positions=(0.0, 0.3))
        assert len(sizes) == 1
        assert sizes[0] % (k + 1) == 0 and sizes[0] <= weights._batch_rows(m)

    def test_no_cells_sum_to_zero(self):
        # f = 0 leaves R = 0 and no candidate pattern on the line
        from clusterexp import canonical
        p = zero_potential()
        assert lattice_class_sum(phi_t_batch, p, 2) == 0.0
        assert canonical.zeta(p, 2, 10.0) == 0.0

    def test_expansion_is_exact(self):
        terms = [1e16, 1.0, -1e16, 3e-17, 0.1, -0.1, 2.0 ** -1074]
        out = weights._expansion(list(terms))
        assert math.fsum(out) == math.fsum(terms)
        assert sum(map(Fraction, out)) == sum(map(Fraction, terms))
        assert weights._expansion([]) == []
        assert weights._expansion([1.0, -1.0]) == []

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


def joined_to_an_anchor(allowed, anchors, k, R):
    """Brute force: every pattern of ``allowed``^k, in C order, whose free
    parts are each joined to an anchor by steps of at most R, found by
    growing the set reached from the anchors one step at a time."""
    patterns = np.array(list(itertools.product(allowed, repeat=k)))
    points = np.concatenate(
        [np.broadcast_to(anchors, (len(patterns), len(anchors))), patterns],
        axis=1)
    near = np.abs(points[:, :, None] - points[:, None, :]) <= R
    reached = np.zeros(points.shape, dtype=bool)
    reached[:, :len(anchors)] = True
    for _ in range(k):
        reached |= (reached[:, :, None] & near).any(axis=1)
    return patterns[reached.all(axis=1)]


class TestLineCells:
    # (anchors, k, R): one anchor; two coincident ones; a negative one;
    # three, more than k R apart
    @pytest.mark.parametrize("anchors,k,R", [
        *(((0,), k, R) for k in (1, 2, 3, 4) for R in (1, 3)),
        *(((2, 2), k, 1) for k in (1, 2, 3, 4)),
        ((-3, 1), 3, 3), ((-7, -1), 2, 1),
        ((-5, 0, 5), 4, 1), ((0, 7, 14), 2, 3), ((0, 0, -2), 3, 3),
    ])
    @pytest.mark.parametrize("rows", [7, 1000])
    def test_matches_a_brute_force_filter(self, anchors, k, R, rows):
        # the range lattice_class_sum gives the free parts
        allowed = np.arange(min(anchors) - k * R, max(anchors) + 1 + k * R)
        blocks = list(weights._line_cells(allowed, np.array(anchors), k, R,
                                          rows))
        assert all(1 <= len(n) <= rows for n in blocks)
        assert np.array_equal(np.concatenate(blocks),
                              joined_to_an_anchor(allowed, anchors, k, R))


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
        # order 0 of the series, with no free vertex, reaches no integrator
        assert sizes == []

    def test_only_weights_stream_makes_generators(self):
        makers = set()
        for path in sorted(Path(weights.__file__).parent.glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                names = {getattr(n, "attr", getattr(n, "id", None))
                         for n in ast.walk(node)}
                if names & {"default_rng", "SeedSequence"}:
                    makers.add((path.stem, getattr(node, "name", None)))
        assert makers == {("weights", "stream")}

    @pytest.mark.parametrize("p,covered,auto", [
        (hard_rods(), True, "exact1d"),
        (hard_rods(), False, "mc"),
        (square_well(dimension=1), True, "exact1d"),
        (zero_potential(), True, "exact1d"),
        (hard_spheres(dimension=1), True, "exact1d"),
        (hard_spheres(), True, "mc"),
        (square_well(), True, "mc"),
        (lennard_jones(cutoff=2.5, dimension=1), True, "mc"),
    ], ids=["rods", "rods-uncovered", "well-1d", "zero", "spheres-1d",
            "spheres-3d", "well-3d", "lj-1d"])
    def test_auto_rule(self, p, covered, auto):
        assert weights.resolve_method(p, "auto", covered) == auto
        for method in ("exact1d", "mc"):
            assert weights.resolve_method(p, method, covered) == method
        with pytest.raises(ValueError, match="unknown method"):
            weights.resolve_method(p, "exact", covered)

    @pytest.mark.parametrize("p,L,message", [
        (lennard_jones(cutoff=2.5, dimension=1), None, "not piecewise constant"),
        (hard_spheres(), None, "one-dimensional"),
        (hard_rods(), 2.0, "L/2"),
    ])
    def test_exact_1d_domain(self, p, L, message):
        with pytest.raises(ValueError, match=message):
            weights.require_exact_1d(p, L)
        weights.require_exact_1d(hard_rods(), 2.5)

    def test_torus_sampler_draws_nothing_without_free_points(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        p = square_well(dimension=1)
        assert weights.torus_boltzmann_mc(p, 10.0, (0.0, 8.7), 0, 100, rng) \
            == (float(p.boltzmann(1.3)), 0.0)
        assert rng.bit_generator.state == state
        # nor is a stream needed
        assert weights.torus_boltzmann_mc(p, 10.0, (0.0, 8.7), 0, 100, None) \
            == (float(p.boltzmann(1.3)), 0.0)

    def test_flat_pinned_positions_lie_along_the_first_axis(self):
        p = hard_spheres()
        flat = class_integral(biconnected_sum_batch, p, 3, "mc", 1_000, 1,
                              ("c", 2, 1), root_positions=[0.0, 1.5])
        full = class_integral(biconnected_sum_batch, p, 3, "mc", 1_000, 1,
                              ("c", 2, 1),
                              root_positions=[[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        assert (flat.value.hex(), flat.std_error.hex()) == \
            (full.value.hex(), full.std_error.hex())
        assert flat == full

    @pytest.mark.parametrize("method", ["auto", "mc"])
    def test_no_free_vertex_scores_the_pins_and_draws_nothing(
            self, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated with no free vertex")

        for name in ("stream", "class_sum_mc", "lattice_class_sum"):
            monkeypatch.setattr(weights, name, refuse)
        p = hard_spheres()
        for r, want in [(0.5, -1.0), (1.5, 0.0)]:
            est = class_integral(biconnected_sum_batch, p, 2, method, 1_000,
                                 None, ("c", 2, 0), root_positions=[0.0, r])
            assert est == CoefficientEstimate(want, 0.0, "mc")
        assert mayer_b_n(p, 1, method, 1_000, None) == \
            CoefficientEstimate(1.0, 0.0, "mc")

    def test_class_sum_mc_needs_a_free_vertex(self):
        for m, roots in [(1, None), (2, [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])]:
            with pytest.raises(ValueError, match="m > the pinned vertices"):
                weights.class_sum_mc(biconnected_sum_batch, hard_spheres(), m,
                                     100, np.random.default_rng(1),
                                     root_positions=roots)

    @pytest.mark.parametrize("p", [zero_potential(dimension=3), hard_spheres()],
                             ids=["zero", "spheres"])
    def test_fewer_vertices_than_pins_raise(self, p):
        # a guard: f = 0 gives no 0.0 here
        with pytest.raises(ValueError, match="pinned vertices"):
            class_integral(phi_t_batch, p, 1, "mc", 100, 1, ("u", 2, 0),
                           root_positions=[[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])

    def test_exact_path_refuses_uncovered_pins_alone(self):
        # a guard: order 0 has no free vertex
        with pytest.raises(ValueError, match="one-dimensional"):
            h_n_density(hard_spheres(), 2, [0.0, 1.5], 0, method="exact1d")

    def test_exact_b_1_needs_one_dimension(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            mayer_b_n(hard_spheres(), 1, "exact1d")
        assert mayer_b_n(hard_rods(), 1, "exact1d") == \
            CoefficientEstimate(1.0, 0.0, "exact1d")

    def test_stream_refuses_a_missing_seed(self):
        # numpy would fill a None seed from OS entropy
        with pytest.raises(ValueError, match="needs a seed"):
            weights.stream(None, "b_n", 2)

    def test_stream_tags(self):
        assert len(set(STREAMS.values())) == len(STREAMS)
        # these tags fix every coefficient and series Monte Carlo value
        assert {name: STREAMS[name]
                for name in ("b_n", "beta_n", "a_n", "u", "rho", "h", "c")} \
            == {"b_n": 0, "beta_n": 1, "a_n": 2, "u": 3, "rho": 4, "h": 5, "c": 6}


SQUARE_WELL_1D = square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0,
                             dimension=1)


class TestTorusDomain:
    """``class_integral(..., L=L)``: the free-space integral over
    L^(d(m-1)) while (m - 1) * range < L/2, the torus cells from there."""

    @pytest.mark.parametrize("p", [hard_rods(), SQUARE_WELL_1D],
                             ids=["hard_rods", "square_well"])
    @pytest.mark.parametrize("score", [phi_t_batch, biconnected_sum_batch],
                             ids=["phi_t", "biconnected"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_line_regime_is_the_free_space_value_over_the_volume(self, p,
                                                                 score, m):
        L = 20.0
        free = class_integral(score, p, m, "exact1d", 0, 0, ("b_n", m))
        got = class_integral(score, p, m, "exact1d", 0, 0, ("b_n", m), L=L)
        assert got == CoefficientEstimate(free.value / L ** (m - 1), 0.0,
                                          "exact1d")

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_line_regime_monte_carlo_in_3d(self, m):
        p, L = hard_spheres(), 10.0
        free = class_integral(phi_t_batch, p, m, "mc", 2_000, 5, ("b_n", m))
        got = class_integral(phi_t_batch, p, m, "mc", 2_000, 5, ("b_n", m),
                             L=L)
        volume = L ** (3 * (m - 1))
        assert got == CoefficientEstimate(free.value / volume,
                                          free.std_error / volume, "mc",
                                          2_000, 5)

    # hard rods: (m - 1) * sigma is L/2 at (3, 4.0) and past it at (4, 5.0);
    # the square well (range 1.5) is past it at L = 7 from m = 4
    @pytest.mark.parametrize("p,m,L", [(hard_rods(), 3, 4.0),
                                       (hard_rods(), 4, 5.0),
                                       (SQUARE_WELL_1D, 3, 6.0),
                                       (SQUARE_WELL_1D, 4, 7.0)])
    @pytest.mark.parametrize("score", [phi_t_batch, biconnected_sum_batch],
                             ids=["phi_t", "biconnected"])
    def test_at_and_past_the_bound_sums_the_torus_cells(self, p, m, L, score):
        got = class_integral(score, p, m, "exact1d", 0, 0, ("b_n", m), L=L)
        assert got == CoefficientEstimate(lattice_class_sum(score, p, m, L),
                                          0.0, "exact1d")

    @pytest.mark.parametrize("p,m,L", [(hard_rods(), 3, 4.0),
                                       (hard_spheres(), 3, 3.9),
                                       (SQUARE_WELL_1D, 4, 7.0)])
    def test_monte_carlo_past_the_bound_raises(self, monkeypatch, p, m, L):
        def no_draws(*args, **kwargs):
            raise AssertionError("class_sum_mc called")

        monkeypatch.setattr(weights, "class_sum_mc", no_draws)
        with pytest.raises(ValueError, match=r"\(m - 1\) \* range < L/2"):
            class_integral(phi_t_batch, p, m, "mc", 100, 0, ("b_n", m), L=L)

    @pytest.mark.parametrize("method", ["exact1d", "mc"])
    def test_zero_potential_gives_positive_zero(self, method):
        for m in (2, 3, 4):
            got = class_integral(phi_t_batch, zero_potential(), m, method,
                                 100, 0, ("b_n", m), L=5.0)
            assert got.value == 0.0
            assert math.copysign(1.0, got.value) == 1.0
