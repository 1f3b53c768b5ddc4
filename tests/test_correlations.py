import math

import numpy as np
import pytest

from clusterexp import correlations, weights
from clusterexp.correlations import (
    articulation_free_pair_batch,
    black_to_white_batch,
    c2_density,
    convolve_1d,
    gc_correlation_oracle,
    h2_density_at,
    h_n_density,
    lens_volume,
    oz_residual_order,
    rho_2_from_u,
    rho_n_activity,
    u_n_activity,
)
from clusterexp.graphs import GraphClass, enumerate_bicolored
from clusterexp.potentials import hard_rods, hard_spheres, square_well
from clusterexp.weights import (biconnected_sum_batch, graph_weight_exact_1d,
                                phi_t_batch)

P = hard_rods()
SQUARE_WELL = square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0, dimension=1)


class TestActivitySeries:
    def test_one_point_density_series(self):
        # rho(z)/z at a point: 1, -2, 4.5 are n b_n for the Tonks gas
        s = u_n_activity(P, 1, [0.0], K=2)
        assert s.values[0] == pytest.approx(1.0, abs=1e-10)
        assert s.values[1] == pytest.approx(-2.0, abs=1e-10)
        assert s.values[2] == pytest.approx(4.5, abs=1e-10)

    def test_pair_connected_series_overlapping(self):
        s = u_n_activity(P, 2, [0.0, 0.5], K=2)
        assert s.values[0] == pytest.approx(-1.0, abs=1e-10)
        assert s.values[1] == pytest.approx(4.0, abs=1e-10)
        assert s.values[2] == pytest.approx(-13.0, abs=1e-10)

    def test_rho2_equals_partition_identity(self):
        for r in (0.5, 1.5):
            direct = rho_n_activity(P, 2, [0.0, r], K=2)
            from_u = rho_2_from_u(P, [0.0, r], K=2)
            for k in range(3):
                assert direct.values[k] == pytest.approx(from_u.values[k],
                                                         abs=1e-9)

    def test_rho2_vanishes_in_core(self):
        s = rho_n_activity(P, 2, [0.0, 0.5], K=2)
        assert all(abs(v) < 1e-10 for v in s.values)


class TestDensitySeries:
    def test_h_order0_is_f(self):
        s = h_n_density(P, 2, [0.0, 0.5], K=1)
        assert s.values[0] == pytest.approx(-1.0, abs=1e-10)
        assert s.values[1] == pytest.approx(0.0, abs=1e-10)

    def test_h_order1_outside_core(self):
        s = h_n_density(P, 2, [0.0, 1.5], K=1)
        assert s.values[0] == pytest.approx(0.0, abs=1e-10)
        assert s.values[1] == pytest.approx(0.5, abs=1e-10)

    def test_c_values(self):
        inside = c2_density(P, 0.5, K=1)
        assert inside.values[0] == pytest.approx(-1.0, abs=1e-10)
        assert inside.values[1] == pytest.approx(-1.5, abs=1e-10)
        outside = c2_density(P, 1.5, K=1)
        assert outside.values[0] == pytest.approx(0.0, abs=1e-10)
        assert outside.values[1] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            h_n_density(P, 2, [0.0, 1.5], K=1, method=method)
        with pytest.raises(ValueError, match="unknown method"):
            oz_residual_order(P, 0, [0.5], method=method)

    def test_h2_density_at_matches_h_n(self):
        a = h2_density_at(P, 1.5, K=1)
        b = h_n_density(P, 2, [0.0, 1.5], K=1)
        assert a.values == pytest.approx(b.values, abs=1e-12)

    def test_h_order1_is_core_overlap(self):
        # outside the core the only order-1 graph is the white-black-white
        # chain: conv(f, f)(r) = overlap of two unit cores at distance r
        for r in (1.2, 1.5, 1.8):
            s = h_n_density(P, 2, [0.0, r], K=1)
            assert s.values[1] == pytest.approx(2.0 - r, abs=1e-9)


class TestConvolution:
    def test_indicator_convolution(self):
        f = lambda x: np.where(np.abs(x) < 1.0, -1.0, 0.0)
        for r in (0.0, 0.5, 1.3, 1.9):
            got = convolve_1d(f, f, r, 1.0, 1.0, [1.0], [1.0])
            assert got == pytest.approx(max(2.0 - r, 0.0), abs=1e-12)

    def test_kink_handling(self):
        # convolving triangle-shaped pieces: result must be smooth in panels
        f = lambda x: np.where(np.abs(x) < 1.0, 1.0 - np.abs(x), 0.0)
        got = convolve_1d(f, f, 0.0, 1.0, 1.0, [1.0], [1.0])
        # int (1-|x|)^2 dx over [-1,1] = 2/3
        assert got == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_lens_volume(self):
        sigma = 1.0
        assert lens_volume(sigma, 0.0) == pytest.approx(4.0 * math.pi / 3.0,
                                                        abs=1e-12)
        assert lens_volume(sigma, 2.0 * sigma) == pytest.approx(0.0, abs=1e-12)
        # MC oracle at r = 1
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, size=(400_000, 3))
        inside = (np.linalg.norm(pts, axis=1) < 1.0) & (
            np.linalg.norm(pts - np.array([1.0, 0, 0]), axis=1) < 1.0)
        est = 8.0 * inside.mean()
        assert lens_volume(sigma, 1.0) == pytest.approx(est, rel=0.02)


class TestOzResiduals:
    def test_order0_exact(self):
        r = np.linspace(0.1, 2.5, 13)
        res = oz_residual_order(P, 0, r)
        assert res["max_abs"] < 1e-12

    def test_order1_exact(self):
        r = np.linspace(0.1, 2.5, 13)
        res = oz_residual_order(P, 1, r)
        assert res["max_abs"] < 1e-10

    def test_hard_sphere_order1_within_mc_error(self):
        r = np.array([0.5, 1.2, 1.8])
        res = oz_residual_order(hard_spheres(), 1, r, method="mc",
                                n_samples=40_000, seed=5)
        assert np.all(np.abs(res["residual"]) <= 3.0 * res["std_error"] + 1e-9)


class TestGrandCanonicalOracle:
    def test_pair_overlap_is_zero(self):
        est = gc_correlation_oracle(P, 2, [0.0, 0.5], z=0.05, L=40.0)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_density_matches_series_at_small_z(self):
        z, L = 0.01, 60.0
        oracle = gc_correlation_oracle(P, 1, [0.0], z=z, L=L)
        series = u_n_activity(P, 1, [0.0], K=3)
        pred = z * sum(series.values[k] * z ** k for k in range(4))
        # finite-L and O(z^5) truncation effects only
        assert oracle.value == pytest.approx(pred, abs=5e-8)

    def test_pair_matches_series_at_small_z(self):
        z, L = 0.02, 60.0
        r = 1.5
        oracle = gc_correlation_oracle(P, 2, [0.0, r], z=z, L=L)
        series = rho_n_activity(P, 2, [0.0, r], K=2)
        pred = z ** 2 * sum(series.values[k] * z ** k for k in range(3))
        assert oracle.value == pytest.approx(pred, abs=5e-7)

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError, match="unknown method"):
            gc_correlation_oracle(P, 1, [0.0], z=0.1, L=10.0, N_max=2,
                                  method=method, n_samples=2000, seed=1)

    def test_mc_fallback_agrees(self):
        est = gc_correlation_oracle(P, 1, [0.0], z=0.05, L=20.0,
                                    method="mc", n_samples=150_000, seed=9)
        exact = gc_correlation_oracle(P, 1, [0.0], z=0.05, L=20.0)
        assert est.agrees_with(exact.value, n_sigma=4.0, atol=1e-4)


def random_pair_matrices(rng, batch, n):
    """Random symmetric pair matrices (batch, n, n) with entries in
    (-1, 2), a Mayer f with a well, and a zero diagonal."""
    f = rng.uniform(-1.0, 2.0, size=(batch, n, n))
    return np.triu(f, 1) + np.triu(f, 1).transpose(0, 2, 1)


def edge_product_sum(f, graphs):
    out = np.zeros(len(f))
    for g in graphs:
        term = np.ones(len(f))
        for i, j in g.edges:
            term = term * f[:, i, j]
        out += term
    return out


class TestBicoloredScores:
    """Each class sum at a configuration equals its graph sum."""

    @pytest.mark.parametrize("n_white", [1, 2, 3])
    @pytest.mark.parametrize("n_black", [0, 1, 2, 3])
    def test_scores_are_graph_sums(self, n_white, n_black):
        m = n_white + n_black
        f = random_pair_matrices(np.random.default_rng(10 * n_white + n_black),
                                 16, m)
        scores = [(GraphClass.CONNECTED, phi_t_batch),
                  (GraphClass.BLACK_TO_WHITE_CONNECTED,
                   lambda f: black_to_white_batch(f, n_white))]
        if m >= 2:
            scores.append((GraphClass.BICONNECTED, biconnected_sum_batch))
        if n_white == 2:
            scores.append((GraphClass.ARTICULATION_FREE,
                           articulation_free_pair_batch))
        for cls, score in scores:
            want = edge_product_sum(f, enumerate_bicolored(n_white, n_black, cls))
            assert np.allclose(score(f), want, rtol=1e-12, atol=1e-12), cls

    def test_h_is_for_the_pair_only(self):
        with pytest.raises(ValueError, match="n = 2"):
            h_n_density(P, 3, [0.0, 0.5, 1.5], K=1)


def per_graph_series(p, cls, roots, K):
    """The per-graph polytope oracle: (1/k!) sum over the bicolored class
    of each graph's exact weight."""
    return [math.fsum(graph_weight_exact_1d(g, p, root_positions=roots)
                      for g in enumerate_bicolored(len(roots), k, cls))
            / math.factorial(k) for k in range(K + 1)]


class TestExactAgainstPolytopes:
    """Lattice class sums with pinned whites against per-graph polytopes."""

    # four-vertex square-well polytope sums take seconds and five-vertex
    # ones minutes, so the square well stops at K = 2
    @pytest.mark.parametrize("p,r,K", [(P, 0.5, 3), (P, 1.5, 3),
                                       (P, math.sqrt(2.0), 3), (P, 2.5, 3),
                                       (SQUARE_WELL, 0.7, 2), (SQUARE_WELL, 1.3, 2),
                                       (SQUARE_WELL, 1.7, 2), (SQUARE_WELL, 2.6, 2)])
    def test_series_match_per_graph_sums(self, p, r, K):
        pair = (0.0, r)
        for got, cls, roots in (
                (u_n_activity(p, 1, [0.0], K), GraphClass.CONNECTED, (0.0,)),
                (u_n_activity(p, 2, pair, K), GraphClass.CONNECTED, pair),
                (rho_n_activity(p, 2, pair, K),
                 GraphClass.BLACK_TO_WHITE_CONNECTED, pair),
                (h_n_density(p, 2, pair, K), GraphClass.ARTICULATION_FREE, pair),
                (c2_density(p, r, K), GraphClass.BICONNECTED, pair)):
            want = per_graph_series(p, cls, roots, K)
            assert got.values == pytest.approx(want, rel=1e-12, abs=1e-12), cls

    def test_whites_off_the_lattice_stream_in_blocks(self, monkeypatch):
        # the sum does not depend on the block size
        full = h_n_density(SQUARE_WELL, 2, [0.0, 1.7], 2).values
        monkeypatch.setattr(weights, "MC_BLOCK", 7)
        assert h_n_density(SQUARE_WELL, 2, [0.0, 1.7], 2).values == full

    def test_no_per_graph_weights_on_lattice_potentials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-graph weight in a correlation series")

        for module, name in ((correlations, "graph_weight_exact_1d"),
                             (correlations, "graph_weight_mc"),
                             (weights, "graph_weight_exact_1d"),
                             (weights, "graph_weight_mc"),
                             (weights, "difference_polytope_volume")):
            monkeypatch.setattr(module, name, refuse)
        for p, r in ((P, math.sqrt(2.0)), (SQUARE_WELL, 1.7)):
            u_n_activity(p, 2, [0.0, r], 3)
            rho_2_from_u(p, [0.0, r], 3)
            rho_n_activity(p, 2, [0.0, r], 3)
            h2_density_at(p, r, 3)
            c2_density(p, r, 3)
        h2_density_at(hard_spheres(), 1.2, 2, method="mc", n_samples=500, seed=1)


class TestMonteCarloSeries:
    def test_agrees_with_exact(self):
        for p, r in ((P, 1.5), (SQUARE_WELL, 1.7)):
            for fn in (h2_density_at, c2_density):
                exact = fn(p, r, 2)
                mc = fn(p, r, 2, method="mc", n_samples=20_000, seed=4)
                for k in range(3):
                    assert abs(mc.values[k] - exact.values[k]) <= \
                        4.0 * mc.std_errors[k] + 1e-12, (fn.__name__, k)
        exact = rho_n_activity(SQUARE_WELL, 2, [0.0, 1.7], 2)
        mc = rho_n_activity(SQUARE_WELL, 2, [0.0, 1.7], 2, method="mc",
                            n_samples=20_000, seed=4)
        for k in range(3):
            assert abs(mc.values[k] - exact.values[k]) <= \
                4.0 * mc.std_errors[k] + 1e-12

    def test_order_does_not_depend_on_K(self):
        short = h2_density_at(hard_spheres(), 1.2, 1, method="mc",
                              n_samples=2_000, seed=3)
        long = h2_density_at(hard_spheres(), 1.2, 3, method="mc",
                             n_samples=2_000, seed=3)
        assert long.values[:2] == short.values
        assert long.std_errors[:2] == short.std_errors

    def test_h_and_c_use_different_streams(self, monkeypatch):
        states = {}

        def recording(score, p, m, n_samples, rng, root_positions=None):
            states.setdefault(score, []).append(
                rng.bit_generator.state["state"]["state"])
            return 0.0, 0.0

        monkeypatch.setattr(correlations, "class_sum_mc", recording)
        h2_density_at(hard_spheres(), 1.2, 2, method="mc", seed=3)
        c2_density(hard_spheres(), 1.2, 2, method="mc", seed=3)
        h = states[articulation_free_pair_batch]
        c = states[biconnected_sum_batch]
        assert len(set(h)) == len(set(c)) == 3
        assert not set(h) & set(c)
