import math

import numpy as np
import pytest

from clusterexp.correlations import (
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
from clusterexp.potentials import hard_rods, hard_spheres

P = hard_rods()


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
