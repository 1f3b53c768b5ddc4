import math

import pytest

from clusterexp.canonical import (
    canonical_B_k,
    canonical_free_energy,
    direct_logZ_oracle,
    prefactor,
    tonks_logZ,
    zeta,
    zeta_scaling_bound,
)
from clusterexp.graphs import GraphClass, enumerate_graphs
from clusterexp.potentials import hard_rods, hard_spheres, square_well
from clusterexp.weights import graph_weight_periodic_1d


P = hard_rods()


class TestPolymerActivities:
    def test_pair_activity(self):
        # single edge on the length-10 circle: -2 sigma / L
        assert zeta(P, 2, 10.0).value == pytest.approx(-0.2, abs=1e-12)

    def test_triple_activity(self):
        assert zeta(P, 3, 10.0).value == pytest.approx(0.09, abs=1e-12)

    def test_singleton_is_one(self):
        assert zeta(P, 1, 10.0).value == 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_scaling_bound(self, m):
        val = abs(zeta(P, m, 12.0).value)
        assert val <= zeta_scaling_bound(P, m, 12.0) * (1.0 + 1e-12)

    @pytest.mark.parametrize("L", [10.0, 20.0])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lattice_cells_match_periodic_polytopes(self, m, L):
        want = sum(graph_weight_periodic_1d(g, P, L)
                   for g in enumerate_graphs(m, GraphClass.CONNECTED))
        assert zeta(P, m, L).value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_periodic_only(self):
        with pytest.raises(ValueError):
            zeta(hard_spheres(), 2, 10.0)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            zeta(P, 6, 30.0)


class TestCanonicalCoefficients:
    def test_B1_closed_form(self):
        # B(1) = L * log Xi_2-ish packing form = L ln(1 - 2 sigma/L)
        got = canonical_B_k(P, 1, 10.0)
        assert got["B"] == pytest.approx(10.0 * math.log(0.8), abs=1e-12)

    def test_B1_leading_term_is_zeta(self):
        got = canonical_B_k(P, 1, 10.0, truncation=1)
        assert got["B"] == pytest.approx(-2.0, abs=1e-12)
        assert got["B_star"] == pytest.approx(-2.0, abs=1e-12)

    def test_B2_star_both_routes(self):
        got = canonical_B_k(P, 2, 10.0)
        assert got["B_star"] == pytest.approx(-1.5, abs=1e-10)
        assert got["B_star_polymer"] == pytest.approx(got["B_star"], abs=1e-10)

    @pytest.mark.parametrize("L", [10.0, 20.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_B_star_graph_sum_matches_periodic_polytopes(self, k, L):
        want = sum(graph_weight_periodic_1d(g, P, L)
                   for g in enumerate_graphs(k + 1, GraphClass.BICONNECTED))
        got = canonical_B_k(P, k, L)["B_star"]
        assert got == pytest.approx(L ** k / math.factorial(k) * want,
                                    rel=1e-12, abs=1e-12)
        assert got == pytest.approx(-(k + 1) / k, abs=1e-12)

    def test_remainder_shrinks_with_L(self):
        r10 = abs(canonical_B_k(P, 2, 10.0)["remainder"])
        r40 = abs(canonical_B_k(P, 2, 40.0)["remainder"])
        assert r40 < r10 / 2.0

    def test_k_cap(self):
        with pytest.raises(ValueError):
            canonical_B_k(P, 5, 40.0)

    def test_prefactor(self):
        assert prefactor(5, 10.0, 2) == pytest.approx(4 * 3 / 100.0)
        assert prefactor(3, 10.0, 3) == 0.0  # (N-3) factor vanishes


class TestExpansionAgainstOracles:
    def test_tonks_closed_form_n2(self):
        # periodic Tonks: Z = L (L - N sigma)^{N-1} / N!
        assert tonks_logZ(2, 10.0) == pytest.approx(math.log(40.0), abs=1e-14)

    def test_direct_oracle_exact_n2(self):
        est = direct_logZ_oracle(P, 2, 10.0)
        assert est.method != "mc"
        assert est.value == pytest.approx(math.log(40.0), abs=1e-12)

    def test_direct_oracle_method_names(self):
        est = direct_logZ_oracle(P, 2, 10.0, method="exact1d")
        assert est.method == "exact1d"
        for method in ("exact", "quadrature"):
            with pytest.raises(ValueError, match="unknown method"):
                direct_logZ_oracle(P, 2, 10.0, method=method)

    @pytest.mark.parametrize("N,L", [(3, 15.0), (4, 20.0)])
    def test_direct_oracle_matches_tonks(self, N, L):
        est = direct_logZ_oracle(P, N, L)
        assert est.value == pytest.approx(tonks_logZ(N, L), abs=1e-10)

    def test_mc_oracle_consistent(self):
        est = direct_logZ_oracle(P, 5, 30.0, method="mc",
                                 n_samples=200_000, seed=3)
        assert est.agrees_with(tonks_logZ(5, 30.0), n_sigma=4.0, atol=1e-3)

    def test_expansion_exact_at_full_order_n2(self):
        exp = canonical_free_energy(P, 2, 10.0, K=1)
        assert exp.log_z == pytest.approx(math.log(40.0), abs=1e-12)

    def test_error_decays_geometrically_in_K(self):
        N, L = 4, 40.0
        target = tonks_logZ(N, L)
        errs = [abs(canonical_free_energy(P, N, L, K=k).log_z - target)
                for k in (1, 2, 3)]
        assert errs[1] < 0.25 * errs[0]
        assert errs[2] < 0.25 * errs[1]
        assert errs[2] == pytest.approx(0.0, abs=1e-12)  # K = N-1 is exact

    def test_within_certificate_flag(self):
        dense = canonical_free_energy(P, 30, 35.0, K=2)
        dilute = canonical_free_energy(P, 4, 400.0, K=2)
        assert not dense.within_certificate
        assert dilute.within_certificate

    def test_remainder_estimate_bounds_true_error(self):
        N, L = 6, 60.0
        exp = canonical_free_energy(P, N, L, K=3)
        true_err = abs(exp.log_z - tonks_logZ(N, L))
        assert true_err <= 10.0 * exp.remainder_estimate + 1e-12

    def test_K_range_validated(self):
        with pytest.raises(ValueError):
            canonical_free_energy(P, 3, 30.0, K=3)

    def test_square_well_expansion_vs_exact_oracle(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.4, beta=1.0, dimension=1)
        est = direct_logZ_oracle(p, 3, 24.0)
        exp = canonical_free_energy(p, 3, 24.0, K=2)
        assert exp.log_z == pytest.approx(est.value, abs=1e-10)
