import itertools
import math

import numpy as np
import pytest

from clusterexp import canonical, weights
from clusterexp.canonical import (
    canonical_B_k,
    canonical_free_energy,
    direct_logZ_oracle,
    oracle_method,
    prefactor,
    tonks_logZ,
    zeta,
    zeta_scaling_bound,
)
from clusterexp.graphs import EnumerationTooLarge, GraphClass, enumerate_graphs
from clusterexp.potentials import hard_rods, hard_spheres, square_well
from clusterexp.weights import (CoefficientEstimate, biconnected_sum_batch,
                                graph_weight_periodic_1d, lattice_class_sum,
                                phi_t_batch)


P = hard_rods()
SQUARE_WELL = square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0, dimension=1)


# ---------------------------------------------------------------------------
# oracle: the covering sum listed polymer multiset by polymer multiset
# ---------------------------------------------------------------------------

def _polymers_of(k):
    """Subsets of [k+1] = {0..k} with at least two labels."""
    return [frozenset(c) for size in range(2, k + 2)
            for c in itertools.combinations(range(k + 1), size)]


def _phi_t_multiset(polymers):
    """phi^T of a polymer collection under the hard-core overlap species:
    sum over connected graphs of prod (-1 if V_i and V_j overlap)."""
    n = len(polymers)
    if n == 1:
        return 1.0
    h = np.zeros((1, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if polymers[i] & polymers[j]:
                h[0, i, j] = h[0, j, i] = -1.0
    return float(phi_t_batch(h)[0])


def _covering_multisets(k, max_weight):
    """Multisets of polymers of [k+1] with union [k+1] and total weight
    sum(|V|-1) <= max_weight, as polymer lists with repeats."""
    polymers = _polymers_of(k)
    full = frozenset(range(k + 1))

    def rec(start, weight_left, chosen, union):
        if union == full:
            yield list(chosen)
        for idx in range(start, len(polymers)):
            v = polymers[idx]
            w = len(v) - 1
            for rep in range(1, weight_left // w + 1):
                chosen.extend([v] * rep)
                yield from rec(idx + 1, weight_left - rep * w, chosen, union | v)
                del chosen[-rep:]

    yield from rec(0, max_weight, [], frozenset())


def listed_B_k(p, k, L, truncation):
    """B(k) truncated at total weight ``truncation``, summed over the listed
    covering multisets, each with phi^T / (product of repeat factorials)."""
    zetas = {s: zeta(p, s, L) for s in range(2, k + 2)}
    total = 0.0
    for ms in _covering_multisets(k, truncation):
        mult = 1.0
        for _, grp in itertools.groupby(sorted(ms, key=sorted)):
            mult *= math.factorial(len(list(grp)))
        total += _phi_t_multiset(ms) * math.prod(zetas[len(v)] for v in ms) / mult
    return L ** k / math.factorial(k) * total


class TestPolymerActivities:
    def test_pair_activity(self):
        # single edge on the length-10 circle: -2 sigma / L
        assert zeta(P, 2, 10.0) == pytest.approx(-0.2, abs=1e-12)

    def test_triple_activity(self):
        assert zeta(P, 3, 10.0) == pytest.approx(0.09, abs=1e-12)

    def test_singleton_is_one(self):
        assert zeta(P, 1, 10.0) == 1.0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_scaling_bound(self, m):
        val = abs(zeta(P, m, 12.0))
        assert val <= zeta_scaling_bound(P, m, 12.0) * (1.0 + 1e-12)

    @pytest.mark.parametrize("L", [10.0, 20.0])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lattice_cells_match_periodic_polytopes(self, m, L):
        want = sum(graph_weight_periodic_1d(g, P, L)
                   for g in enumerate_graphs(m, GraphClass.CONNECTED))
        assert zeta(P, m, L) == pytest.approx(want, rel=1e-12, abs=1e-12)

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

    @pytest.mark.parametrize("L", [10.0, 20.0])
    @pytest.mark.parametrize("k,truncation",
                             [(k, t) for k in (1, 2, 3) for t in range(k, k + 3)])
    @pytest.mark.parametrize("p", [P, SQUARE_WELL], ids=["hard_rods", "square_well"])
    def test_truncated_matches_multiset_listing(self, p, k, truncation, L):
        got = canonical_B_k(p, k, L, truncation=truncation)["B"]
        assert got == pytest.approx(listed_B_k(p, k, L, truncation), rel=0, abs=1e-12)

    @pytest.mark.parametrize("p,k,L", [
        *[pytest.param(p, k, 10.0, id=f"{name}-{k}")
          for name, p in (("hard_rods", P), ("square_well", SQUARE_WELL))
          for k in (1, 2, 3, 4)],
        pytest.param(SQUARE_WELL, 4, 20.0, id="square_well-4-L20")])
    def test_B_star_polymer_equals_graph_sum(self, p, k, L):
        got = canonical_B_k(p, k, L)
        assert got["B_star_polymer"] == pytest.approx(got["B_star"], rel=0, abs=1e-12)

    @pytest.mark.parametrize("truncation", [-1, 0, 1, 2])
    def test_truncation_below_k_is_zero(self, truncation):
        assert canonical_B_k(P, 3, 10.0, truncation=truncation)["B"] == 0.0

    def test_high_truncation_reaches_closed_form(self):
        exact = canonical_B_k(P, 4, 20.0)["B"]
        got = canonical_B_k(P, 4, 20.0, truncation=30)["B"]
        assert got == pytest.approx(exact, rel=1e-10)

    def test_truncation_beyond_fourteen_polymers(self):
        # weight 8 admits collections of 8 pair polymers, and t = 4 is B*
        exact = canonical_B_k(P, 4, 10.0)
        got = canonical_B_k(P, 4, 10.0, truncation=8)["B"]
        assert abs(got - exact["B"]) < abs(exact["B_star"] - exact["B"])

    # Xi_3 rounds to -2.2e-16 at L = 2.5, Xi_4 is 0.0 at L = 4 and +2.2e-16
    # at L = 3.5
    @pytest.mark.parametrize("call,fits", [
        (lambda: canonical_free_energy(P, 3, 2.5, 2), 3),
        (lambda: canonical_free_energy(P, 4, 4.0, 3), 4),
        (lambda: canonical_B_k(P, 2, 2.5), 3),
        (lambda: canonical_B_k(P, 3, 3.5), 4),
        (lambda: canonical_free_energy(P, 4, 3.5, 3), 4),
    ], ids=["N3_L2.5_K2", "N4_L4_K3", "B2_L2.5", "B3_L3.5", "N4_L3.5_K3"])
    def test_rods_that_do_not_fit_raise(self, call, fits):
        with pytest.raises(ValueError, match=f"^{fits} particles do not fit"
                           ".* within rounding of 0"):
            call()

    def test_rods_that_barely_fit_keep_a_logarithm(self):
        # 4 rods in L = 4.01: Xi_4 = 1.6e-8, 2e-9 of the sum of its terms
        assert math.isfinite(canonical_B_k(P, 3, 4.01)["B"])

    def test_truncated_path_runs_when_rods_do_not_fit(self):
        got = canonical_B_k(P, 2, 2.5, truncation=3)
        assert math.isfinite(got["B"])
        assert got["B_star_polymer"] == pytest.approx(got["B_star"], abs=1e-12)

    def test_prefactor(self):
        assert prefactor(5, 10.0, 2) == pytest.approx(4 * 3 / 100.0)
        assert prefactor(3, 10.0, 3) == 0.0  # (N-3) factor vanishes


def torus_B_k(monkeypatch, p, k, L):
    """canonical_B_k with every activity and the B* sum from the torus
    lattice pass, as before the line pass."""
    with monkeypatch.context() as mp:
        mp.setattr(canonical, "class_integral",
                   lambda score, p, m, *args, L: CoefficientEstimate(
                       lattice_class_sum(score, p, m, L), 0.0, "exact1d"))
        return canonical_B_k(p, k, L)


class TestLinePass:
    """Activities and the B* graph sum take the line pass over L^(m-1)
    exactly when (m - 1) * range < L/2; the direct oracle always takes the
    torus."""

    @pytest.fixture
    def passes(self, monkeypatch):
        seen = []

        def spy(score, p, m, L=None, root_positions=(0.0,)):
            seen.append((score, m, L))
            return lattice_class_sum(score, p, m, L, root_positions)

        monkeypatch.setattr(weights, "lattice_class_sum", spy)
        monkeypatch.setattr(canonical, "lattice_class_sum", spy)
        return seen

    # hard rods at L = 6: (m - 1) sigma < 3 up to m = 3; m = 4 is at L/2
    @pytest.mark.parametrize("m,L", [(2, None), (3, None), (4, 6.0)])
    def test_zeta(self, passes, m, L):
        zeta(P, m, 6.0)
        assert passes == [(phi_t_batch, m, L)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_B_star_graph_sum(self, passes, k):
        canonical_B_k(P, k, 6.0)
        assert [(m, L) for score, m, L in passes
                if score is biconnected_sum_batch] == \
            [(k + 1, None if k < 3 else 6.0)]
        assert [(m, L) for score, m, L in passes if score is phi_t_batch] == \
            [(m, None if m < 4 else 6.0) for m in range(2, k + 2)]

    def test_free_energy_computes_each_activity_once(self, passes):
        canonical_free_energy(P, 5, 6.0, 3)
        assert [(score, m) for score, m, _ in passes] == [
            (phi_t_batch, 2), (phi_t_batch, 3), (phi_t_batch, 4),
            (biconnected_sum_batch, 2), (biconnected_sum_batch, 3),
            (biconnected_sum_batch, 4)]

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_direct_oracle_takes_the_torus(self, passes, N):
        direct_logZ_oracle(P, N, 6.0)
        assert [(m, L) for _, m, L in passes] == [(N, 6.0)]

    @pytest.mark.parametrize("k,L", [(k, 20.0) for k in (1, 2, 3, 4)]
                             + [(k, 40.0) for k in (1, 2, 3)])
    def test_hard_rods_match_the_torus_within_2_ulp(self, monkeypatch, k, L):
        want = torus_B_k(monkeypatch, P, k, L)
        got = canonical_B_k(P, k, L)
        for key in ("B", "B_star", "B_star_polymer"):
            assert abs(got[key] - want[key]) <= 2 * math.ulp(want[key]), key

    # the torus pass carries more float noise: at m = 5, L = 20 it scores
    # 2.56 M cells, thousands of them with a tiny nonzero phi^T where the
    # exact value is 0
    @pytest.mark.parametrize("k,L", [(k, L) for L in (20.0, 40.0)
                                     for k in (1, 2, 3)])
    def test_square_well_matches_the_torus(self, monkeypatch, k, L):
        want = torus_B_k(monkeypatch, SQUARE_WELL, k, L)
        got = canonical_B_k(SQUARE_WELL, k, L)
        for key in ("B", "B_star", "B_star_polymer"):
            assert got[key] == pytest.approx(want[key], rel=1e-13, abs=0), key

    # the float sum over log Xi_m read -1.1632 for -1.2514 (hard rods,
    # k = 4, L = 10^4); the exact product has no cancellation to lose
    @pytest.mark.parametrize("p", [P, SQUARE_WELL],
                             ids=["hard_rods", "square_well"])
    @pytest.mark.parametrize("L", [1e3, 1e4])
    def test_closed_form_matches_truncation_at_large_L(self, p, L):
        for k in range(1, 5):
            want = canonical_B_k(p, k, L, truncation=k + 6)["B"]
            got = canonical_B_k(p, k, L)["B"]
            assert got == pytest.approx(want, rel=1e-13, abs=0), k

    @pytest.mark.parametrize("L", [80.0, 1e4])
    def test_B_star_at_large_L(self, L):
        got = canonical_B_k(P, 4, L)
        assert got["B_star"] == pytest.approx(-5 / 4, rel=0, abs=1e-12)
        assert got["B_star_polymer"] == pytest.approx(-5 / 4, rel=0, abs=1e-12)

    def test_box_with_no_lattice_stays_off_periodic_polytopes(self,
                                                              monkeypatch):
        # L = 20 sqrt 2 and sigma = 1 share no lattice, so the torus pass
        # would fall back to periodic polytopes graph by graph
        def refuse(*args):
            raise AssertionError("periodic polytopes")

        monkeypatch.setattr(weights, "graph_weight_periodic_1d", refuse)
        got = canonical_B_k(P, 3, 20.0 * math.sqrt(2.0))
        assert got["B_star"] == pytest.approx(-4 / 3, rel=0, abs=1e-12)


class TestExpansionAgainstOracles:
    def test_tonks_closed_form_n2(self):
        # periodic Tonks: Z = L (L - N sigma)^{N-1} / N!
        assert tonks_logZ(2, 10.0) == pytest.approx(math.log(40.0), abs=1e-14)

    def test_direct_oracle_exact_n2(self):
        est = direct_logZ_oracle(P, 2, 10.0)
        assert est.method != "mc"
        assert est.value == pytest.approx(math.log(40.0), abs=1e-12)

    def test_exact_oracle_is_minus_inf_when_no_configuration_fits(self):
        est = direct_logZ_oracle(P, 3, 2.5)
        assert est.method == "exact1d"
        assert est.value == -math.inf == tonks_logZ(3, 2.5)

    def test_exact_oracle_is_minus_inf_when_the_cores_do_not_fit_off_lattice(
            self):
        # L = 2 sqrt 2 shares no lattice with sigma = 1; the periodic
        # polytopes would sum to a total just below 0
        est = direct_logZ_oracle(P, 3, 2.0 * math.sqrt(2.0))
        assert est.method == "exact1d"
        assert est.value == -math.inf == tonks_logZ(3, 2.0 * math.sqrt(2.0))

    def test_exact_oracle_raises_when_the_integral_is_not_positive(
            self, monkeypatch):
        monkeypatch.setattr(canonical, "lattice_class_sum",
                            lambda *args: -2.2e-16)
        with pytest.raises(ValueError, match="not positive, although their "
                           "hard cores fit"):
            direct_logZ_oracle(P, 3, 3.5)

    def test_mc_oracle_is_minus_inf_when_the_cores_do_not_fit(self,
                                                             monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(canonical, "torus_boltzmann_mc", no_draws)
        est = direct_logZ_oracle(P, 6, 5.5, n_samples=2000, seed=1)
        assert (est.value, est.method, est.samples) == (-math.inf, "mc", 0)
        assert est.value == tonks_logZ(6, 5.5)

    def test_mc_oracle_with_no_nonzero_sample_raises(self):
        with pytest.raises(ValueError, match="no sample had nonzero weight"):
            direct_logZ_oracle(P, 6, 6.5, method="mc", n_samples=2000, seed=1)

    @pytest.mark.parametrize("N,method,want", [
        (1, "auto", "exact1d"), (4, "auto", "exact1d"), (5, "auto", "mc"),
        (5, "exact1d", "exact1d"), (2, "mc", "mc")])
    def test_oracle_method(self, N, method, want):
        assert oracle_method(P, N, method) == want
        assert oracle_method(SQUARE_WELL, N, method) == want

    # (value, std_error).hex() of the uniform-torus pair loop that
    # weights.torus_boltzmann_mc replaced, at L = 20, 5000 samples, seed 1
    @pytest.mark.parametrize("p,N,value,std_error", [
        (P, 5, "0x1.21557bcb28b2bp+3", "0x1.544c59fcdaf06p-6"),
        (P, 6, "0x1.34c277950385dp+3", "0x1.f82f601c2ed13p-6"),
        (SQUARE_WELL, 5, "0x1.3eecea2207ec3p+3", "0x1.07051219bc9f7p-5"),
        (SQUARE_WELL, 6, "0x1.61be2a933b732p+3", "0x1.a089a27e0f17bp-5"),
    ], ids=["rods-5", "rods-6", "well-5", "well-6"])
    def test_mc_oracle_values_unchanged(self, p, N, value, std_error):
        est = direct_logZ_oracle(p, N, 20.0, method="mc", n_samples=5000,
                                 seed=1)
        assert (est.value.hex(), est.std_error.hex()) == (value, std_error)

    def test_direct_oracle_method_names(self):
        est = direct_logZ_oracle(P, 2, 10.0, method="exact1d")
        assert est.method == "exact1d"
        for method in ("exact", "quadrature"):
            with pytest.raises(ValueError, match="unknown method"):
                direct_logZ_oracle(P, 2, 10.0, method=method)

    @pytest.mark.parametrize("N,L", [(3, 15.0), (4, 20.0), (4, 4.0625)])
    def test_direct_oracle_matches_tonks(self, N, L):
        est = direct_logZ_oracle(P, N, L)
        assert est.value == pytest.approx(tonks_logZ(N, L), abs=1e-10)
        if L == 4.0625:
            # on the lattice of 1/16: the cells give Tonks exactly
            assert est.value == tonks_logZ(N, L)

    @pytest.mark.parametrize("N,method", [(5, "exact1d"), (9, "mc"), (9, "auto")])
    def test_oracle_caps_raise_enumeration_too_large(self, N, method):
        with pytest.raises(EnumerationTooLarge):
            direct_logZ_oracle(P, N, 40.0, method=method, n_samples=10)

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
