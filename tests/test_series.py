import math
import random
from fractions import Fraction

import pytest

from clusterexp import series
from clusterexp.coefficients import a_kernel, beta_table, mayer_b_n
from clusterexp.graphs import enumerate_enriched_trees
from clusterexp.potentials import hard_rods
from clusterexp.series import (
    TruncatedSeries,
    b_series_from_table,
    density_from_activity,
    dissymmetry_residual,
    enriched_tree_invert,
    eos_and_free_energy,
    identity_series,
    kernel_series,
    lagrange_invert,
    log_activity_of_density,
    rooting,
    series_compose,
    series_derivative,
    series_exp,
    series_log,
    two_connected_from_composition,
    two_connected_series,
)

K = 10


def log_one_minus_z(k=K):
    """-ln(1-z) = sum z^n / n, exact."""
    return TruncatedSeries([Fraction(0)] + [Fraction(1, n) for n in range(1, k + 1)], "z")


class TestAlgebra:
    def test_exp_log_roundtrip(self):
        ones = series_exp(log_one_minus_z())
        assert list(ones.coefficients) == [Fraction(1)] * (K + 1)
        back = series_log(ones)
        assert back.coefficients == log_one_minus_z().coefficients

    def test_log_of_all_ones_gives_cycle_counts(self):
        ones = TruncatedSeries([Fraction(1)] * (K + 1), "z")
        cycles = series_log(ones)
        assert list(cycles.coefficients[1:]) == [Fraction(1, n) for n in range(1, K + 1)]

    def test_exp_of_zero(self):
        z = TruncatedSeries([Fraction(0)] * (K + 1), "z")
        assert list(series_exp(z).coefficients) == [1] + [0] * K

    def test_variable_tags_do_not_mix(self):
        a = TruncatedSeries([0, 1], "z")
        b = TruncatedSeries([0, 1], "rho")
        with pytest.raises(ValueError):
            _ = a + b

    def test_derivative_and_truncate(self):
        s = TruncatedSeries([Fraction(5), Fraction(3), Fraction(2)], "z")
        d = series_derivative(s)
        assert d[0] == 3 and d[1] == 4
        assert s.truncate(1).order == 1

    def test_mul_truncates_to_min_order(self):
        a = TruncatedSeries([1, 1, 1], "z")
        b = TruncatedSeries([1, 1], "z")
        assert (a * b).order == 1

    def test_evaluate(self):
        s = TruncatedSeries([1.0, 2.0, 3.0], "z")
        assert s.evaluate(0.5) == pytest.approx(1 + 1 + 0.75)


class TestExampleOneRoundTrip:
    """The all-connections toy model: C(z) = -ln(1-z)."""

    def test_rooting_gives_geometric_series(self):
        rho = rooting(log_one_minus_z())
        assert list(rho.coefficients) == [0] + [Fraction(1)] * K

    def test_lagrange_inversion_alternating(self):
        rho = rooting(log_one_minus_z())  # z/(1-z)
        z_of_rho = lagrange_invert(rho)   # rho/(1+rho)
        expected = [Fraction(0)] + [Fraction((-1) ** (n - 1)) for n in range(1, K + 1)]
        assert list(z_of_rho.coefficients) == expected

    def test_composition_gives_log_eos(self):
        rho = rooting(log_one_minus_z())
        z_of_rho = lagrange_invert(rho)
        pressure = series_compose(log_one_minus_z(), z_of_rho)  # ln(1+rho)
        expected = [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, K + 1)]
        assert list(pressure.coefficients) == expected

    def test_composition_of_inverses_is_identity(self):
        rho = rooting(log_one_minus_z())
        z_of_rho = lagrange_invert(rho)
        ident = series_compose(rho, z_of_rho)
        assert list(ident.coefficients) == [0, 1] + [0] * (K - 1)


class TestEnrichedTreeInversion:
    TOY = {n: -Fraction(math.factorial(n - 1)) for n in range(1, 7)}

    def test_toy_kernels_reproduce_geometric_tbar(self):
        tbar = enriched_tree_invert(self.TOY, 6)
        # z(rho) = rho/(1+rho) means Tbar = 1/(1+rho)
        assert list(tbar.coefficients) == [Fraction((-1) ** n) for n in range(7)]

    def test_matches_lagrange_for_toy(self):
        tbar = enriched_tree_invert(self.TOY, 6)
        z_of_rho = identity_series(6, "rho") * tbar
        rho = rooting(log_one_minus_z(6))
        assert list(z_of_rho.coefficients) == list(lagrange_invert(rho).coefficients)

    def test_matches_lagrange_for_hard_rods(self):
        p = hard_rods()
        kernels = {n: a_kernel(p, n).value for n in range(1, 5)}
        tbar = enriched_tree_invert(kernels, 4)
        z_enriched = identity_series(4, "rho") * tbar
        b = {n: mayer_b_n(p, n).value for n in range(1, 5)}
        rho_of_z = rooting(b_series_from_table(b, 4))
        z_lagrange = lagrange_invert(rho_of_z)
        for n in range(5):
            assert z_enriched[n] == pytest.approx(z_lagrange[n], abs=1e-9)

    def test_zero_interaction_tbar_is_one(self):
        tbar = enriched_tree_invert({n: 0 for n in range(1, 5)}, 4)
        assert list(tbar.coefficients) == [1, 0, 0, 0, 0]

    def test_missing_kernel_order_flags_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            enriched_tree_invert({1: -1}, 3)

    def test_two_connected_composition_toy(self):
        tbar = enriched_tree_invert(self.TOY, 6)
        bprime = two_connected_from_composition(self.TOY, tbar)
        # -A(rho Tbar) = -ln(1 - rho/(1+rho)) = ln(1+rho)
        expected = [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, 7)]
        assert list(bprime.coefficients) == expected

    @staticmethod
    def random_kernels(rng, K):
        return {n: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                for n in range(1, K + 1)}

    def test_species_solution_matches_enriched_tree_sums(self):
        K = 5
        clique_sizes = {n: [[len(c) for c in et.cliques()]
                            for et in enumerate_enriched_trees(n)]
                        for n in range(1, K + 1)}
        rng = random.Random(8)
        for _ in range(4):
            kernels = self.random_kernels(rng, K)
            tbar = enriched_tree_invert(kernels, K)
            floats = enriched_tree_invert(
                {n: float(a) for n, a in kernels.items()}, K)
            for n in range(1, K + 1):
                total = sum(math.prod(kernels[s] for s in sizes)
                            for sizes in clique_sizes[n])
                assert tbar[n] * math.factorial(n) == total
                assert floats[n] == pytest.approx(float(tbar[n]), rel=1e-12,
                                                  abs=1e-12)

    def test_lists_no_enriched_trees(self, monkeypatch):
        def refuse(n):
            raise AssertionError("enriched trees listed")
        monkeypatch.setattr(series, "enumerate_enriched_trees", refuse)
        tbar = enriched_tree_invert(self.TOY, 6)
        assert list(tbar.coefficients) == [Fraction((-1) ** n) for n in range(7)]

    def test_toy_kernels_past_the_enumeration_cap(self):
        K = 12
        toy = {n: -Fraction(math.factorial(n - 1)) for n in range(1, K + 1)}
        tbar = enriched_tree_invert(toy, K)
        assert all(isinstance(c, Fraction) for c in tbar.coefficients)
        assert list(tbar.coefficients) == [Fraction((-1) ** n) for n in range(K + 1)]

    def test_lagrange_formula_to_order_ten(self):
        # z = rho Tbar solves z = rho exp(A(z)), so Lagrange gives
        # n [rho^n] z = [u^(n-1)] exp(n A(u))
        K = 10
        rng = random.Random(10)
        for _ in range(3):
            kernels = self.random_kernels(rng, K)
            z_of_rho = identity_series(K, "rho") * enriched_tree_invert(kernels, K)
            A = kernel_series(kernels, K)
            for n in range(1, K + 1):
                assert n * z_of_rho[n] == series_exp(A * n)[n - 1]

    def test_kernel_series_layout(self):
        A = kernel_series({1: Fraction(2), 2: Fraction(-5)}, 3)
        assert A[1] == 2 and A[2] == Fraction(-5, 2) and A[3] == 0


class TestEquationOfState:
    # class-level cache: beta_5 would need 6-vertex 2-connected sums
    _betas = None

    @property
    def betas(self):
        if TestEquationOfState._betas is None:
            TestEquationOfState._betas = {
                k: est.value for k, est in beta_table(hard_rods(), 4).items()}
        return TestEquationOfState._betas

    def setup_method(self):
        self.p = hard_rods()

    def test_tonks_virial_coefficients(self):
        eos = eos_and_free_energy(self.betas, 5)
        for n in range(2, 6):
            assert eos["virial_coefficients"][n] == pytest.approx(1.0, abs=1e-9)

    def test_pressure_series_is_geometric(self):
        # beta P = rho/(1-rho) for hard rods
        eos = eos_and_free_energy(self.betas, 5)
        assert list(eos["pressure_of_density"].coefficients)[1:] == pytest.approx(
            [1.0] * 5, abs=1e-9)

    def test_free_energy_series_is_minus_B(self):
        eos = eos_and_free_energy(self.betas, 4)
        B = two_connected_series(self.betas, 4)
        for n in range(5):
            assert eos["free_energy_series"][n] == pytest.approx(-B[n], abs=1e-12)
        assert "log(rho)" in eos["free_energy_symbolic"]

    def test_density_from_activity_matches_rooted_connected(self):
        b = {n: mayer_b_n(self.p, n).value for n in range(1, 6)}
        rho_direct = rooting(b_series_from_table(b, 5))
        rho_from_betas = density_from_activity(self.betas, 5)
        for n in range(6):
            assert rho_from_betas[n] == pytest.approx(rho_direct[n], abs=1e-9)

    def test_log_activity_slope(self):
        # d(ln z - ln rho)/drho at 0 is -beta_1 = 2 for hard rods
        s = log_activity_of_density(self.betas, 3)
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(2.0, abs=1e-10)


class TestDissymmetry:
    def test_toy_residual_exactly_zero(self):
        # for C = -ln(1-z): b_n = 1/n and B'(rho) = ln(1+rho), so
        # beta_k = (-1)^(k-1)/k
        b = {n: Fraction(1, n) for n in range(1, 7)}
        betas = {k: Fraction((-1) ** (k - 1), k) for k in range(1, 6)}
        res = dissymmetry_residual(b, betas, 6)
        assert all(c == 0 for c in res.coefficients)

    def test_hard_rod_residual_small(self):
        b = {n: mayer_b_n(hard_rods(), n).value for n in range(1, 6)}
        betas = {k: est.value for k, est in beta_table(hard_rods(), 4).items()}
        res = dissymmetry_residual(b, betas, 5)
        assert max(abs(c) for c in res.coefficients) < 1e-8
