import math
from fractions import Fraction

import numpy as np
import pytest

from clusterexp import canonical, coefficients, weights
from clusterexp.coefficients import (
    a_kernel,
    beta_table,
    irreducible_beta_n,
    mayer_b_n,
)
from clusterexp.graphs import EnumerationTooLarge
from clusterexp.potentials import (hard_rods, hard_spheres, lennard_jones,
                                   square_well)
from clusterexp.series import eos_and_free_energy


def tonks_b_n(n):
    """Closed form for hard rods with sigma = 1: b_n = (-n)^{n-1} / n!."""
    return Fraction((-n) ** (n - 1), math.factorial(n))


class TestMayerB:
    def test_b1_is_one(self):
        assert mayer_b_n(hard_rods(), 1).value == 1.0
        assert mayer_b_n(hard_spheres(), 1).value == 1.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hard_rod_closed_form(self, n):
        est = mayer_b_n(hard_rods(), n)
        assert est.method == "exact1d"
        assert est.value == pytest.approx(float(tonks_b_n(n)), abs=1e-10)

    def test_hard_sphere_b2(self):
        est = mayer_b_n(hard_spheres(), 2, method="mc", n_samples=1_000, seed=0)
        # single edge weight is handled with zero variance
        assert est.value == pytest.approx(-2.0 * math.pi / 3.0, rel=1e-12)


class TestIrreducibleBeta:
    @pytest.mark.parametrize("k,expected", [
        (1, -2.0), (2, -1.5), (3, -4.0 / 3.0), (4, -1.25)])
    def test_hard_rod_betas(self, k, expected):
        est = irreducible_beta_n(hard_rods(), k)
        assert est.value == pytest.approx(expected, abs=1e-10)

    def test_hard_sphere_beta1(self):
        est = irreducible_beta_n(hard_spheres(), 1, method="mc",
                                 n_samples=1_000, seed=2)
        assert est.value == pytest.approx(-4.0 * math.pi / 3.0, rel=1e-12)

    def test_beta_table_shape(self):
        table = beta_table(hard_rods(), 3)
        assert sorted(table) == [1, 2, 3]
        assert table[1].value == pytest.approx(-2.0, abs=1e-12)


class TestSquareWellVirial:
    """Square well (sigma = 1, lambda = 1.5, beta epsilon = 1, d = 1) against
    the exact nearest-neighbour virial coefficients of Takahashi's isobaric
    transfer method."""

    TAKAHASHI = {2: 0.14085908577047738, 3: 1.1875348496619960,
                 4: -0.79890114109423246}

    @pytest.fixture(scope="class")
    def virial(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0, dimension=1)
        betas = {k: est.value for k, est in beta_table(p, 3).items()}
        return eos_and_free_energy(betas, 4)["virial_coefficients"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_takahashi(self, virial, n):
        assert virial[n] == pytest.approx(self.TAKAHASHI[n], rel=1e-13)


class TestInversionKernels:
    @pytest.mark.parametrize("n,expected", [(1, 2.0), (2, -5.0), (3, 26.0)])
    def test_hard_rod_kernels(self, n, expected):
        est = a_kernel(hard_rods(), n)
        assert est.value == pytest.approx(expected, abs=1e-9)

    def test_square_well_kernel_sign_flip(self):
        # with a deep enough well a_1 = -int f changes sign vs pure core
        p = square_well(sigma=1.0, lam=2.0, epsilon=2.0, beta=1.0, dimension=1)
        a1 = a_kernel(p, 1).value
        expected = -(-2.0 + 2.0 * math.expm1(2.0))
        assert a1 == pytest.approx(expected, abs=1e-10)


class TestMethodDispatch:
    def test_exact_for_piecewise_1d(self):
        assert mayer_b_n(hard_rods(), 3).method == "exact1d"

    def test_mc_for_3d(self):
        est = mayer_b_n(hard_spheres(), 3, n_samples=2_000, seed=1)
        assert est.method == "mc"
        # one set of configurations scores the whole class sum
        assert est.samples == 2_000

    def test_mc_reproducible(self):
        a = mayer_b_n(hard_spheres(), 3, n_samples=2_000, seed=9)
        b = mayer_b_n(hard_spheres(), 3, n_samples=2_000, seed=9)
        assert a.value == b.value

    def test_mc_orders_beyond_cap_raise(self):
        # 10^12 samples would never finish: the cap comes before any draw
        with pytest.raises(EnumerationTooLarge):
            mayer_b_n(hard_spheres(), 8, "mc", n_samples=10 ** 12, seed=0)
        with pytest.raises(EnumerationTooLarge):
            irreducible_beta_n(hard_spheres(), 7, "mc", n_samples=10 ** 12, seed=0)

    def test_beta_table_passes_the_seed_unchanged(self):
        table = beta_table(hard_spheres(), 3, "mc", n_samples=500, seed=4)
        for k, est in table.items():
            assert est.seed == 4
            assert est == irreducible_beta_n(hard_spheres(), k, "mc",
                                             n_samples=500, seed=4)


class TestClassSumMonteCarlo:
    """Mayer sampling of whole class sums (method="mc") against the exact
    1D path, and hard spheres against Clisby and McCoy."""

    SAMPLES = 20_000
    SEED = 1
    POTENTIALS = {
        "hard_rods": hard_rods(),
        "square_well": square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0,
                                   dimension=1),
    }
    @pytest.mark.parametrize("name", ["hard_rods", "square_well"])
    @pytest.mark.parametrize("coefficient,order", [
        *[(mayer_b_n, n) for n in (2, 3, 4, 5)],
        *[(irreducible_beta_n, k) for k in (1, 2, 3, 4)],
        *[(a_kernel, n) for n in (1, 2, 3)]],
        ids=lambda x: getattr(x, "__name__", str(x)))
    def test_agrees_with_exact_1d(self, name, coefficient, order):
        p = self.POTENTIALS[name]
        exact = coefficient(p, order).value
        est = coefficient(p, order, "mc", self.SAMPLES, self.SEED)
        assert est.method == "mc" and est.samples == self.SAMPLES
        assert est.agrees_with(exact, n_sigma=3.0)

    def test_square_well_error_bars_cover(self):
        # the proposal follows |f|, which is e - 1 = 1.72 in the well where
        # fbar is only 0.63; with fbar the z-scores of b_4 had sd 1.43
        p = self.POTENTIALS["square_well"]
        exact = mayer_b_n(p, 4).value
        z = [(est.value - exact) / est.std_error
             for est in (mayer_b_n(p, 4, "mc", self.SAMPLES, seed)
                         for seed in range(30))]
        assert np.std(z, ddof=1) <= 1.2

    def test_lennard_jones_b2_through_the_gridded_proposal(self):
        # b_2 = -B_2, and B_2 = -1.3145 at beta epsilon = 0.5 by quadrature
        # of -2 pi r^2 f(r); the proposal is |f| gridded to 50 sigma, and f
        # changes sign, so the estimate has a variance
        est = mayer_b_n(lennard_jones(beta=0.5), 2, "mc", 200_000, 3)
        assert est.std_error > 0.0
        assert est.agrees_with(1.3145, n_sigma=3.0)

    @pytest.mark.parametrize("k,ratio", [(3, 0.28695), (4, 0.11025)])
    def test_hard_sphere_betas_match_clisby_mccoy(self, k, ratio):
        # B_{k+1} = -k/(k+1) beta_k and B_2 = 2 pi / 3 for unit spheres
        b2 = 2.0 * math.pi / 3.0
        want = -(k + 1) / k * ratio * b2 ** k
        est = irreducible_beta_n(hard_spheres(), k, "mc", self.SAMPLES, self.SEED)
        assert est.agrees_with(want, n_sigma=3.0)


SQUARE_WELL = square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0, dimension=1)


class TestExactClassSums:
    """The exact 1D path integrates each class sum over lattice cells."""

    def test_no_per_graph_weights_on_lattice_potentials(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-graph polytope weight on a lattice potential")

        for module, name in ((coefficients, "graph_weight_exact_1d"),
                             (canonical, "graph_weight_periodic_1d"),
                             (weights, "graph_weight_exact_1d"),
                             (weights, "graph_weight_periodic_1d"),
                             (weights, "difference_polytope_volume")):
            monkeypatch.setattr(module, name, refuse)
        for p in (hard_rods(), SQUARE_WELL):
            for n in range(1, 5):
                mayer_b_n(p, n + 1)
                irreducible_beta_n(p, n)
                a_kernel(p, n)
            canonical.canonical_free_energy(p, 10, 20.0, 3)
            canonical.direct_logZ_oracle(p, 4, 20.0)

    def test_square_well_b5_matches_takahashi(self):
        # B_5 = -(4/5) beta_4; Takahashi's isobaric transfer method
        beta4 = irreducible_beta_n(SQUARE_WELL, 4).value
        assert -0.8 * beta4 == pytest.approx(3.5488565108807616, rel=1e-12)

    def test_hard_rod_b6(self):
        assert mayer_b_n(hard_rods(), 6).value == pytest.approx(-54.0 / 5.0, rel=1e-12)

    def test_hard_rod_virial_coefficients_are_exactly_one(self):
        betas = {k: est.value for k, est in beta_table(hard_rods(), 5).items()}
        B = eos_and_free_energy(betas, 6)["virial_coefficients"]
        assert all(B[n] == 1.0 for n in range(2, 7))

    def test_exact_orders_beyond_cap_raise(self):
        with pytest.raises(EnumerationTooLarge):
            mayer_b_n(hard_rods(), 7)
