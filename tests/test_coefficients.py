import math
from fractions import Fraction

import pytest

from clusterexp.coefficients import (
    a_kernel,
    beta_table,
    irreducible_beta_n,
    mayer_b_n,
)
from clusterexp.potentials import hard_rods, hard_spheres, square_well
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
        # samples accumulate across the summed graphs
        assert est.samples >= 2_000

    def test_mc_reproducible(self):
        a = mayer_b_n(hard_spheres(), 3, n_samples=2_000, seed=9)
        b = mayer_b_n(hard_spheres(), 3, n_samples=2_000, seed=9)
        assert a.value == b.value
