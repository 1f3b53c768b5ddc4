"""End-to-end acceptance suite: one test class per criterion, each checked
against an independent oracle computed in this file or in the library's
dual-route APIs, never against literature constants alone."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from clusterexp.canonical import canonical_free_energy, direct_logZ_oracle, tonks_logZ
from clusterexp.coefficients import a_kernel, beta_table, irreducible_beta_n, mayer_b_n
from clusterexp.convergence import activity_radius, tree_graph_check_batch
from clusterexp.correlations import lens_volume, oz_residual_order
from clusterexp.graphs import GraphClass, enumerate_enriched_trees, enumerate_graphs
from clusterexp.ozpy import RadialGrid, oz_selfconsistency, solve_py, thermodynamics
from clusterexp.potentials import (
    cbar_integral,
    hard_rods,
    hard_spheres,
    lennard_jones,
    square_well,
    zero_potential,
)
from clusterexp.series import (
    TruncatedSeries,
    b_series_from_table,
    dissymmetry_residual,
    enriched_tree_invert,
    eos_and_free_energy,
    identity_series,
    lagrange_invert,
    rooting,
    series_compose,
)


def brute_force_connected_count(n):
    """Independent census oracle: test every edge subset with bitmask BFS."""
    pairs = list(itertools.combinations(range(n), 2))
    count = 0
    full = (1 << n) - 1
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        seen, stack = 1, [0]
        while stack:
            v = stack.pop()
            nb = adj[v] & ~seen
            while nb:
                u = (nb & -nb).bit_length() - 1
                seen |= 1 << u
                stack.append(u)
                nb &= nb - 1
        if seen == full:
            count += 1
    return count


class TestCriterion1GraphCensus:
    def test_connected_counts_vs_oracle_up_to_six(self):
        t0 = time.monotonic()
        got = [sum(1 for _ in enumerate_graphs(n, GraphClass.CONNECTED))
               for n in range(1, 7)]
        oracle = [brute_force_connected_count(n) for n in range(1, 7)]
        assert got == oracle
        assert got == [1, 1, 4, 38, 728, 26704]
        assert time.monotonic() - t0 < 60.0


class TestCriterion2ExampleOneRoundTrip:
    def test_exact_rational_round_trip_order_ten(self):
        t0 = time.monotonic()
        K = 10
        C = TruncatedSeries([Fraction(0)] + [Fraction(1, n) for n in range(1, K + 1)], "z")
        rho = rooting(C)
        assert list(rho.coefficients) == [Fraction(0)] + [Fraction(1)] * K
        z_of_rho = lagrange_invert(rho)
        assert list(z_of_rho.coefficients) == [Fraction(0)] + [
            Fraction((-1) ** (n - 1)) for n in range(1, K + 1)]
        pressure = series_compose(C, z_of_rho)
        assert list(pressure.coefficients) == [Fraction(0)] + [
            Fraction((-1) ** (n - 1), n) for n in range(1, K + 1)]
        assert time.monotonic() - t0 < 1.0


class TestCriterion3EnrichedTreeInversion:
    def test_toy_kernels_exact_to_order_six(self):
        toy = {n: -Fraction(math.factorial(n - 1)) for n in range(1, 7)}
        tbar = enriched_tree_invert(toy, 6)
        z_enriched = identity_series(6, "rho") * tbar
        C = TruncatedSeries([Fraction(0)] + [Fraction(1, n) for n in range(1, 7)], "z")
        z_lagrange = lagrange_invert(rooting(C))
        assert list(z_enriched.coefficients) == list(z_lagrange.coefficients)

    def test_hard_rod_kernels_match_lagrange(self):
        # exact-1D kernels reach order 4 (five-body pinned integrals)
        p = hard_rods()
        kernels = {n: a_kernel(p, n).value for n in range(1, 5)}
        z_enriched = identity_series(4, "rho") * enriched_tree_invert(kernels, 4)
        b = {n: mayer_b_n(p, n).value for n in range(1, 5)}
        z_lagrange = lagrange_invert(rooting(b_series_from_table(b, 4)))
        for n in range(5):
            assert z_enriched[n] == pytest.approx(z_lagrange[n], abs=1e-9)

    def test_enriched_tree_count_order_two(self):
        assert sum(1 for _ in enumerate_enriched_trees(2)) == 4


class TestCriterion4TonksChain:
    def test_beta_values_exact(self):
        assert irreducible_beta_n(hard_rods(), 1).value == pytest.approx(-2.0, abs=1e-10)
        assert irreducible_beta_n(hard_rods(), 2).value == pytest.approx(-1.5, abs=1e-10)

    def test_assembled_virial_coefficients(self):
        betas = {k: est.value for k, est in beta_table(hard_rods(), 2).items()}
        eos = eos_and_free_energy(betas, 3)
        assert eos["virial_coefficients"][2] == pytest.approx(1.0, abs=1e-10)
        assert eos["virial_coefficients"][3] == pytest.approx(1.0, abs=1e-10)

    def test_direct_oracle_log40(self):
        est = direct_logZ_oracle(hard_rods(), 2, 10.0)
        assert est.value == pytest.approx(math.log(40.0), abs=1e-12)

    def test_expansion_error_decays_geometrically(self):
        N, L = 4, 40.0
        target = tonks_logZ(N, L)
        errs = [abs(canonical_free_energy(hard_rods(), N, L, K=k).log_z - target)
                for k in (1, 2, 3)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] <= 0.5 * errs[0]
        assert errs[2] <= 0.5 * errs[1]


class TestCriterion5HardSphereIntegrals:
    def test_beta1_by_mc(self):
        t0 = time.monotonic()
        est = irreducible_beta_n(hard_spheres(), 1, method="mc",
                                 n_samples=1_000_000, seed=17)
        exact = -4.0 * math.pi / 3.0
        assert est.std_error <= 0.005 * abs(est.value)
        assert est.agrees_with(exact, n_sigma=3.0, atol=1e-9)
        assert time.monotonic() - t0 < 300.0

    def test_virial_ratio_by_lens_quadrature(self):
        # triangle integral: -4 pi int t^2 V_lens(t) dt over the core
        tri, _ = quad(lambda t: t * t * lens_volume(1.0, t), 0.0, 1.0)
        beta2 = -4.0 * math.pi * tri / 2.0
        b2 = 2.0 * math.pi / 3.0          # -beta_1 / 2
        b3 = -2.0 * beta2 / 3.0
        assert b3 / b2 ** 2 == pytest.approx(5.0 / 8.0, rel=0.01)

    def test_mc_triangle_consistent_with_quadrature(self):
        tri, _ = quad(lambda t: t * t * lens_volume(1.0, t), 0.0, 1.0)
        beta2_quad = -4.0 * math.pi * tri / 2.0
        est = irreducible_beta_n(hard_spheres(), 2, method="mc",
                                 n_samples=200_000, seed=23)
        assert est.agrees_with(beta2_quad, n_sigma=3.0)


class TestCriterion6TreeGraphInequality:
    POTENTIALS = [
        hard_rods(),
        hard_spheres(),
        square_well(sigma=1.0, lam=1.5, epsilon=0.5, beta=1.0, dimension=3),
        lennard_jones(beta=0.5),
    ]

    @pytest.mark.parametrize("p", POTENTIALS, ids=lambda p: p.kind.value)
    def test_ten_thousand_configurations_per_n(self, p):
        for n in range(2, 7):
            rng = np.random.default_rng(7000 + 17 * n)
            pts = rng.uniform(-2.0, 2.0, size=(10_000, n, p.dimension))
            res = tree_graph_check_batch(p, pts)
            assert int(np.sum(~res["holds"])) == 0


class TestCriterion7RadiusCertificates:
    def test_hard_rod_bound(self):
        cert = activity_radius(hard_rods())
        assert cert.bound_value == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)

    def test_hard_sphere_bound(self):
        cert = activity_radius(hard_spheres())
        assert cert.bound_value == pytest.approx(3.0 / (4.0 * math.pi * math.e),
                                                 abs=1e-12)

    @pytest.mark.parametrize("p", [hard_rods(), hard_spheres()],
                             ids=lambda p: p.kind.value)
    def test_self_verifying_on_weight_grid(self, p):
        # the certified z satisfies the scalar condition at a = 1 and no a
        # on a wide grid certifies any larger z
        cbar = cbar_integral(p)
        z_max = activity_radius(p).bound_value
        assert cbar * z_max * math.exp(1.0) <= 1.0 + 1e-12
        grid = np.linspace(0.02, 8.0, 400)
        best = float(np.max(grid / (cbar * np.exp(grid))))
        assert z_max >= best - 1e-12


class TestCriterion8Dissymmetry:
    def test_hard_rod_residual_to_order_five(self):
        p = hard_rods()
        b = {n: mayer_b_n(p, n).value for n in range(1, 6)}
        betas = {k: est.value for k, est in beta_table(p, 4).items()}
        res = dissymmetry_residual(b, betas, 5)
        assert max(abs(c) for c in res.coefficients) < 1e-8


class TestCriterion9OzOrderByOrder:
    def test_hard_rod_residuals_three_orders(self):
        r = np.linspace(0.2, 2.8, 7)
        for k in (0, 1, 2):
            res = oz_residual_order(hard_rods(), k, r)
            assert res["max_abs"] < 1e-12, f"order {k}"

    def test_hard_sphere_order_one_within_mc_error(self):
        r = np.array([0.4, 0.9, 1.3, 1.7])
        res = oz_residual_order(hard_spheres(), 1, r, method="mc",
                                n_samples=60_000, seed=29)
        assert np.all(np.abs(res["residual"]) <= 3.0 * res["std_error"] + 1e-9)


class TestCriterion10PySolver:
    GRID_1D = RadialGrid(dr=0.005, n_points=4096)

    def test_zero_potential_identity(self):
        sol = solve_py(zero_potential(dimension=3), 0.4)
        assert np.all(sol.g == 1.0) and np.all(sol.c == 0.0) and np.all(sol.h == 0.0)

    def test_dilute_limit(self):
        p = hard_spheres()
        sol = solve_py(p, 1e-4)
        target = 1.0 + np.asarray(p.mayer_f(sol.grid.r))
        assert float(np.max(np.abs(sol.g - target))) < 1e-3

    @pytest.mark.parametrize("rho", [0.1, 0.2, 0.3])
    def test_tonks_pressure_within_one_percent(self, rho):
        sol = solve_py(hard_rods(), rho, grid=self.GRID_1D)
        th = thermodynamics(hard_rods(), sol)
        assert abs(th["pressure_virial"] / (rho / (1.0 - rho)) - 1.0) < 0.01

    def test_oz_selfconsistency(self):
        tol = 1e-10
        for p, rho, grid in ((hard_spheres(), 0.2, None),
                             (hard_rods(), 0.2, self.GRID_1D)):
            sol = solve_py(p, rho, grid=grid, tol=tol)
            assert oz_selfconsistency(p, sol) < 10.0 * tol
