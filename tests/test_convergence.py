import math
from fractions import Fraction

import numpy as np
import pytest

from clusterexp.convergence import (
    ConvergenceCertificate,
    _tree_function,
    activity_radius,
    canonical_radius,
    rooted_tree_fixpoint,
    tree_graph_check_batch,
)
from clusterexp.potentials import (
    cbar_integral,
    hard_rods,
    hard_spheres,
    lennard_jones,
    square_well,
    stability_profile,
    zero_potential,
)

POTENTIALS = [
    hard_rods(),
    hard_spheres(),
    square_well(sigma=1.0, lam=1.5, epsilon=0.5, beta=1.0, dimension=3),
    lennard_jones(beta=0.5),
]


class TestTreeGraphInequality:
    @pytest.mark.parametrize("p", POTENTIALS, ids=lambda p: p.kind.value)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_holds_on_random_configurations(self, p, n):
        rng = np.random.default_rng(1000 + n)
        d = p.dimension
        pts = rng.uniform(-2.0, 2.0, size=(500, n, d))
        res = tree_graph_check_batch(p, pts)
        assert bool(np.all(res["holds"]))

    def test_rhs_scaling_with_stability(self):
        # for a nonnegative potential the bound is exactly the tree sum
        p = hard_rods()
        pts = np.array([[[0.0], [0.4], [0.9]]])
        res = tree_graph_check_batch(p, pts)
        assert stability_profile(p).B == 0.0
        assert res["lhs"][0] <= res["rhs"][0] + 1e-12


class TestActivityRadius:
    def test_hard_rods_exact(self):
        cert = activity_radius(hard_rods())
        assert cert.bound_value == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)
        assert cert.condition_kind == "activity_scalar"
        assert cert.weight_a == 1.0

    def test_hard_spheres_exact(self):
        cert = activity_radius(hard_spheres())
        assert cert.bound_value == pytest.approx(3.0 / (4.0 * math.pi * math.e),
                                                 abs=1e-12)

    def test_self_verifying_on_a_grid(self):
        # z_max satisfies cbar z e^{a + beta B} <= a at a = 1 and no grid
        # a improves on it
        for p in (hard_rods(), hard_spheres()):
            cbar = cbar_integral(p)
            z_max = activity_radius(p).bound_value
            assert cbar * z_max * math.exp(1.0) <= 1.0 + 1e-12
            grid = np.linspace(0.05, 6.0, 240)
            best = np.max(grid / (cbar * np.exp(grid)))
            assert z_max >= best - 1e-12

    def test_zero_potential_unbounded(self):
        cert = activity_radius(zero_potential())
        assert cert.unbounded and math.isinf(cert.bound_value)

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            ConvergenceCertificate(-1.0, 1.0, "activity_scalar", {})


class TestCanonicalRadius:
    def test_hard_rod_value_regression(self):
        cert = canonical_radius(hard_rods())
        assert cert.condition_kind == "canonical_density"
        # x = rho*C bound; frozen from the bisection at default settings
        assert cert.bound_value == pytest.approx(0.12556152458244099, abs=1e-9)

    # a strong attraction (beta B = 23 and 40) puts the certificate far
    # below 1e-12
    @pytest.mark.parametrize("p", POTENTIALS + [
        lennard_jones(cutoff=2.5),
        square_well(sigma=1.0, lam=1.5, epsilon=5.0, beta=1.0, dimension=3)],
        ids=lambda p: f"{p.kind.value}-bB{p.beta * stability_profile(p).B:g}")
    def test_certificate_is_admissible(self, p):
        # verify directly: at the certified x some c satisfies the condition
        cert = canonical_radius(p)
        x, c = cert.bound_value, cert.weight_a
        growth = math.exp(c + p.beta * stability_profile(p).B)
        y = x * growth
        total = sum(n ** (n - 2) / math.factorial(n - 1) * y ** (n - 1)
                    for n in range(2, 200))
        assert growth * total <= c * (1.0 + 1e-9)

    def test_beyond_radius_inadmissible(self):
        cert = canonical_radius(hard_rods())
        x = cert.bound_value * 1.05
        cs = np.linspace(1e-3, 3.0, 400)
        ok = []
        for c in cs:
            y = x * math.exp(c)
            if y >= 1.0 / math.e:
                ok.append(False)
                continue
            total = sum(n ** (n - 2) / math.factorial(n - 1) * y ** (n - 1)
                        for n in range(2, 400))
            ok.append(math.exp(c) * total <= c)
        assert not any(ok)


class TestRootedTreeFixpoint:
    def test_zero_activity(self):
        assert rooted_tree_fixpoint(hard_rods(), 0.0) == 1.0

    def test_at_boundary_returns_e(self):
        z_max = activity_radius(hard_rods()).bound_value
        assert rooted_tree_fixpoint(hard_rods(), z_max) == pytest.approx(math.e,
                                                                         abs=1e-9)

    def test_interior_solves_equation(self):
        p = hard_rods()
        z = 0.5 * activity_radius(p).bound_value
        t = rooted_tree_fixpoint(p, z)
        w = cbar_integral(p) * z
        assert t == pytest.approx(math.exp(w * t), abs=1e-10)
        assert 1.0 < t < math.e

    def test_beyond_boundary_raises(self):
        p = hard_rods()
        z = 1.5 * activity_radius(p).bound_value
        with pytest.raises(ValueError, match="does not exist"):
            rooted_tree_fixpoint(p, z)

    def test_near_boundary_solves_equation(self):
        p = hard_rods()
        z = activity_radius(p).bound_value * (1.0 - 1e-9)
        t = rooted_tree_fixpoint(p, z)
        w = cbar_integral(p) * z
        assert abs(t - math.exp(w * t)) <= 1e-13
        assert t < math.e

    def test_just_beyond_boundary_raises(self):
        p = hard_rods()
        z = activity_radius(p).bound_value * (1.0 + 1e-11)
        with pytest.raises(ValueError, match="does not exist"):
            rooted_tree_fixpoint(p, z)

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError):
            rooted_tree_fixpoint(hard_rods(), -0.1)


class TestTreeFunction:
    @pytest.mark.parametrize("y", [0.0, 0.05, 0.2, 0.3])
    def test_matches_cayley_series(self, y):
        # sum_n n^{n-1} y^n / n!, each term rounded once from exact rationals
        exact_y = Fraction(y)
        series = math.fsum(float(Fraction(n ** (n - 1), math.factorial(n))
                                 * exact_y ** n) for n in range(1, 250))
        assert math.isclose(_tree_function(y), series, rel_tol=1e-15)

    def test_one_at_the_branch_point(self):
        assert _tree_function(1.0 / math.e) == 1.0


# beta B = 400, 800 and 1600: the bounds lie far below the float range
STRONG = [square_well(sigma=1.0, lam=1.5, epsilon=eps, beta=1.0, dimension=3)
          for eps in (50.0, 100.0, 200.0)]


@pytest.mark.parametrize("p", STRONG, ids=lambda p: f"eps{p.epsilon:g}")
class TestStrongAttraction:
    def test_activity_radius_in_logs(self, p):
        cert = activity_radius(p)
        beta_b = p.beta * stability_profile(p).B
        assert cert.log_bound == pytest.approx(
            -1.0 - math.log(cbar_integral(p)) - beta_b, rel=1e-15)
        assert cert.bound_value == math.exp(cert.log_bound)

    def test_canonical_radius_in_logs(self, p):
        # tau -> c e^{-c - beta B}, so log x -> log c - 2c - 2 beta B, which
        # is largest at c = 1/2
        cert = canonical_radius(p)
        c = cert.weight_a
        beta_b = p.beta * stability_profile(p).B
        assert math.isfinite(cert.log_bound)
        assert cert.log_bound == pytest.approx(
            math.log(c) - 2.0 * c - 2.0 * beta_b, abs=1e-9)
        assert c == pytest.approx(0.5, abs=0.01)
        assert cert.bound_value == math.exp(cert.log_bound)

    def test_rooted_tree_fixpoint_stays_in_range(self, p):
        assert rooted_tree_fixpoint(p, 0.0) == 1.0
        z_max = activity_radius(p).bound_value
        if z_max > 0.0:
            # half the radius: w = 1/(2e)
            t = rooted_tree_fixpoint(p, 0.5 * z_max)
            assert t == pytest.approx(math.exp(t / (2.0 * math.e)), rel=1e-12)
        with pytest.raises(ValueError, match="does not exist"):
            rooted_tree_fixpoint(p, 1e-300 + 2.0 * z_max)

    def test_tree_graph_check_stays_in_range(self, p):
        # e^{3 beta B} is past the float range: the bound is inf on a
        # triangle inside the well, and 0 where a vertex has no bond
        pts = np.array([[[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.6, 1.0, 0.0]],
                        [[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [9.0, 0.0, 0.0]]])
        res = tree_graph_check_batch(p, pts)
        assert res["rhs"].tolist() == [math.inf, 0.0]
        assert bool(res["holds"][0])
