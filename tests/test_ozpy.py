import json
import math
from pathlib import Path

import numpy as np
import pytest

from clusterexp.correlations import c2_density
from clusterexp.ozpy import (
    NonConvergence,
    RadialGrid,
    _Convolver,
    b2_effective,
    closure_remainder,
    oz_selfconsistency,
    solve_py,
    thermodynamics,
)
from clusterexp.potentials import hard_rods, hard_spheres, square_well, zero_potential

GRID_1D = RadialGrid(dr=0.005, n_points=4096, dimension=1)
FLUIDS = {"hard_spheres": hard_spheres(), "hard_rods": hard_rods()}
# residual histories of hard-rod solves on GRID_1D (see source_commit)
PINNED_1D = json.loads((Path(__file__).parent / "data"
                        / "py_hard_rods_residual_history.json").read_text())


def py_closed_forms(p, rho):
    """(beta P / rho, d(beta P)/d rho) of the PY solution: Wertheim's
    virial and compressibility routes for hard spheres, Tonks for hard
    rods (PY is exact in d = 1)."""
    if p.dimension == 1:
        return 1.0 / (1.0 - rho), 1.0 / (1.0 - rho) ** 2
    eta = math.pi * rho / 6.0
    return ((1.0 + 2.0 * eta + 3.0 * eta ** 2) / (1.0 - eta) ** 2,
            (1.0 + 2.0 * eta) ** 2 / (1.0 - eta) ** 4)


class TestGrid:
    def test_r_axis(self):
        g = RadialGrid(dr=0.01, n_points=100, dimension=3)
        assert g.r[0] == pytest.approx(0.01)
        assert g.r_max == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(dr=-0.1, n_points=100)
        with pytest.raises(ValueError):
            RadialGrid(dimension=2)

    def test_default_sine_transform_is_a_fast_length(self):
        # the 3D DST-I of n points is an FFT of length 2 (n + 1)
        from scipy.fft import next_fast_len
        m = 2 * (RadialGrid().n_points + 1)
        assert next_fast_len(m) == m

    def test_solver_requires_long_grid(self):
        with pytest.raises(ValueError, match="10 sigma"):
            solve_py(hard_spheres(), 0.1, grid=RadialGrid(dr=0.01, n_points=128))


class TestConvolution:
    def test_gaussian_3d(self):
        g = RadialGrid(dr=0.01, n_points=2048, dimension=3)
        conv = _Convolver(g)
        a = np.exp(-g.r ** 2)
        got = conv.convolve(a, a)
        exact = (math.pi / 2.0) ** 1.5 * np.exp(-g.r ** 2 / 2.0)
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_gaussian_1d(self):
        g = RadialGrid(dr=0.01, n_points=2048, dimension=1)
        conv = _Convolver(g)
        a = np.exp(-g.r ** 2)
        got = conv.convolve(a, a)
        exact = math.sqrt(math.pi / 2.0) * np.exp(-g.r ** 2 / 2.0)
        assert np.max(np.abs(got - exact)) < 1e-4




class TestSolver:
    def test_zero_potential_identity(self):
        sol = solve_py(zero_potential(dimension=3), 0.5)
        assert np.all(sol.g == 1.0)
        assert np.all(sol.c == 0.0)
        assert np.all(sol.h == 0.0)
        assert sol.iterations == 1

    def test_low_density_limit(self):
        p = hard_spheres()
        sol = solve_py(p, 1e-4)
        target = 1.0 + np.asarray(p.mayer_f(sol.grid.r))
        assert np.max(np.abs(sol.g - target)) < 1e-3

    @pytest.mark.parametrize("rho", [0.1, 0.2, 0.3])
    def test_tonks_pressure(self, rho):
        sol = solve_py(hard_rods(), rho, grid=GRID_1D)
        th = thermodynamics(hard_rods(), sol)
        exact = rho / (1.0 - rho)
        assert abs(th["pressure_virial"] / exact - 1.0) < 0.01

    def test_oz_selfconsistency(self):
        p = hard_rods()
        sol = solve_py(p, 0.2, grid=GRID_1D, tol=1e-10)
        assert oz_selfconsistency(p, sol) < 10.0 * 1e-10

    def test_core_condition(self):
        # PY solution keeps g = 0 inside a hard core
        p = hard_spheres()
        sol = solve_py(p, 0.3)
        core = sol.grid.r < p.sigma
        assert np.max(np.abs(sol.g[core])) == 0.0
        assert not sol.negative_g

    @pytest.mark.parametrize("fluid,rho", [("hard_spheres", 0.4),
                                           ("hard_spheres", 0.6),
                                           ("hard_rods", 0.7)])
    def test_converges_with_defaults(self, fluid, rho):
        sol = solve_py(FLUIDS[fluid], rho)
        assert sol.converged and not sol.negative_g
        assert len(sol.residual_history) == sol.iterations
        assert sol.residual_history[-1] == sol.residual < 1e-10

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergence) as info:
            solve_py(hard_spheres(), 0.5, tol=1e-14, max_iter=3)
        assert info.value.reason == "max_iter"
        assert info.value.iterations == 3

    @pytest.mark.parametrize("residual, reason",
                             [(math.nan, "non-finite"), (math.inf, "non-finite"),
                              (0.5, "max_iter")])
    def test_default_reason_follows_residual(self, residual, reason):
        exc = NonConvergence(residual, 7)
        assert exc.reason == reason and f"({reason})" in str(exc)

    def test_beyond_close_packing_stalls(self):
        with pytest.raises(NonConvergence, match="stalled") as info:
            solve_py(hard_rods(), 1.2, grid=GRID_1D)
        assert info.value.reason == "stalled"
        assert info.value.iterations < 1000
        assert math.isfinite(info.value.residual)
        # the 1D map is pinned: the stop iteration of ee23e05, and the
        # residual of 6442466 (the Gram-matrix least squares rounds apart)
        assert info.value.iterations == 94
        assert info.value.residual == 0.08235776836379632

    def test_overflow_stops_at_once(self):
        with pytest.raises(NonConvergence, match="non-finite") as info:
            solve_py(hard_spheres(), 1e300)
        assert info.value.reason == "non-finite"
        assert info.value.iterations <= 5
        assert not math.isfinite(info.value.residual)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho", [30.0, 1e3, 1e10, 1e100])
    def test_overflowing_least_squares_stops(self, capfd, rho):
        # the squares in the Anderson system overflow while the residual
        # is still finite; the solve stops there without a LinAlgError
        with pytest.raises(NonConvergence, match="non-finite") as info:
            solve_py(hard_rods(), rho)
        assert info.value.reason == "non-finite"
        assert math.isfinite(info.value.residual)
        assert capfd.readouterr() == ("", "")

    def test_zero_density_is_the_dilute_limit(self):
        for p in (hard_spheres(), hard_rods()):
            sol = solve_py(p, 0.0)
            assert sol.iterations == 1 and sol.residual == 0.0
            assert np.array_equal(sol.g, 1.0 + np.asarray(p.mayer_f(sol.grid.r)))

    def test_square_well_converges(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.5, beta=1.0, dimension=3)
        sol = solve_py(p, 0.1)
        th = thermodynamics(p, sol)
        assert math.isfinite(th["pressure_virial"])
        # attraction lowers pressure below hard-sphere at equal density
        hs = thermodynamics(hard_spheres(), solve_py(hard_spheres(), 0.1))
        assert th["pressure_virial"] < hs["pressure_virial"]


class TestDenseHardSpheres:
    """The 3D step solves OZ in Fourier space, which reaches the PY root
    with defaults up to eta = 0.45."""

    @pytest.mark.parametrize("rho", [0.7, 0.8, 0.86])
    def test_converges_to_the_py_closed_forms(self, rho):
        p = hard_spheres()
        sol = solve_py(p, rho)
        assert sol.converged and not sol.negative_g
        assert sol.iterations <= 60
        assert oz_selfconsistency(p, sol) < 1e-8
        th = thermodynamics(p, sol)
        z_ref, dp_ref = py_closed_forms(p, rho)
        assert th["pressure_virial"] / rho == pytest.approx(z_ref, rel=5e-4)
        assert th["compressibility_factor"] == pytest.approx(dp_ref, rel=5e-4)
        eta = math.pi * rho / 6.0
        contact = float(np.interp(1.0, sol.grid.r, sol.g))
        assert contact == pytest.approx((1.0 + eta / 2.0) / (1.0 - eta) ** 2,
                                        abs=1e-3)


class TestPinnedSolves:
    """Results the Fourier-space 3D step must not move, and the 1D map it
    leaves as it is."""

    # (pressure_virial, compressibility_factor, B2_effective) of hard rods
    # on GRID_1D, from c8500e0: the Gram-matrix least squares after it must
    # reach the same fixed points
    THERMO_1D = {
        0.3: (0.4285713546161025, 2.0408163240262764, 1.4285706068455837),
        0.5: (0.9999984297016322, 3.999999937489267, 1.9999937188065289),
        0.7: (2.3333052211949292, 11.111108905394154, 3.333275961622305),
    }

    # (pressure_virial, compressibility_factor, B2_effective) of hard
    # spheres from the real-space map at ee23e05, on its 4096-point default
    # grid; the 4095-point default reproduces them
    THERMO_3D = {
        0.3: (0.5861291805009072, 3.420959212978167, 3.1792131166767477),
        0.6: (2.4546308306443363, 11.982683265066166, 5.151752307345379),
    }

    @pytest.mark.parametrize("rho", sorted(THERMO_3D))
    def test_hard_sphere_thermodynamics(self, rho):
        th = thermodynamics(hard_spheres(), solve_py(hard_spheres(), rho))
        got = (th["pressure_virial"], th["compressibility_factor"],
               th["B2_effective"])
        assert got == pytest.approx(self.THERMO_3D[rho], rel=1e-9)

    @pytest.mark.parametrize("rho,iterations", [(0.3, 19), (0.5, 36),
                                                (0.7, 153)])
    def test_hard_rod_iterations_are_the_same(self, rho, iterations):
        sol = solve_py(hard_rods(), rho, grid=GRID_1D)
        assert sol.iterations == iterations
        assert sol.residual_history == PINNED_1D["residual_history"][str(rho)]

    @pytest.mark.parametrize("rho", sorted(THERMO_1D))
    def test_hard_rod_thermodynamics(self, rho):
        th = thermodynamics(hard_rods(), solve_py(hard_rods(), rho, grid=GRID_1D))
        got = (th["pressure_virial"], th["compressibility_factor"],
               th["B2_effective"])
        assert got == pytest.approx(self.THERMO_1D[rho], rel=1e-11)


class TestThermodynamics:
    @pytest.mark.parametrize("fluid,rho", [("hard_spheres", 0.3),
                                           ("hard_spheres", 0.6),
                                           ("hard_rods", 0.5),
                                           ("hard_rods", 0.7)])
    def test_routes_match_py_closed_forms(self, fluid, rho):
        p = FLUIDS[fluid]
        th = thermodynamics(p, solve_py(p, rho))
        z_ref, dp_ref = py_closed_forms(p, rho)
        assert th["pressure_virial"] / rho == pytest.approx(z_ref, rel=1e-4)
        assert th["compressibility_factor"] == pytest.approx(dp_ref, rel=1e-4)

    def test_virial_error_is_second_order_in_dr(self):
        p, rho = hard_spheres(), 0.6
        z_ref, _ = py_closed_forms(p, rho)
        errors = []
        for dr, n in ((0.02, 1024), (0.01, 2048)):
            sol = solve_py(p, rho, grid=RadialGrid(dr=dr, n_points=n))
            errors.append(thermodynamics(p, sol)["pressure_virial"] / rho - z_ref)
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)

    def test_hs_contact_value(self):
        # Wertheim: g(sigma+) = (1 + eta/2) / (1 - eta)^2
        rho = 0.6
        sol = solve_py(hard_spheres(), rho)
        eta = math.pi * rho / 6.0
        contact = float(np.interp(1.0, sol.grid.r, sol.g))
        assert contact == pytest.approx((1.0 + eta / 2.0) / (1.0 - eta) ** 2,
                                        rel=1e-3)

    def test_hs_b2_effective(self):
        b2 = b2_effective(hard_spheres())
        assert b2 == pytest.approx(2.0 * math.pi / 3.0, rel=5e-3)

    def test_compressibility_tonks(self):
        # 1 - rho c_hat(0) approximates d(beta P)/d rho = 1/(1-rho)^2
        rho = 0.2
        sol = solve_py(hard_rods(), rho, grid=GRID_1D)
        th = thermodynamics(hard_rods(), sol)
        assert th["compressibility_factor"] == pytest.approx(
            1.0 / (1.0 - rho) ** 2, rel=0.02)


class TestClosureRemainder:
    def test_zero_potential_remainder_vanishes(self):
        p = zero_potential(dimension=3)
        sol = solve_py(p, 0.2)
        r_pts = np.array([0.5, 1.0, 2.0])
        m = closure_remainder(p, sol, r_pts, [np.zeros(3), np.zeros(3)])
        assert np.max(np.abs(m)) == 0.0

    def test_rho2_scaling_hard_rods(self):
        p = hard_rods()
        r_pts = np.array([0.05, 0.5, 1.2, 1.9])
        orders = [np.array([c2_density(p, float(r), K=2).values[k]
                            for r in r_pts]) for k in range(3)]
        sols = {rho: solve_py(p, rho, grid=GRID_1D) for rho in (1e-3, 2e-3)}
        m1 = closure_remainder(p, sols[1e-3], r_pts, orders)
        m2 = closure_remainder(p, sols[2e-3], r_pts, orders)
        assert np.max(np.abs(m1)) < 1e-4
        assert np.max(np.abs(m2)) < 2e-4
