import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from clusterexp.correlations import c2_density
from clusterexp.ozpy import (
    NonConvergence,
    RadialGrid,
    _Convolver,
    _fast_length,
    _workspace,
    b2_effective,
    closure_remainder,
    oz_selfconsistency,
    solve_py,
    thermodynamics,
)
from clusterexp.potentials import (hard_rods, hard_spheres, lennard_jones,
                                   square_well, zero_potential)

GRID_1D = RadialGrid(dr=0.005, n_points=4096)
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
        g = RadialGrid(dr=0.01, n_points=100)
        assert g.r[0] == pytest.approx(0.01)
        assert g.r_max == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(dr=-0.1, n_points=100)

    @pytest.mark.parametrize("dr", [math.nan, math.inf])
    def test_rejects_a_non_finite_step(self, dr):
        with pytest.raises(ValueError, match="need a finite dr > 0"):
            RadialGrid(dr=dr)

    @pytest.mark.parametrize("n_points", [100.5, 100.0, "100"])
    def test_rejects_a_non_integer_size(self, n_points):
        with pytest.raises(ValueError, match="integer n_points >= 16"):
            RadialGrid(n_points=n_points)
        assert len(RadialGrid(n_points=np.int64(100)).r) == 100

    def test_solver_takes_d_from_the_potential(self):
        # the grid has no dimension: d = 2 is the potential's, and rejected
        with pytest.raises(ValueError, match="d = 1 or 3"):
            solve_py(square_well(dimension=2), 0.1)

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
        g = RadialGrid(dr=0.01, n_points=2048)
        conv = _Convolver(g, 3)
        a = np.exp(-g.r ** 2)
        got = conv.convolve(a, a)
        exact = (math.pi / 2.0) ** 1.5 * np.exp(-g.r ** 2 / 2.0)
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_gaussian_1d(self):
        g = RadialGrid(dr=0.01, n_points=2048)
        conv = _Convolver(g, 1)
        a = np.exp(-g.r ** 2)
        got = conv.convolve(a, a)
        exact = math.sqrt(math.pi / 2.0) * np.exp(-g.r ** 2 / 2.0)
        assert np.max(np.abs(got - exact)) < 1e-4




class TestNumpyTransforms:
    """The numpy.fft transforms equal, bit for bit, the scipy.fft formulas
    they replaced; scipy is only the oracle here."""

    @staticmethod
    def scipy_forward(grid, phi):
        from scipy.fft import dst
        q = math.pi / ((grid.n_points + 1) * grid.dr) * np.arange(
            1, grid.n_points + 1)
        return 2.0 * math.pi * grid.dr * dst(grid.r * phi, type=1) / q

    @staticmethod
    def scipy_inverse(grid, phi_hat):
        from scipy.fft import dst
        dq = math.pi / ((grid.n_points + 1) * grid.dr)
        q = dq * np.arange(1, grid.n_points + 1)
        return dq / (4.0 * math.pi ** 2 * grid.r) * dst(q * phi_hat, type=1)

    @staticmethod
    def scipy_convolve_1d(grid, a, b):
        from scipy.fft import irfft, next_fast_len, rfft
        n = grid.n_points

        def even_extension(phi):
            full = np.empty(2 * n + 1)
            full[n + 1:] = phi
            full[:n] = phi[::-1]
            full[n] = 2.0 * phi[0] - phi[1]
            return full

        size = next_fast_len(3 * n + 1, real=True)
        out = irfft(rfft(even_extension(a), size)
                    * rfft(even_extension(b), size), size)
        return grid.dr * out[2 * n + 1:3 * n + 1]

    @pytest.mark.parametrize("n_points", [4095, 100])
    def test_sine_transforms_are_scipys(self, n_points):
        grid = RadialGrid(n_points=n_points)
        conv = _Convolver(grid, 3)
        a, b = np.random.default_rng(1).standard_normal((2, n_points))
        assert np.array_equal(conv.forward(a), self.scipy_forward(grid, a))
        assert np.array_equal(conv.inverse(b), self.scipy_inverse(grid, b))
        assert np.array_equal(
            conv.convolve(a, b),
            self.scipy_inverse(grid, self.scipy_forward(grid, a)
                               * self.scipy_forward(grid, b)))

    @pytest.mark.parametrize("n_points", [4095, 100])
    def test_line_convolution_is_scipys(self, n_points):
        grid = RadialGrid(n_points=n_points)
        conv = _Convolver(grid, 1)
        a, b = np.random.default_rng(2).standard_normal((2, n_points))
        assert np.array_equal(conv.convolve(a, b),
                              self.scipy_convolve_1d(grid, a, b))

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_results_are_not_views_of_the_buffers(self, dimension):
        conv = _Convolver(RadialGrid(n_points=100), dimension)
        a, b, c, d = np.random.default_rng(3).standard_normal((4, 100))
        calls = [lambda x, y: conv.convolve(x, y)]
        if dimension == 3:
            calls += [lambda x, y: conv.forward(x),
                      lambda x, y: conv.inverse(x)]
        for call in calls:
            first = call(a, b)
            kept = first.copy()
            call(c, d)
            assert np.array_equal(first, kept)

    def test_fast_length_is_scipys(self):
        from scipy.fft import next_fast_len
        assert [_fast_length(m) for m in range(1, 20001)] == [
            next_fast_len(m, real=True) for m in range(1, 20001)]

    def test_default_line_period(self):
        conv = _Convolver(RadialGrid(), 1)
        assert conv.size == _fast_length(3 * 4095 + 1) == 12288


class TestSolver:
    def test_solves_share_buffers_not_results(self):
        # the thread's last workspace serves its next solve on the grid,
        # which leaves the last solve's profiles as they were; another
        # thread gets its own
        grid = RadialGrid()
        first = solve_py(hard_rods(), 0.5)
        kept = {name: getattr(first, name).copy()
                for name in ("h", "c", "t", "g", "y")}
        mine = _workspace(grid, 1)
        assert all(a is b for a, b in zip(mine, _workspace(grid, 1)))
        with ThreadPoolExecutor(1) as pool:
            theirs = pool.submit(_workspace, grid, 1).result()
        assert not any(a is b for a, b in zip(mine, theirs))
        again = solve_py(hard_rods(), 0.3)
        for name, values in kept.items():
            assert np.array_equal(getattr(first, name), values)
        assert again.residual_history == \
            solve_py(hard_rods(), 0.3).residual_history
        assert all(a is b for a, b in zip(mine, _workspace(grid, 1)))

    @pytest.mark.parametrize("jobs", [
        ((hard_rods(), 0.3), (hard_rods(), 0.5)),
        ((hard_rods(), 0.3), (hard_spheres(), 0.3)),
    ], ids=["1d+1d", "1d+3d"])
    def test_concurrent_solves_match_sequential(self, jobs):
        alone = [solve_py(p, rho) for p, rho in jobs]
        for _ in range(3):
            start = threading.Barrier(len(jobs))

            def solve(job):
                start.wait()
                return solve_py(*job)

            with ThreadPoolExecutor(len(jobs)) as pool:
                together = list(pool.map(solve, jobs))
            for a, b in zip(alone, together):
                assert b.iterations == a.iterations
                assert b.residual_history == a.residual_history
                assert np.array_equal(b.g, a.g)

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
        assert not sol.negative_g
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
        # the preconditioned 1D step is pinned: no residual after the
        # first comes below 0.9 of it, so the stall rule stops at
        # 1 + STALL_WINDOW
        assert info.value.iterations == 51
        assert info.value.residual == 8.432869785913855

    def test_overflow_stops_at_once(self):
        with pytest.raises(NonConvergence, match="non-finite") as info:
            solve_py(hard_spheres(), 1e300)
        assert info.value.reason == "non-finite"
        assert info.value.iterations <= 5
        assert not math.isfinite(info.value.residual)

    @pytest.mark.parametrize("rho,iterations,residual", [
        (30.0, 41, 1.3658814416167507e+278),
        (1e3, 30, 1.3908790256615157e+265),
        (1e10, 17, 1.2201791187768799e+206),
        (1e100, 2, 2.2559389843750003e+299)])
    def test_dense_hard_rods_take_the_unpreconditioned_step(
            self, rho, iterations, residual):
        # 1 - rho c^ is not positive somewhere at these densities, so every
        # iteration takes the plain step G(t) - t: the solves stop where
        # they stopped before the 1D step was preconditioned
        with pytest.raises(NonConvergence, match="non-finite") as info:
            solve_py(hard_rods(), rho)
        assert info.value.iterations == iterations
        assert info.value.residual == residual

    @pytest.mark.parametrize("kwargs", [
        {"rho": -0.5}, {"rho": math.nan}, {"rho": math.inf},
        {"rho": -math.inf}, {"rho": 0.3, "tol": 0.0},
        {"rho": 0.3, "tol": -1e-10}, {"rho": 0.3, "tol": math.nan},
        {"rho": 0.3, "tol": math.inf}, {"rho": 0.3, "alpha": 0.0},
        {"rho": 0.3, "alpha": -0.5}, {"rho": 0.3, "alpha": math.nan},
        {"rho": 0.3, "max_iter": 0}, {"rho": 0.3, "max_iter": -1}])
    def test_invalid_inputs_raise(self, kwargs):
        for p in (hard_rods(), hard_spheres()):
            with pytest.raises(ValueError, match="need "):
                solve_py(p, **kwargs)

    def test_huge_density_stops_non_finite(self):
        with pytest.raises(NonConvergence, match="non-finite"):
            solve_py(hard_rods(), 1e300)

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
        assert sol.residual < 1e-10 and not sol.negative_g
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


class TestDenseHardRods:
    """The preconditioned 1D step reaches the PY root, which is Tonks's
    hard-rod gas, on the default grid up to rho sigma = 0.85."""

    @pytest.mark.parametrize("rho", [0.75, 0.8, 0.85])
    def test_converges_to_tonks(self, rho):
        p = hard_rods()
        sol = solve_py(p, rho)
        assert sol.residual < 1e-10 and not sol.negative_g
        assert sol.iterations <= 100
        assert oz_selfconsistency(p, sol) < 1e-8
        th = thermodynamics(p, sol)
        z_ref, dp_ref = py_closed_forms(p, rho)
        assert th["pressure_virial"] / rho == pytest.approx(z_ref, rel=1e-4)
        assert th["compressibility_factor"] == pytest.approx(dp_ref, rel=1e-4)


class TestPinnedSolves:
    """Results the Fourier-space 3D step must not move, and the fixed
    points the preconditioned 1D step must keep."""

    # (pressure_virial, compressibility_factor, B2_effective) at tol = 1e-13
    # from 86f4564, the unpreconditioned 1D step: hard rods on GRID_1D and
    # the 1D square well (sigma 1, lambda 1.5, beta epsilon 1) at rho = 0.5
    # on the default grid.  At the default tol the values would carry the
    # stopping error (2.9e-11 relative at rho = 0.5), not the fixed point.
    THERMO_1D = {
        0.3: (0.4285713546160424, 2.040816324020496, 1.428570606844916),
        0.5: (0.9999984297022874, 3.9999999375005126, 1.9999937188091494),
        0.7: (2.3333052212239886, 11.111108905721045, 3.33327596168161),
    }
    THERMO_SQUARE_WELL_1D = (0.8450098776218116, 2.596084053187736,
                             1.3800395104872463)

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

    @pytest.mark.parametrize("rho,iterations", [(0.3, 14), (0.5, 19),
                                                (0.7, 32)])
    def test_hard_rod_iterations_are_the_same(self, rho, iterations):
        sol = solve_py(hard_rods(), rho, grid=GRID_1D)
        assert sol.iterations == iterations
        assert sol.residual_history == PINNED_1D["residual_history"][str(rho)]

    @pytest.mark.parametrize("rho", sorted(THERMO_1D))
    def test_hard_rod_thermodynamics(self, rho):
        sol = solve_py(hard_rods(), rho, grid=GRID_1D, tol=1e-13)
        th = thermodynamics(hard_rods(), sol)
        got = (th["pressure_virial"], th["compressibility_factor"],
               th["B2_effective"])
        assert got == pytest.approx(self.THERMO_1D[rho], rel=1e-12)

    def test_square_well_thermodynamics_1d(self):
        p = square_well(dimension=1)
        th = thermodynamics(p, solve_py(p, 0.5, tol=1e-13))
        got = (th["pressure_virial"], th["compressibility_factor"],
               th["B2_effective"])
        assert got == pytest.approx(self.THERMO_SQUARE_WELL_1D, rel=1e-12)


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

    @pytest.mark.parametrize("cutoff", [None, 2.5])
    def test_lennard_jones_routes_agree(self, cutoff):
        # near rho = 0 both routes read B2: the virial route as the slope of
        # beta P / rho, the compressibility route through 1 + 2 B2 rho.  The
        # virial route sums y r^3 against the steps of e^{-beta V}, which
        # keeps the steep core and, with the cutoff, the jump at 2.5.
        p, rho = lennard_jones(beta=0.5, cutoff=cutoff), 1e-4
        th = thermodynamics(p, solve_py(p, rho))
        b2_compressibility = (th["compressibility_factor"] - 1.0) / (2.0 * rho)
        assert th["B2_effective"] == pytest.approx(b2_compressibility, rel=1e-3)

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
