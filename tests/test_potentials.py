import math

import numpy as np
import pytest

from clusterexp.potentials import (
    SURFACE_AREA,
    Kind,
    UnsupportedStability,
    abs_f_integral,
    cbar_integral,
    hard_rods,
    hard_spheres,
    lennard_jones,
    square_well,
    stability_profile,
    zero_potential,
)


class TestMayerFunctions:
    def test_hard_rod_values(self):
        p = hard_rods()
        assert p.mayer_f(0.5) == -1.0
        assert p.mayer_f(1.5) == 0.0
        assert p.mayer_fbar(0.5) == 1.0
        assert p.mayer_fbar(1.5) == 0.0
        assert p.boltzmann(0.5) == 0.0
        assert p.boltzmann(1.5) == 1.0

    @pytest.mark.parametrize("p", [hard_rods(), hard_spheres(), square_well(),
                                   lennard_jones(cutoff=2.5), zero_potential()],
                             ids=["hard_rods", "hard_spheres", "square_well",
                                  "lennard_jones", "zero"])
    def test_f_is_positive_zero_beyond_the_range(self, p):
        # expm1(-0.0) is -0.0; a printed order read straight off f would
        # show "-0"
        r = np.array([3.0, 10.0])
        assert np.all(p.mayer_f(r) == 0.0)
        assert not np.any(np.signbit(p.mayer_f(r)))
        assert not np.signbit(p.mayer_f(3.0))

    def test_square_well_values(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.7, beta=2.0)
        assert p.mayer_f(0.5) == -1.0
        assert p.mayer_f(1.2) == pytest.approx(math.expm1(2.0 * 0.7), rel=1e-15)
        assert p.mayer_f(2.0) == 0.0
        # fbar uses |V|: same magnitude scale in the well
        assert p.mayer_fbar(1.2) == pytest.approx(-math.expm1(-2.0 * 0.7), rel=1e-15)

    def test_lennard_jones_minimum(self):
        p = lennard_jones(epsilon=1.0)
        r_min = 2.0 ** (1.0 / 6.0)
        assert float(p.v(r_min)) == pytest.approx(-1.0, abs=1e-12)
        assert float(p.v(1.0)) == pytest.approx(0.0, abs=1e-12)
        # f is bounded below by -1 and above by e^{beta eps} - 1
        r = np.linspace(0.01, 5.0, 400)
        f = p.mayer_f(r)
        assert np.all(f >= -1.0)
        assert np.max(f) <= math.expm1(p.beta * p.epsilon) + 1e-12

    def test_zero_potential(self):
        p = zero_potential()
        r = np.linspace(0.0, 3.0, 7)
        assert np.all(p.mayer_f(r) == 0.0)
        assert p.interaction_range == 0.0

    def test_vector_scalar_consistency(self):
        p = square_well(epsilon=0.3)
        rs = [0.2, 1.1, 1.7]
        vec = p.mayer_f(np.array(rs))
        for r, v in zip(rs, vec):
            assert float(p.mayer_f(r)) == v


class TestValidation:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            hard_rods(sigma=0.0)

    def test_rejects_narrow_well(self):
        with pytest.raises(ValueError):
            square_well(lam=1.0)

    def test_hard_rods_are_1d(self):
        from clusterexp.potentials import Potential
        with pytest.raises(ValueError):
            Potential(Kind.HARD_ROD, dimension=3)


class TestPieces:
    def test_hard_rod_pieces(self):
        assert hard_rods().f_pieces() == [(0.0, 1.0, -1.0)]

    def test_square_well_pieces(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.5, beta=1.0)
        pieces = p.f_pieces()
        assert pieces[0] == (0.0, 1.0, -1.0)
        lo, hi, val = pieces[1]
        assert (lo, hi) == (1.0, 1.5)
        assert val == pytest.approx(math.expm1(0.5))

    def test_lj_has_no_pieces(self):
        assert not lennard_jones().piecewise_constant_f
        with pytest.raises(ValueError):
            lennard_jones().f_pieces()

    def test_jumps_from_pieces(self):
        # a hard core steps e^{-beta V} from 0 to exactly 1
        assert hard_rods().f_jumps() == [(1.0, 1.0)]
        assert hard_spheres(sigma=2.0).f_jumps() == [(2.0, 1.0)]
        e = math.exp(0.5)
        jumps = square_well(sigma=1.0, lam=1.5, epsilon=0.5, beta=1.0).f_jumps()
        assert [r for r, _ in jumps] == [1.0, 1.5]
        assert [j for _, j in jumps] == pytest.approx([e, 1.0 - e], rel=1e-15)
        assert zero_potential().f_jumps() == []
        assert lennard_jones(cutoff=2.5).f_jumps() == []


class TestStability:
    def test_nonnegative_potentials(self):
        for p in (hard_rods(), hard_spheres(), zero_potential()):
            s = stability_profile(p)
            assert s.B == 0.0 and s.B_star == 0.0 and s.proven

    def test_square_well_packing_bound(self):
        p = square_well(sigma=1.0, lam=1.5, epsilon=0.4, dimension=3)
        s = stability_profile(p)
        assert s.B == pytest.approx(0.5 * 0.4 * math.ceil(2.5 ** 3))
        assert s.B_star == 0.4
        assert s.proven

    def test_lennard_jones_flagged_unproven(self):
        s = stability_profile(lennard_jones())
        assert not s.proven
        assert s.B > 0

    def test_lj_unsupported_dimension(self):
        with pytest.raises(UnsupportedStability):
            stability_profile(lennard_jones(dimension=2))


class TestRadialIntegrals:
    def test_hard_rod_cbar(self):
        assert cbar_integral(hard_rods()) == pytest.approx(2.0, abs=1e-12)
        assert abs_f_integral(hard_rods()) == pytest.approx(2.0, abs=1e-12)

    def test_hard_sphere_cbar(self):
        assert cbar_integral(hard_spheres()) == pytest.approx(4.0 * math.pi / 3.0,
                                                              abs=1e-10)

    def test_square_well_abs_f(self):
        p = square_well(sigma=1.0, lam=2.0, epsilon=0.25, beta=1.0, dimension=1)
        # 2*sigma from the core plus the well annulus contribution
        expected = 2.0 + 2.0 * 1.0 * math.expm1(0.25)
        assert abs_f_integral(p, 1) == pytest.approx(expected, rel=1e-10)

    def test_zero_integral(self):
        assert cbar_integral(zero_potential()) == 0.0

    def test_untruncated_lj_is_tempered_in_3d(self):
        val = cbar_integral(lennard_jones(beta=0.5))
        assert math.isfinite(val) and val > 0

    @pytest.mark.parametrize("p,d", [
        (hard_rods(), 1),
        *[(hard_spheres(sigma=1.3), d) for d in (1, 2, 3)],
        *[(square_well(sigma=1.0, lam=1.5, epsilon=0.7, beta=2.0), d)
          for d in (1, 2, 3)],
        *[(square_well(sigma=0.8, lam=2.0, epsilon=1.0, beta=1.0), d)
          for d in (1, 2, 3)]],
        ids=lambda x: x.kind.value if hasattr(x, "kind") else f"d{x}")
    def test_closed_forms_match_quadrature(self, p, d):
        from scipy.integrate import quad

        breaks = [0.0] + [hi for _, hi, _ in p.f_pieces()]
        for fn, closed in ((p.mayer_fbar, cbar_integral),
                           (lambda r: abs(p.mayer_f(r)), abs_f_integral)):
            want = SURFACE_AREA[d] * sum(
                quad(lambda r: float(fn(r)) * r ** (d - 1), lo, hi)[0]
                for lo, hi in zip(breaks, breaks[1:]))
            assert closed(p, d) == pytest.approx(want, rel=1e-12, abs=1e-12)
