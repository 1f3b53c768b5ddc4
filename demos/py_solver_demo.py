"""Percus-Yevick closure for hard spheres and hard rods, and the low-order
checks.

Solves the Ornstein-Zernike equation with the PY closure on a radial
grid, reports pressures along a density sweep, compares the dilute
limit with the exact second virial coefficient, and sweeps hard rods up
to rho sigma = 0.85, where PY is exact and both pressure routes must
give Tonks's equation of state.
"""

import math

from clusterexp import hard_rods, hard_spheres, solve_py, thermodynamics
from clusterexp.ozpy import b2_effective

p = hard_spheres()

print("== density sweep ==")
for rho in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
    sol = solve_py(p, rho)
    th = thermodynamics(p, sol)
    eta = math.pi * rho / 6.0
    # PY virial-route pressure has a closed form for hard spheres
    py_exact = rho * (1.0 + 2.0 * eta + 3.0 * eta ** 2) / (1.0 - eta) ** 2
    print(f"  rho = {rho:.2f}: beta P = {th['pressure_virial']:.6f} "
          f"(PY closed form {py_exact:.6f}), {sol.iterations} iterations")

print("\n== dilute limit ==")
b2 = b2_effective(p)
print(f"  effective B2 from the solver: {b2:.8f}")
print(f"  exact 2 pi sigma^3 / 3:       {2.0 * math.pi / 3.0:.8f}")

print("\n== hard rods against Tonks ==")
rods = hard_rods()
for rho in (0.3, 0.5, 0.7, 0.8, 0.85):
    sol = solve_py(rods, rho)
    th = thermodynamics(rods, sol)
    # Tonks: beta P / rho = 1 / (1 - rho sigma), d(beta P)/d rho = its square
    virial = th["pressure_virial"] * (1.0 - rho) / rho - 1.0
    compressibility = th["compressibility_factor"] * (1.0 - rho) ** 2 - 1.0
    print(f"  rho sigma = {rho:.2f}: relative error virial {virial:+.1e}, "
          f"compressibility {compressibility:+.1e}, "
          f"{sol.iterations} iterations")
    assert sol.residual < 1e-10 and not sol.negative_g
    assert max(abs(virial), abs(compressibility)) < 1e-4
