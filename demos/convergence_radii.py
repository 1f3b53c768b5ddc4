"""Certified convergence radii for the activity and canonical expansions.

The activity series converges whenever z <= a / (Cbar e^a) for some a > 0;
optimizing over a gives z_max = 1 / (e Cbar).  The canonical polymer
series has its own radius, in closed form from the rooted-tree function
T = y e^T.  Both bounds are printed next to the quantities they certify.
"""

import math

import numpy as np

from clusterexp import (
    activity_radius,
    canonical_radius,
    hard_rods,
    hard_spheres,
    rooted_tree_fixpoint,
)
from clusterexp.potentials import cbar_integral

for p in (hard_rods(), hard_spheres()):
    cert = activity_radius(p)
    print(f"{p.kind.value}: Cbar = {cbar_integral(p):.6f}, "
          f"z_max = {cert.bound_value:.12f}")

print("\nhard rods: 1/(2e) =", 1.0 / (2.0 * math.e))
print("hard spheres: 3/(4 pi e) =", 3.0 / (4.0 * math.pi * math.e))

print("\nrooted-tree majorant t(z) = e^{w z t} along z up to the boundary:")
p = hard_rods()
z_max = activity_radius(p).bound_value
for frac in (0.0, 0.5, 0.9, 1.0):
    z = frac * z_max
    t = rooted_tree_fixpoint(p, z)
    print(f"  z = {z:.6f} ({frac:.0%} of z_max): t = {t:.9f}")
print("  at the boundary t = e exactly; beyond it no fixed point exists")

cert = canonical_radius(p)
print(f"\ncanonical polymer radius (hard rods): {cert.bound_value:.12f}")
grid = np.linspace(0.01, 0.12, 6)
print("densities below the radius admit the certified expansion:",
      [f"{x:.2f}" for x in grid if x < cert.bound_value])
