"""Oracles for the benchmark's operations.

Each check takes the values an operation produced and raises CheckFailed,
with the reason, when they disagree with a closed form, a published value
or a reference recorded from the program.  Nothing here imports clusterexp,
so the checks can be tested on hand-made values.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(AssertionError):
    """An operation returned a value its oracle rejects."""


def _close(name: str, got: float, want: float, atol: float = 0.0,
           rtol: float = 0.0) -> None:
    if not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        raise CheckFailed(f"{name} = {got!r}, expected {want!r} "
                          f"(atol {atol:g}, rtol {rtol:g})")


# ---------------------------------------------------------------------------
# exact 1D coefficients

def check_hard_rod_virial(B: dict[int, float], order: int) -> None:
    """Tonks gas with sigma = 1: every B_n = 1."""
    for n in range(2, order + 1):
        if n not in B:
            raise CheckFailed(f"B_{n} missing")
        _close(f"B_{n}", B[n], 1.0, atol=1e-12)


# B_3 and B_4 of the 1D square well (sigma=1, lambda=1.5, epsilon=1,
# beta=1) as computed by the exact polytope path of clusterexp 0.1.0.
SQUARE_WELL_B = {
    2: 1.0 - (math.e - 1.0) / 2.0,
    3: 1.1875348496619957,
    4: -0.7989011410942299,
}


def check_square_well_virial(B: dict[int, float]) -> None:
    for n, want in SQUARE_WELL_B.items():
        if n not in B:
            raise CheckFailed(f"B_{n} missing")
        _close(f"B_{n}", B[n], want, rtol=1e-12)


def check_eos_matches_virial(pressure: list[float], B: dict[int, float],
                             catalog_misses: int) -> None:
    """The eos pressure series carries the same-run virial coefficients,
    read back from the catalog without recomputing any of them."""
    if catalog_misses:
        raise CheckFailed(f"eos recomputed {catalog_misses} catalog entries")
    for n, want in B.items():
        if n >= len(pressure) or pressure[n] != want:
            got = pressure[n] if n < len(pressure) else None
            raise CheckFailed(f"eos coefficient {n} = {got!r}, virial "
                              f"printed {want!r}")


def hard_rod_h2_orders(r: float) -> list[float]:
    """Density-expansion orders 0..3 of h_2(r) for unit hard rods at
    1 < r < 2, with x = r - 1 (Zernike-Prins)."""
    x = r - 1.0
    return [0.0, 1.0 - x, 1.0 - 2.0 * x + x * x / 2.0,
            1.0 - 3.0 * x + 1.5 * x * x - x ** 3 / 6.0]


def check_hard_rod_h2(values, r: float) -> None:
    want = hard_rod_h2_orders(r)
    if len(values) != len(want):
        raise CheckFailed(f"h_2 has {len(values)} orders, expected {len(want)}")
    for k, (got, w) in enumerate(zip(values, want)):
        _close(f"h_2 order {k}", float(got), w, atol=1e-12)


def check_canonical_b_star(b_star: dict[int, float], K: int) -> None:
    """Hard rods on a ring: B*(k) = -(k+1)/k."""
    for k in range(1, K + 1):
        if k not in b_star:
            raise CheckFailed(f"B*({k}) missing")
        _close(f"B*({k})", float(b_star[k]), -(k + 1) / k, atol=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo: hard spheres in three dimensions

# B_n / B_2^(n-1) for hard spheres in d = 3 (Clisby & McCoy, J. Stat.
# Phys. 122, 15, 2006).
HARD_SPHERE_RATIOS = {3: 5.0 / 8.0, 4: 0.28695, 5: 0.11025}
HARD_SPHERE_B2 = 2.0 * math.pi / 3.0


def hard_sphere_ratio(B: dict[int, float], err: dict[int, float],
                      n: int) -> tuple[float, float]:
    """B_n / B_2^(n-1) and its standard error, from independent errors."""
    ratio = B[n] / B[2] ** (n - 1)
    rel = math.hypot(err[n] / B[n], (n - 1) * err[2] / B[2])
    return ratio, abs(ratio) * rel


def check_hard_sphere_virial(B: dict[int, float], err: dict[int, float],
                             n_sigma: float = 3.0) -> None:
    for n, want in HARD_SPHERE_RATIOS.items():
        if n not in B or 2 not in B:
            raise CheckFailed(f"B_{n} missing")
        ratio, sigma = hard_sphere_ratio(B, err, n)
        if not (math.isfinite(ratio) and math.isfinite(sigma)) or \
                abs(ratio - want) > n_sigma * sigma:
            raise CheckFailed(f"B_{n}/B_2^{n - 1} = {ratio!r} +- {sigma:.3g}, "
                              f"reference {want} (limit {n_sigma} sigma)")


# ---------------------------------------------------------------------------
# Percus-Yevick

def py_closed_forms(kind: str, rho: float) -> tuple[float, float]:
    """(Z, beta dP/drho): the PY closed forms for unit hard spheres in 3D,
    the exact Tonks values for unit hard rods."""
    if kind == "hard_spheres":
        eta = math.pi * rho / 6.0
        return ((1.0 + 2.0 * eta + 3.0 * eta ** 2) / (1.0 - eta) ** 2,
                (1.0 + 2.0 * eta) ** 2 / (1.0 - eta) ** 4)
    if kind == "hard_rods":
        return 1.0 / (1.0 - rho), 1.0 / (1.0 - rho) ** 2
    raise ValueError(f"no closed form for {kind!r}")


def py_relative_errors(kind: str, rho: float,
                       thermo: dict) -> tuple[float, float]:
    """Relative errors of the virial route (Z) and the compressibility
    route (beta dP/drho) against the closed forms."""
    z_ref, dp_ref = py_closed_forms(kind, rho)
    z = float(thermo["pressure_virial"]) / rho
    dp = float(thermo["compressibility_factor"])
    return abs(z - z_ref) / z_ref, abs(dp - dp_ref) / dp_ref


def check_py_virial(kind: str, rho: float, thermo: dict,
                    rtol: float = 0.01) -> None:
    z_err, _ = py_relative_errors(kind, rho, thermo)
    if not z_err <= rtol:
        raise CheckFailed(f"{kind} rho={rho}: virial-route Z off the closed "
                          f"form by {z_err:.3%} (limit {rtol:.0%})")


# ---------------------------------------------------------------------------
# combinatorics

# Labeled graphs on 6 vertices by class, and articulation-free graphs with
# 2 white and 4 black vertices.
CENSUS_6 = {"all": 32768, "connected": 26704, "biconnected": 11368,
            "tree": 1296}
ARTICULATION_FREE_2_4 = 14064


def check_count(what: str, got: int, want: int) -> None:
    if got != want:
        raise CheckFailed(f"{what}: {got} graphs, expected {want}")


def check_tbar_alternating(coefficients, K: int) -> None:
    """With a_n = -(n-1)!, Tbar(rho) = sum_n (-rho)^n exactly."""
    if len(coefficients) != K + 1:
        raise CheckFailed(f"Tbar has {len(coefficients)} coefficients, "
                          f"expected {K + 1}")
    for n, c in enumerate(coefficients):
        if not isinstance(c, (int, Fraction)) or c != (-1) ** n:
            raise CheckFailed(f"Tbar coefficient {n} = {c!r}, expected "
                              f"{(-1) ** n} as an exact rational")
