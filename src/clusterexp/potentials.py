"""Pair potentials, Mayer functions and stability data.

Everything is nondimensionalized: lengths in units of sigma, energies in
units of 1/beta unless given explicitly.  Potentials are radial and
symmetric, V(x, y) = V(|x - y|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

SURFACE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


class Kind(Enum):
    HARD_ROD = "hard_rod"
    HARD_SPHERE = "hard_sphere"
    SQUARE_WELL = "square_well"
    LENNARD_JONES = "lennard_jones"
    ZERO = "zero"


class UnsupportedStability(ValueError):
    pass


@dataclass(frozen=True)
class StabilityProfile:
    """Constants of the pairwise-energy lower bounds.

    B bounds the total energy per particle from below (sum form);
    B_star bounds a single pair, inf_r V(r) >= -B_star.  Both are in
    energy units; convergence formulas multiply by beta.
    """

    B: float
    B_star: float
    proven: bool = True


@dataclass(frozen=True)
class Potential:
    kind: Kind
    sigma: float = 1.0
    epsilon: float = 0.0
    lam: float = 1.5
    beta: float = 1.0
    dimension: int = 3
    cutoff: float | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.kind is Kind.SQUARE_WELL and self.lam <= 1:
            raise ValueError("square well needs lambda > 1")
        if self.kind is Kind.HARD_ROD and self.dimension != 1:
            raise ValueError("hard rods are one-dimensional")
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")

    # -- potential and Mayer functions ------------------------------------

    def v(self, r):
        """V(r); may be +inf inside a hard core."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.kind is Kind.ZERO:
            return out
        if self.kind in (Kind.HARD_ROD, Kind.HARD_SPHERE):
            return np.where(r < self.sigma, np.inf, 0.0)
        if self.kind is Kind.SQUARE_WELL:
            out = np.where(r < self.lam * self.sigma, -self.epsilon, 0.0)
            return np.where(r < self.sigma, np.inf, out)
        if self.kind is Kind.LENNARD_JONES:
            with np.errstate(divide="ignore", over="ignore"):
                s6 = (self.sigma / np.where(r == 0, np.nan, r)) ** 6
                out = 4.0 * self.epsilon * (s6 * s6 - s6)
            out = np.where(r == 0, np.inf, out)
            if self.cutoff is not None:
                out = np.where(r >= self.cutoff, 0.0, out)
            return out
        raise ValueError(self.kind)

    def mayer_f(self, r):
        """f(r) = exp(-beta V(r)) - 1, the expansion bond weight.  It is +0.0
        where V = 0: expm1(-0.0) is -0.0, and adding 0.0 clears the sign."""
        v = self.v(r)
        with np.errstate(over="ignore"):
            return np.where(np.isinf(v), -1.0,
                            np.expm1(-self.beta * np.where(np.isinf(v), 0.0, v))) + 0.0

    def mayer_fbar(self, r):
        """fbar(r) = 1 - exp(-beta |V(r)|), the tree-bound bond weight."""
        v = self.v(r)
        av = np.abs(np.where(np.isinf(v), 0.0, v))
        return np.where(np.isinf(v), 1.0, -np.expm1(-self.beta * av))

    def boltzmann(self, r):
        """exp(-beta V(r))."""
        return 1.0 + self.mayer_f(r)

    # -- derived data ------------------------------------------------------

    @property
    def interaction_range(self) -> float:
        """Radius beyond which f vanishes (inf for untruncated LJ)."""
        if self.kind is Kind.ZERO:
            return 0.0
        if self.kind in (Kind.HARD_ROD, Kind.HARD_SPHERE):
            return self.sigma
        if self.kind is Kind.SQUARE_WELL:
            return self.lam * self.sigma
        if self.kind is Kind.LENNARD_JONES:
            return self.cutoff if self.cutoff is not None else math.inf
        raise ValueError(self.kind)

    @property
    def piecewise_constant_f(self) -> bool:
        return self.kind in (Kind.ZERO, Kind.HARD_ROD, Kind.HARD_SPHERE, Kind.SQUARE_WELL)

    def f_pieces(self) -> list[tuple[float, float, float]]:
        """(r_lo, r_hi, f value) pieces for piecewise-constant f."""
        if not self.piecewise_constant_f:
            raise ValueError("use the MC path: f is not piecewise constant")
        if self.kind is Kind.ZERO:
            return []
        pieces = [(0.0, self.sigma, -1.0)]
        if self.kind is Kind.SQUARE_WELL:
            pieces.append((self.sigma, self.lam * self.sigma, math.expm1(self.beta * self.epsilon)))
        return pieces

    def label(self) -> dict:
        """Stable key material for caching/catalog purposes."""
        return {
            "kind": self.kind.value,
            "sigma": self.sigma,
            "epsilon": self.epsilon,
            "lambda": self.lam,
            "beta": self.beta,
            "dimension": self.dimension,
            "cutoff": self.cutoff,
        }


def stability_profile(p: Potential) -> StabilityProfile:
    """Stability constants for the built-in kinds.

    Nonnegative potentials get B = B* = 0.  The square well gets the
    packing bound B = (eps/2) * ceil((1+lambda)^d): a particle's well can
    reach only neighbors within (1+lambda) sigma, and the hard core limits
    how many fit.  This is an upper bound, not tight.  The Lennard-Jones
    value is a heuristic of the same packing shape with an effective core
    where V crosses +epsilon; it is flagged unproven and is only used
    multiplicatively inside convergence bounds, never in identities.
    """
    if p.kind in (Kind.ZERO, Kind.HARD_ROD, Kind.HARD_SPHERE):
        return StabilityProfile(0.0, 0.0)
    if p.kind is Kind.SQUARE_WELL:
        b = 0.5 * p.epsilon * math.ceil((1.0 + p.lam) ** p.dimension)
        return StabilityProfile(b, p.epsilon)
    if p.kind is Kind.LENNARD_JONES:
        if p.cutoff is None and p.dimension != 3:
            raise UnsupportedStability(
                "unsupported stability derivation: untruncated Lennard-Jones "
                f"in d={p.dimension}"
            )
        # effective core: V(r_eff) = +epsilon, attained at
        # (sigma/r)^6 = (1+sqrt(2))/2
        r_eff = p.sigma * (2.0 / (1.0 + math.sqrt(2.0))) ** (1.0 / 6.0)
        reach = p.cutoff if p.cutoff is not None else 2.5 * p.sigma
        b = 0.5 * p.epsilon * math.ceil((1.0 + reach / r_eff) ** p.dimension)
        return StabilityProfile(b, p.epsilon, proven=False)
    raise ValueError(p.kind)


def _radial_integral(fn, p: Potential, d: int) -> float:
    """S_d * int_0^inf fn(r) r^(d-1) dr, for fn a function of f such as
    fbar or |f|.

    For piecewise-constant f, fn is constant on each piece and the integral
    is a sum of shell volumes.  Lennard-Jones is integrated by ``quad``,
    imported here so that importing clusterexp does not load
    scipy.integrate.
    """
    if d not in SURFACE_AREA:
        raise ValueError("d must be 1, 2 or 3")
    sd = SURFACE_AREA[d]
    if p.piecewise_constant_f:
        return sd * sum(fn(0.5 * (lo + hi)) * (hi ** d - lo ** d) / d
                        for lo, hi, _ in p.f_pieces())
    from scipy.integrate import quad

    def integrand(r):
        return fn(r) * r ** (d - 1)

    upper = p.cutoff if p.cutoff is not None else math.inf
    # split at sigma, where the repulsive core meets the well
    breaks = [0.0, p.sigma, upper] if p.sigma < upper else [0.0, upper]
    result = sd * sum(quad(integrand, lo, hi, limit=200)[0]
                      for lo, hi in zip(breaks, breaks[1:]))
    if not math.isfinite(result):
        raise ValueError("not tempered: radial integral diverges")
    return result


def cbar_integral(p: Potential, d: int | None = None) -> float:
    """Integral of fbar(|x|) over R^d."""
    d = p.dimension if d is None else d
    return _radial_integral(lambda r: float(p.mayer_fbar(r)), p, d)


def abs_f_integral(p: Potential, d: int | None = None) -> float:
    """C = integral of |f(|x|)| over R^d (the canonical-ensemble constant)."""
    d = p.dimension if d is None else d
    return _radial_integral(lambda r: abs(float(p.mayer_f(r))), p, d)


def hard_rods(sigma: float = 1.0, beta: float = 1.0) -> Potential:
    return Potential(Kind.HARD_ROD, sigma=sigma, beta=beta, dimension=1)


def hard_spheres(sigma: float = 1.0, beta: float = 1.0, dimension: int = 3) -> Potential:
    return Potential(Kind.HARD_SPHERE, sigma=sigma, beta=beta, dimension=dimension)


def square_well(sigma: float = 1.0, lam: float = 1.5, epsilon: float = 1.0,
                beta: float = 1.0, dimension: int = 3) -> Potential:
    return Potential(Kind.SQUARE_WELL, sigma=sigma, lam=lam, epsilon=epsilon,
                     beta=beta, dimension=dimension)


def lennard_jones(sigma: float = 1.0, epsilon: float = 1.0, beta: float = 1.0,
                  cutoff: float | None = None, dimension: int = 3) -> Potential:
    return Potential(Kind.LENNARD_JONES, sigma=sigma, epsilon=epsilon, beta=beta,
                     cutoff=cutoff, dimension=dimension)


def zero_potential(dimension: int = 1, beta: float = 1.0) -> Potential:
    return Potential(Kind.ZERO, beta=beta, dimension=dimension)
