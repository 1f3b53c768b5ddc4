"""Tree-graph inequality checks and convergence-radius certificates.

Everything is the scalar, translation-invariant specialization: the weight
function a(x) of the general criterion is a constant, which is optimal for
radial potentials in a homogeneous box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import Potential, cbar_integral, stability_profile
from .weights import phi_t_batch, fbar_tree_sum_batch


@dataclass(frozen=True)
class ConvergenceCertificate:
    bound_value: float  # max |z|, or max rho*C in the canonical case
    weight_a: float
    condition_kind: str  # "activity_scalar" | "canonical_density"
    potential: dict
    unbounded: bool = False

    def __post_init__(self):
        if not self.unbounded and self.bound_value <= 0:
            raise ValueError("certificate must be positive")


def tree_graph_check_batch(p: Potential, points) -> dict:
    """Vectorized inequality check over a batch of configurations
    (B, n, d) or (B, n).

    The connected-graph sum is evaluated through the partition identity
    (subset convolution) and the tree sum through the matrix-tree
    determinant; both routes are cross-checked against exhaustive graph
    enumeration in the tests.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 2:
        pts = pts[:, :, None]
    B_, n, _ = pts.shape
    diff = pts[:, :, None, :] - pts[:, None, :, :]
    r = np.linalg.norm(diff, axis=-1)
    f = np.asarray(p.mayer_f(r))
    fbar = np.asarray(p.mayer_fbar(r))
    idx = np.arange(n)
    f[:, idx, idx] = 0.0
    fbar[:, idx, idx] = 0.0
    lhs = np.abs(phi_t_batch(f))
    stab = stability_profile(p)
    # the tree sum is nonnegative; the determinant may return -1e-15 noise
    tree_sum = np.maximum(fbar_tree_sum_batch(fbar), 0.0)
    rhs = math.exp(n * p.beta * stab.B) * tree_sum
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-12) + 1e-12}


def activity_radius(p: Potential) -> ConvergenceCertificate:
    """Largest activity with a scalar convergence certificate.

    The condition Cbar * z * e^{a + beta B} <= a is best at a = 1, giving
    z_max = 1 / (e * Cbar * e^{beta B}).
    """
    cbar = cbar_integral(p, p.dimension)
    stab = stability_profile(p)
    if cbar == 0.0:
        return ConvergenceCertificate(math.inf, 1.0, "activity_scalar",
                                      p.label(), unbounded=True)
    z_max = 1.0 / (math.e * cbar * math.exp(p.beta * stab.B))
    return ConvergenceCertificate(z_max, 1.0, "activity_scalar", p.label())


# n^{n-2}/(n-1)! for the tree-counting series over genuine polymers
# (n >= 2: singletons have activity 1 and are resummed into the measure,
# so they do not enter the overlap sum).  Terms at the divergence boundary
# y = 1/e decay like n^{-3/2}; 400 terms keep the tail below tolerance.
_TREE_COEFS = np.array([math.exp((n - 2) * math.log(n) - math.lgamma(n))
                        for n in range(2, 400)])
_TREE_POWERS = np.arange(1, len(_TREE_COEFS) + 1)


def _canonical_lhs(x: float, cs: np.ndarray, bb: float) -> np.ndarray:
    """e^{c+bb} * sum_{n>=2} n^{n-2}/(n-1)! (x e^{c+bb})^{n-1} on a grid of
    c; inf where the series diverges (argument >= 1/e)."""
    y = x * np.exp(cs + bb)
    out = np.full_like(cs, np.inf)
    ok = y < 1.0 / math.e
    if np.any(ok):
        sums = (_TREE_COEFS[None, :] * y[ok, None] ** _TREE_POWERS[None, :]).sum(axis=1)
        out[ok] = np.exp(cs[ok] + bb) * sums
    return out


def canonical_radius(p: Potential) -> ConvergenceCertificate:
    """Largest x = rho * C admitting a constant c > 0 with
    e^{c + beta B} * sum_n (n^{n-2}/(n-1)!) (x e^{c + beta B})^{n-1} <= c.

    The certificate value is x itself (dimensionless); divide by
    C = int |f| for the density bound.  The constant c is searched on 200
    points of [1e-3, 3].
    """
    stab = stability_profile(p)
    bb = p.beta * stab.B
    cs = np.linspace(1e-3, 3.0, 200)

    def admissible(x: float) -> bool:
        return bool(np.any(_canonical_lhs(x, cs, bb) <= cs))

    lo, hi = 0.0, 1.0
    if not admissible(1e-12):
        raise ValueError("no admissible canonical certificate at x -> 0")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    mask = _canonical_lhs(lo, cs, bb) <= cs
    best_c = float(cs[np.argmax(mask)])
    return ConvergenceCertificate(lo, best_c, "canonical_density", p.label())


def rooted_tree_fixpoint(p: Potential, z: float) -> float:
    """Smallest positive solution of T = exp(Cbar * z * e^{beta B} * T) by
    monotone iteration from T = 1.  Raises when z is past the boundary
    (iterates exceeding e, where x = e^{w x} stops being solvable)."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    w = cbar_integral(p, p.dimension) * z * math.exp(p.beta * stability_profile(p).B)
    if abs(w - 1.0 / math.e) <= 1e-12:
        return math.e  # tangency point: T = e^{T/e} has the double root T = e
    t = 1.0
    for _ in range(100_000):
        t_next = math.exp(w * t)
        if t_next > math.e * (1.0 + 1e-9):
            raise ValueError("fixed point does not exist: activity beyond radius")
        if abs(t_next - t) < 1e-14:
            return t_next
        t = t_next
    return t
