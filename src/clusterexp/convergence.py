"""Tree-graph inequality checks and convergence-radius certificates.

Everything is the scalar, translation-invariant specialization: the weight
function a(x) of the general criterion is a constant, which is optimal for
radial potentials in a homogeneous box.

The stability factor e^{beta B} leaves the float range at strong
attraction (beta B > 709), so every bound is formed in logs.
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
    # log of the bound; it stays finite where bound_value underflows to 0.0
    # (about e^{-beta B} and e^{-2 beta B} at strong attraction).  Left
    # out, it is log(bound_value).
    log_bound: float | None = None

    def __post_init__(self):
        if self.log_bound is None:
            object.__setattr__(self, "log_bound", math.log(self.bound_value)
                               if self.bound_value > 0 else -math.inf)
        if not self.unbounded and not self.log_bound > -math.inf:
            raise ValueError("certificate must be positive")


def tree_graph_check_batch(p: Potential, points) -> dict:
    """Vectorized inequality check over a batch of configurations
    (B, n, d).

    The connected-graph sum is evaluated through the partition identity
    (subset convolution) and the tree sum through the matrix-tree
    determinant; both routes are cross-checked against exhaustive graph
    enumeration in the tests.
    """
    pts = np.asarray(points, dtype=float)
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
    # a zero tree sum gives 0, a bound past the float range inf
    with np.errstate(divide="ignore", over="ignore"):
        rhs = np.exp(n * p.beta * stab.B + np.log(tree_sum))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1.0 + 1e-12) + 1e-12}


def activity_radius(p: Potential) -> ConvergenceCertificate:
    """Largest activity with a scalar convergence certificate.

    The condition Cbar * z * e^{a + beta B} <= a is best at a = 1, giving
    z_max = 1 / (e * Cbar * e^{beta B}), log z_max = -1 - log Cbar - beta B.
    """
    cbar = cbar_integral(p, p.dimension)
    stab = stability_profile(p)
    if cbar == 0.0:
        return ConvergenceCertificate(math.inf, 1.0, "activity_scalar",
                                      p.label(), unbounded=True)
    log_z = -1.0 - math.log(cbar) - p.beta * stab.B
    return ConvergenceCertificate(math.exp(log_z), 1.0, "activity_scalar",
                                  p.label(), log_bound=log_z)


def _tree_function(y: float) -> float:
    """The rooted-tree function T(y) = sum_n n^{n-1} y^n / n! for
    0 <= y <= 1/e: the root in [0, 1] of T e^{-T} = y (T = y e^T), by
    bisection until the midpoint repeats.  T(1/e) = 1."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if mid * math.exp(-mid) <= y:
            lo = mid
        else:
            hi = mid


def canonical_radius(p: Potential) -> ConvergenceCertificate:
    """Largest x = rho * C admitting a constant c > 0 with
    e^{c + beta B} * sum_{n>=2} (n^{n-2}/(n-1)!) y^{n-1} <= c,
    y = x e^{c + beta B}.  The sum runs over genuine polymers, n >= 2:
    singletons have activity 1 and are resummed into the measure.

    Since n^{n-2}/(n-1)! = n^{n-1}/n!, the sum is (T(y) - y)/y = T/y - 1
    = e^{T(y)} - 1, with T the rooted-tree function, T = y e^T (it
    diverges past y = 1/e).
    The condition therefore reads T(y) <= tau = log(1 + c e^{-c - beta B}),
    and as T increases with inverse tau e^{-tau} (tau < 1, because
    c e^{-c} <= 1/e), the largest admissible x at c is
    tau e^{-tau - c - beta B}.  The certificate value is its maximum over
    200 points c of [1e-3, 3] (dimensionless; divide by C = int |f| for the
    density bound), and ``weight_a`` is the c that attains it.  The
    maximum is taken over log x = log tau - tau - c - beta B.
    """
    cs = np.linspace(1e-3, 3.0, 200)
    log_g = -cs - p.beta * stability_profile(p).B
    u = cs * np.exp(log_g)
    tau = np.log1p(u)
    # log tau = log u + log(tau / u); tau / u -> 1 where u underflows
    log_tau = np.log(cs) + log_g + np.log(
        np.divide(tau, u, out=np.ones_like(u), where=u > 0.0))
    log_xs = log_tau - tau + log_g
    best = int(np.argmax(log_xs))
    return ConvergenceCertificate(math.exp(log_xs[best]), float(cs[best]),
                                  "canonical_density", p.label(),
                                  log_bound=float(log_xs[best]))


def rooted_tree_fixpoint(p: Potential, z: float) -> float:
    """Smallest positive solution t of t = exp(w t), w = Cbar * z * e^{beta B}:
    t = e^{T(w)}, since T(w) = w e^{T(w)}.  Raises when w > 1/e, where
    there is no solution; within 1e-12 of 1/e (z = z_max up to rounding)
    it returns the double root t = e."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    cz = cbar_integral(p, p.dimension) * z
    # w = Cbar z e^{beta B} from its log, capped at w = 1 (past 1/e anyway)
    w = (math.exp(min(math.log(cz) + p.beta * stability_profile(p).B, 0.0))
         if cz > 0.0 else 0.0)
    if abs(w - 1.0 / math.e) <= 1e-12:
        return math.e  # tangency point: t = e^{t/e} has the double root t = e
    if w > 1.0 / math.e:
        raise ValueError("fixed point does not exist: activity beyond radius")
    return math.exp(_tree_function(w))
