"""Truncated formal power series and the species identities built on them:
exp/log, rooting, composition, Lagrange inversion, enriched-tree inversion,
the dissymmetry identity and the virial equation of state.

Enriched-tree inversion solves the species equation Tbar = exp(A(rho Tbar))
by fixed-point iteration rather than listing the trees, so it has no
enumeration cap.

Coefficients may be exact (fractions.Fraction) or floats; the algebra is
agnostic.  Series carry a variable tag ("z" for activity, "rho" for
density) and refuse to add or multiply across tags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Unused here: bench/tracing.py wraps series.enumerate_enriched_trees by name,
# and its --trace 1 runs fail at install without it.
from .graphs import enumerate_enriched_trees  # noqa: F401


@dataclass(frozen=True)
class TruncatedSeries:
    """Polynomial truncation c_0 + c_1 x + ... + c_K x^K."""

    coefficients: tuple
    variable: str = "z"

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("need at least the constant coefficient")
        if self.variable not in ("z", "rho"):
            raise ValueError("variable tag must be 'z' or 'rho'")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int):
        return self.coefficients[n] if n <= self.order else 0

    def truncate(self, K: int) -> "TruncatedSeries":
        c = list(self.coefficients[:K + 1])
        c += [0] * (K + 1 - len(c))
        return TruncatedSeries(c, self.variable)

    def _binary(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.variable != self.variable:
            raise ValueError(f"variable mismatch: {self.variable} vs {other.variable}")
        K = min(self.order, other.order)
        return K

    def __add__(self, other):
        K = self._binary(other)
        return TruncatedSeries([self[n] + other[n] for n in range(K + 1)], self.variable)

    def __sub__(self, other):
        K = self._binary(other)
        return TruncatedSeries([self[n] - other[n] for n in range(K + 1)], self.variable)

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coefficients], self.variable)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            K = self._binary(other)
            out = [sum(self[j] * other[n - j] for j in range(n + 1)) or 0
                   for n in range(K + 1)]
            return TruncatedSeries(out, self.variable)
        return TruncatedSeries([c * other for c in self.coefficients], self.variable)

    __rmul__ = __mul__

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def series_from_coefficients(coeffs, variable="z") -> TruncatedSeries:
    return TruncatedSeries(tuple(coeffs), variable)


def zero_series(K: int, variable="z") -> TruncatedSeries:
    return TruncatedSeries((0,) * (K + 1), variable)


def identity_series(K: int, variable="z") -> TruncatedSeries:
    c = [0] * (K + 1)
    if K >= 1:
        c[1] = 1
    return TruncatedSeries(c, variable)


def series_derivative(a: TruncatedSeries) -> TruncatedSeries:
    if a.order == 0:
        return TruncatedSeries((0,), a.variable)
    return TruncatedSeries([(n + 1) * a[n + 1] for n in range(a.order)], a.variable)


def rooting(a: TruncatedSeries) -> TruncatedSeries:
    """x d/dx: picks out n * c_n; turns a connected count into its rooted
    version."""
    return TruncatedSeries([n * a[n] for n in range(a.order + 1)], a.variable)


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    if a[0] != 0:
        raise ValueError("exp needs zero constant term")
    K = a.order
    one = a[1] * 0 + 1 if K >= 1 else 1
    y = [one] + [0] * K
    for n in range(1, K + 1):
        s = sum(k * a[k] * y[n - k] for k in range(1, n + 1))
        y[n] = s / n if not isinstance(s, (int, Fraction)) else Fraction(s, n)
    return TruncatedSeries(y, a.variable)


def series_log(a: TruncatedSeries) -> TruncatedSeries:
    if a[0] != 1:
        raise ValueError("log needs constant term 1")
    K = a.order
    y = [0] * (K + 1)
    for n in range(1, K + 1):
        s = n * a[n] - sum(k * y[k] * a[n - k] for k in range(1, n))
        y[n] = s / n if not isinstance(s, (int, Fraction)) else Fraction(s, n)
    return TruncatedSeries(y, a.variable)


def series_compose(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """a(b(x)); requires b(0) = 0.  The result lives in b's variable."""
    if b[0] != 0:
        raise ValueError("composition needs inner constant term 0")
    K = b.order
    acc = zero_series(K, b.variable)
    for c in reversed(a.coefficients):
        acc = acc * b
        acc = TruncatedSeries([acc[0] + c] + [acc[n] for n in range(1, K + 1)],
                              b.variable)
    return acc


def lagrange_invert(rho_of_z: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse: z as a series in rho (or vice versa)."""
    if rho_of_z[0] != 0:
        raise ValueError("not invertible: constant term must vanish")
    c1 = rho_of_z[1]
    if c1 == 0:
        raise ValueError("not invertible: vanishing linear coefficient")
    K = rho_of_z.order
    out_var = "rho" if rho_of_z.variable == "z" else "z"
    inv = [0] * (K + 1)
    if isinstance(c1, (int, Fraction)):
        inv[1] = Fraction(1, 1) / Fraction(c1)
    else:
        inv[1] = 1.0 / c1
    for m in range(2, K + 1):
        cand = TruncatedSeries(inv[:m] + [0] * (K + 1 - m), out_var)
        err = series_compose(rho_of_z, cand)[m]
        inv[m] = -err / c1
    return TruncatedSeries(inv, out_var)


# ---------------------------------------------------------------------------
# enriched-tree inversion and the two-connected composition
# ---------------------------------------------------------------------------

def kernel_series(a_kernels: dict[int, object], K: int,
                  variable: str = "rho") -> TruncatedSeries:
    """A(x) = sum_n a_n x^n / n! from per-order kernels (constant term 0)."""
    c = [0] * (K + 1)
    for n in range(1, K + 1):
        if n in a_kernels:
            c[n] = a_kernels[n] / (Fraction(math.factorial(n))
                                   if isinstance(a_kernels[n], (int, Fraction))
                                   else float(math.factorial(n)))
    return TruncatedSeries(c, variable)


def enriched_tree_invert(a_kernels: dict[int, object], K: int) -> TruncatedSeries:
    """Tbar(rho) = 1 + sum_n (rho^n/n!) sum over enriched trees on {0..n} of
    the product over child-partition cliques J of a_{|J|}.

    The enriched trees are the species solution of Tbar = exp(A(rho Tbar)),
    A(x) = sum_n a_n x^n / n!: the root's children split into cliques J,
    each weighted a_{|J|} and carrying one subtree (rho Tbar) per member.
    Iterating that equation K times from Tbar = 1 fixes one coefficient per
    step, exactly in Fractions when the kernels are rational; no tree is
    listed, so there is no enumeration cap.  z(rho) = rho * Tbar(rho) then
    inverts rho(z); checked against Lagrange inversion and against the
    enriched-tree sums in the tests.  Kernels must be present through
    order K.
    """
    missing = [n for n in range(1, K + 1) if n not in a_kernels]
    if missing:
        raise ValueError(f"truncation error: missing kernel orders {missing}")
    A = kernel_series(a_kernels, K, "rho")
    rho = identity_series(K, "rho")
    tbar = TruncatedSeries([1] + [0] * K, "rho")
    for _ in range(K):
        tbar = series_exp(series_compose(A, rho * tbar))
    return tbar


def two_connected_from_composition(a_kernels: dict[int, object],
                                   tbar: TruncatedSeries) -> TruncatedSeries:
    """Bprime(rho) = -A(rho * Tbar(rho)): the derivative of the
    two-connected generating function, assembled compositionally."""
    K = tbar.order
    z_of_rho = identity_series(K, "rho") * tbar
    A = kernel_series(a_kernels, K, "rho")
    return -series_compose(A, z_of_rho)


# ---------------------------------------------------------------------------
# dissymmetry and the equation of state
# ---------------------------------------------------------------------------

def b_series_from_table(b_table: dict[int, object], K: int) -> TruncatedSeries:
    """C(z) = sum b_n z^n, the pressure-like connected series."""
    return TruncatedSeries([0] + [b_table.get(n, 0) for n in range(1, K + 1)], "z")


def two_connected_series(beta_table: dict[int, object], K: int) -> TruncatedSeries:
    """B(rho) = sum_k beta_k rho^{k+1} / (k+1)."""
    c = [0] * (K + 1)
    for k, bk in beta_table.items():
        if k + 1 <= K:
            if isinstance(bk, (int, Fraction)):
                c[k + 1] = Fraction(bk) / (k + 1)
            else:
                c[k + 1] = bk / (k + 1)
    return TruncatedSeries(c, "rho")


def dissymmetry_residual(b_table: dict[int, object],
                         beta_table: dict[int, object], K: int) -> TruncatedSeries:
    """rho + B(rho) - rho B'(rho) - C, all composed with rho(z), as a series
    in z.  Vanishes identically when b_n and beta_k come from the same
    weight system."""
    C = b_series_from_table(b_table, K)
    rho = rooting(C)
    B = two_connected_series(beta_table, K)
    B_rooted = rooting(B)
    lhs = rho + series_compose(B, rho)
    rhs = series_compose(B_rooted, rho) + C
    return lhs - rhs


def eos_and_free_energy(beta_table: dict[int, object], K: int) -> dict:
    """Virial pressure and the series part of the free energy.

    P(rho) = rho - rho B'(rho) + B(rho) = rho - sum_k (k/(k+1)) beta_k
    rho^{k+1}; the free energy is rho ln rho - rho - B(rho), of which only
    -B(rho) is a power series (the rest is reported symbolically).
    """
    B = two_connected_series(beta_table, K)
    Bprime = series_derivative(B).truncate(K)
    rho = identity_series(K, "rho")
    pressure = rho - (rho * Bprime) + B
    virial = {n: pressure[n] for n in range(2, K + 1)}
    return {
        "pressure_of_density": pressure,
        "free_energy_series": -B,
        "free_energy_symbolic": "rho*log(rho) - rho",
        "virial_coefficients": virial,
    }


def log_activity_of_density(beta_table: dict[int, object], K: int) -> TruncatedSeries:
    """Series part of ln z(rho) = ln rho - B'(rho); returns -B'(rho)."""
    B = two_connected_series(beta_table, K)
    return -series_derivative(B).truncate(K)


def density_from_activity(beta_table: dict[int, object], K: int) -> TruncatedSeries:
    """rho(z) solving rho = z exp(B'(rho)), order by order in z."""
    B = two_connected_series(beta_table, K)
    Bprime = series_derivative(B).truncate(K)
    rho = [0] * (K + 1)
    if K >= 1:
        rho[1] = 1 if isinstance(Bprime[1], (int, Fraction)) else 1.0
    for m in range(2, K + 1):
        cand = TruncatedSeries(rho[:m] + [0] * (K + 1 - m), "z")
        # rho_m = [z^m] z * exp(B'(rho)) with rho known below order m
        expo = series_exp(series_compose(Bprime, cand))
        rho[m] = expo[m - 1]
    return TruncatedSeries(rho, "z")
