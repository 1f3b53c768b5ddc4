"""Exact 1D values pinned bit for bit, as float.hex, at commit 839876b.

Every exact class sum of the lattice path is a correctly rounded sum
(math.fsum) per order of the fractional parts, of cell scores that do not
depend on how the cells are batched, so a change to the batching or the
order of the cells must leave each value as recorded.  The values live in
tests/data/exact_1d_as_at_839876b.json; ``exact_values`` lists how each is
computed, and dumping its results at a commit records them again.
"""

import json
import math
from pathlib import Path

import pytest

from clusterexp import weights
from clusterexp.canonical import canonical_free_energy
from clusterexp.coefficients import irreducible_beta_n, mayer_b_n
from clusterexp.correlations import (c2_density, h_n_density, rho_n_activity,
                                     u_n_activity)
from clusterexp.potentials import hard_rods, square_well
from clusterexp.weights import (biconnected_sum_batch, lattice_class_sum,
                                phi_t_batch)

DATA = Path(__file__).parent / "data" / "exact_1d_as_at_839876b.json"
RECORDED = json.loads(DATA.read_text())
POTENTIALS = {
    "hard_rods": hard_rods(),
    "square_well": square_well(sigma=1.0, lam=1.5, epsilon=1.0, beta=1.0,
                               dimension=1),
}
SEPARATIONS = (-0.7, 0.0, 0.3, 1.0, math.sqrt(2.0), 1.7, 2.5, 3.3)


def exact_values() -> dict:
    """key -> function returning the floats recorded under that key."""
    out = {}
    for name, p in POTENTIALS.items():
        for r in SEPARATIONS:
            pair = [0.0, r]
            out[f"{name} h r={r!r}"] = \
                lambda p=p, pair=pair: h_n_density(p, 2, pair, 3).values
            out[f"{name} c r={r!r}"] = \
                lambda p=p, r=r: c2_density(p, r, 3).values
            out[f"{name} u r={r!r}"] = \
                lambda p=p, pair=pair: u_n_activity(p, 2, pair, 3).values
            out[f"{name} rho r={r!r}"] = \
                lambda p=p, pair=pair: rho_n_activity(p, 2, pair, 3).values
        out[f"{name} u three whites"] = \
            lambda p=p: u_n_activity(p, 3, [0.0, 0.5, 1.25], 3).values
        out[f"{name} b_2..b_5"] = lambda p=p: [
            mayer_b_n(p, n, "exact1d").value for n in range(2, 6)]
        out[f"{name} beta_1..beta_4"] = lambda p=p: [
            irreducible_beta_n(p, n, "exact1d").value for n in range(1, 5)]
        out[f"{name} canonical N=10 L=20 K=3"] = lambda p=p: [
            value for _, t in sorted(canonical_free_energy(
                p, 10, 20.0, 3).coefficients.items())
            for _, value in sorted(t.items())]
        out[f"{name} torus"] = lambda p=p: [
            lattice_class_sum(biconnected_sum_batch, p, 3, 5.0),
            lattice_class_sum(phi_t_batch, p, 4, 7.0)]
    return out


VALUES = exact_values()


@pytest.fixture(autouse=True)
def lattice_only(monkeypatch):
    """Every pinned value comes from the lattice cells."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-graph polytope path called")

    for name in ("graph_weight_exact_1d", "graph_weight_periodic_1d"):
        monkeypatch.setattr(weights, name, refuse)


def test_every_recorded_value_is_computed():
    assert sorted(VALUES) == sorted(RECORDED)


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_bit_identical_to_839876b(key):
    assert [float(v).hex() for v in VALUES[key]()] == RECORDED[key]
