"""Self-tests of the benchmark's checkers, harness and tracer.

    python3 -m pytest -q bench/test_bench.py

Every oracle must reject a value perturbed just past its tolerance and
accept one just inside it.
"""

from __future__ import annotations

import math
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def test_hard_rod_virial_tolerance():
    oracles.check_hard_rod_virial({2: 1.0, 3: 1.0, 4: 1.0, 5: 1 + 1e-13}, 5)
    with pytest.raises(CheckFailed):
        oracles.check_hard_rod_virial({2: 1.0, 3: 1.0, 4: 1.0, 5: 1 + 1e-9}, 5)
    with pytest.raises(CheckFailed):
        oracles.check_hard_rod_virial({2: 1.0, 3: 1.0, 4: 1.0}, 5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_square_well_tolerance(n):
    B = dict(oracles.SQUARE_WELL_B)
    B[n] *= 1 + 5e-13
    oracles.check_square_well_virial(B)
    B[n] = oracles.SQUARE_WELL_B[n] * (1 + 2e-12)
    with pytest.raises(CheckFailed):
        oracles.check_square_well_virial(B)


def test_eos_must_equal_virial_and_hit_the_catalog():
    B = {2: 0.5, 3: 0.25}
    oracles.check_eos_matches_virial([0.0, 1.0, 0.5, 0.25], B, 0)
    with pytest.raises(CheckFailed):
        oracles.check_eos_matches_virial(
            [0.0, 1.0, 0.5, math.nextafter(0.25, 1.0)], B, 0)
    with pytest.raises(CheckFailed):
        oracles.check_eos_matches_virial([0.0, 1.0, 0.5, 0.25], B, 1)


@pytest.mark.parametrize("k", range(4))
def test_h2_zernike_prins_tolerance(k):
    r = math.sqrt(2.0)
    values = oracles.hard_rod_h2_orders(r)
    values[k] += 5e-13
    oracles.check_hard_rod_h2(values, r)
    values[k] += 1e-12
    with pytest.raises(CheckFailed):
        oracles.check_hard_rod_h2(values, r)


def test_canonical_b_star_tolerance():
    b_star = {k: -(k + 1) / k for k in (1, 2, 3)}
    oracles.check_canonical_b_star(b_star, 3)
    b_star[3] += 2e-12
    with pytest.raises(CheckFailed):
        oracles.check_canonical_b_star(b_star, 3)


def _hard_spheres_off_by(n: int, n_sigma: float):
    """Virial coefficients matching the references except B_n, which sits
    n_sigma standard errors away."""
    b2 = oracles.HARD_SPHERE_B2
    B = {2: b2}
    err = {2: 0.0}
    for m, ratio in oracles.HARD_SPHERE_RATIOS.items():
        err[m] = 0.01 * ratio * b2 ** (m - 1)
        B[m] = ratio * b2 ** (m - 1) + (n_sigma * err[m] if m == n else 0.0)
    return B, err


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hard_sphere_three_sigma(n):
    oracles.check_hard_sphere_virial(*_hard_spheres_off_by(n, 2.99))
    with pytest.raises(CheckFailed):
        oracles.check_hard_sphere_virial(*_hard_spheres_off_by(n, 3.01))
    B, err = _hard_spheres_off_by(n, 0.0)
    err[n] = math.nan
    with pytest.raises(CheckFailed):
        oracles.check_hard_sphere_virial(B, err)


@pytest.mark.parametrize("kind,rho", [("hard_spheres", 0.3), ("hard_rods", 0.5)])
def test_py_virial_one_percent(kind, rho):
    z_ref, dp_ref = oracles.py_closed_forms(kind, rho)
    for factor, ok in ((1.0099, True), (0.9901, True), (1.0101, False),
                       (0.9899, False)):
        thermo = {"pressure_virial": z_ref * factor * rho,
                  "compressibility_factor": dp_ref}
        if ok:
            oracles.check_py_virial(kind, rho, thermo)
        else:
            with pytest.raises(CheckFailed):
                oracles.check_py_virial(kind, rho, thermo)
    with pytest.raises(CheckFailed):
        oracles.check_py_virial(kind, rho, {"pressure_virial": math.nan,
                                            "compressibility_factor": dp_ref})


def test_census_off_by_one():
    for cls, want in oracles.CENSUS_6.items():
        oracles.check_count(cls, want, want)
        with pytest.raises(CheckFailed):
            oracles.check_count(cls, want + 1, want)
    with pytest.raises(CheckFailed):
        oracles.check_count("bicolored", oracles.ARTICULATION_FREE_2_4 - 1,
                            oracles.ARTICULATION_FREE_2_4)


def test_tbar_exact():
    coeffs = [Fraction((-1) ** n) for n in range(7)]
    oracles.check_tbar_alternating(coeffs, 6)
    with pytest.raises(CheckFailed):
        oracles.check_tbar_alternating(
            coeffs[:6] + [Fraction(1) + Fraction(1, 10 ** 20)], 6)
    with pytest.raises(CheckFailed):
        oracles.check_tbar_alternating(coeffs[:6] + [1.0], 6)


# ---------------------------------------------------------------------------
# harness

def test_failures_are_recorded_and_the_pass_goes_on():
    from clusterexp.ozpy import NonConvergence
    ran = []

    def stalls(res):
        raise NonConvergence(float("nan"), 7)

    def wrong(res):
        raise CheckFailed("off")

    def crashes(res):
        raise KeyError("x")

    wl = workloads.Workload("test", [
        workloads.Op("stalls", stalls), workloads.Op("wrong", wrong),
        workloads.Op("crashes", crashes),
        workloads.Op("fine", lambda res: ran.append(True))])
    res = workloads.run_pass(wl)
    assert res.attempted == 4
    assert [(f.op, f.kind) for f in res.failures] == [
        ("stalls", "failed"), ("wrong", "incorrect"), ("crashes", "error")]
    assert ran == [True]


def test_cli_nonconvergence_is_a_documented_failure(tmp_path):
    cfg = tmp_path / "oz.json"
    cfg.write_text('{"potential": {"kind": "hard_rods"}, "rho": 0.3, '
                   '"max_iter": 1}')
    res = workloads.PassResult()
    with pytest.raises(workloads.ProgramFailed) as info:
        workloads.run_cli(res, ["ozpy", "--config", str(cfg)])
    assert info.value.expected
    assert "nonconvergence" in info.value.reason


def test_reference_loop_timed_by_the_probe_reads_its_reference_time():
    before = signal.getsignal(signal.SIGPROF)
    with speed.SpeedProbe() as probe:
        mark, loops = probe.start(), 0
        t0 = time.process_time()
        while time.process_time() - t0 < 0.5:
            speed.reference_loop()
            loops += 1
        at_ref = probe.at_ref(mark)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) > speed.LEAD_SAMPLES
    assert at_ref == pytest.approx(loops * speed.REF_LOOP_S, rel=0.3)


# ---------------------------------------------------------------------------
# tracing

def test_self_time_subtracts_direct_children():
    spans = [[0, None, 1, "cli.main", 0.0, 10.0],
             [1, 0, 1, "coefficients.b", 1.0, 9.0],
             [2, 1, 1, "weights.exact", 2.0, 5.0],
             [3, 1, 1, "weights.exact", 5.0, 8.0]]
    assert tracing.self_times(spans) == {"cli": 2.0, "coefficients": 2.0,
                                         "weights": 6.0}


def test_tracer_spans_each_next_and_restores_names():
    from clusterexp import cli
    from clusterexp.graphs import GraphClass
    original = cli.enumerate_graphs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graphs = list(cli.enumerate_graphs(3, GraphClass.CONNECTED))
    finally:
        tracer.uninstall()
    assert cli.enumerate_graphs is original
    spans, counts = tracer.take()
    assert len(graphs) == 4
    assert counts["graphs.calls"] == 1
    assert counts["graphs.yielded"] == 4
    assert counts["graphs.masks"] == 8
    # one span per next(), the last one ending the iteration
    assert [s[3] for s in spans] == ["graphs.enumerate_graphs"] * 5
    assert all(s[5] >= s[4] for s in spans)
