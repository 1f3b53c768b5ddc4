"""The benchmark's workloads, and the closed loop that runs one pass.

A pass runs a workload's operations one after another; each starts when
the previous one has returned.  Every operation runs clusterexp, through
the in-process CLI entry point or a public function, and checks what it
returns against an oracle.  An operation fails when the program reports a
failure or raises, or when its output fails the check; the pass records
why and goes on with the next operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from clusterexp import canonical, cli, correlations, graphs, series
from clusterexp.ozpy import NonConvergence
from clusterexp.potentials import hard_rods

import oracles
from oracles import CheckFailed


class ProgramFailed(RuntimeError):
    """The CLI exited with an error code instead of printing a result.

    ``expected`` marks the solver's documented non-convergence exit, a
    failure of the program's numerics rather than a wrong answer.
    """

    def __init__(self, reason: str, expected: bool):
        super().__init__(reason)
        self.reason = reason
        self.expected = expected


@dataclass
class Op:
    name: str
    run: Callable[["PassResult"], None]   # runs the program and checks it


@dataclass
class Failure:
    op: str
    kind: str      # "failed" (documented failure), "incorrect" or "error"
    reason: str
    detail: str = ""


@dataclass
class PassResult:
    wall: float = 0.0
    ref: float = 0.0               # CPU seconds at reference speed (speed.py)
    attempted: int = 0
    op_walls: list[float] = field(default_factory=list)
    op_refs: list[float] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)   # from CLI reports
    state: dict = field(default_factory=dict)          # values the ops keep
    layer: dict = field(default_factory=dict)          # traced passes only
    spans: list = field(default_factory=list)          # traced passes only


@dataclass
class Workload:
    name: str
    ops: list[Op]
    scratch_files: list[str] = field(default_factory=list)

    def reset(self) -> None:
        """Remove what a previous pass left, such as the catalog files."""
        for path in self.scratch_files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)


def run_cli(res: PassResult, argv: list[str]) -> dict:
    """Run ``clusterexp <argv>`` in-process and return its JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    res.counts["cli.output_bytes"] += len(text.encode())
    if code != cli.EXIT_OK:
        errors = [ln for ln in err.getvalue().splitlines()
                  if ln.startswith("error")]
        message = errors[-1] if errors else err.getvalue().strip()[-300:]
        raise ProgramFailed(f"exit {code}: {message}",
                            expected=code == cli.EXIT_NONCONV)
    report = json.loads(text)
    res.counts["catalog.hits"] += report["provenance"]["catalog_hits"]
    res.counts["catalog.misses"] += report["provenance"]["catalog_misses"]
    return report


def run_pass(workload: Workload, tracer=None, probe=None) -> PassResult:
    """Run every operation of the workload once, in order.  With a running
    speed.SpeedProbe, also time each operation at reference speed."""
    workload.reset()
    res = PassResult()
    t0 = time.perf_counter()
    for op in workload.ops:
        res.attempted += 1
        t_op = time.perf_counter()
        mark = probe.start() if probe is not None else None
        span = None
        if tracer is not None:
            tracer.op += 1
            span = tracer.open("harness." + op.name)
        try:
            op.run(res)
        except CheckFailed as exc:
            res.failures.append(Failure(op.name, "incorrect", str(exc)))
        except ProgramFailed as exc:
            res.failures.append(Failure(
                op.name, "failed" if exc.expected else "error", exc.reason))
        except NonConvergence as exc:
            res.failures.append(Failure(op.name, "failed",
                                        f"NonConvergence: {exc}"))
        except Exception as exc:   # one broken operation must not end the pass
            res.failures.append(Failure(
                op.name, "error", f"{type(exc).__name__}: {exc}",
                traceback.format_exc()))
        finally:
            if span is not None:
                tracer.close(span)
            res.op_walls.append(time.perf_counter() - t_op)
            if mark is not None:
                res.op_refs.append(probe.at_ref(mark))
    res.wall = time.perf_counter() - t0
    res.ref = sum(res.op_refs)
    return res


def _config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _virial_B(report: dict) -> dict[int, float]:
    return {int(n): float(v) for n, v in report["results"]["B_virial"].items()}


# ---------------------------------------------------------------------------
# exact-1d

SQUARE_WELL = {"kind": "square_well", "sigma": 1.0, "lam": 1.5,
               "epsilon": 1.0, "beta": 1.0, "dimension": 1}


def _exact_1d(workdir: str, seed: int) -> Workload:
    ops, catalogs = [], []
    for tag, potential, order, check in (
            ("hard-rods", {"kind": "hard_rods"}, 5,
             lambda B: oracles.check_hard_rod_virial(B, 5)),
            ("square-well", SQUARE_WELL, 4, oracles.check_square_well_virial)):
        catalog = os.path.join(workdir, f"catalog-{tag}.jsonl")
        catalogs.append(catalog)
        cfg = _config(workdir, f"{tag}.json", {
            "potential": potential, "order": order,
            "catalog": {"path": catalog}})

        def virial(res, cfg=cfg, tag=tag, check=check):
            B = _virial_B(run_cli(res, ["virial", "--config", cfg]))
            res.state[tag] = B
            check(B)

        def eos(res, cfg=cfg, tag=tag):
            report = run_cli(res, ["eos", "--config", cfg])
            if tag not in res.state:
                raise CheckFailed("no virial output in this pass to compare with")
            oracles.check_eos_matches_virial(
                [float(c) for c in report["results"]["pressure_of_density"]],
                res.state[tag], report["provenance"]["catalog_misses"])

        ops += [Op(f"virial {tag}", virial), Op(f"eos {tag}", eos)]

    r = math.sqrt(2.0)

    def h2(res):
        s = correlations.h_n_density(hard_rods(), 2, [0.0, r], 3)
        oracles.check_hard_rod_h2(s.values, r)

    def canonical_log_z(res):
        exp = canonical.canonical_free_energy(hard_rods(), 10, 20.0, 3)
        oracles.check_canonical_b_star(
            {k: t["B_star"] for k, t in exp.coefficients.items()}, 3)

    ops += [Op("h2 hard-rods r=sqrt2", h2),
            Op("canonical hard-rods N=10 L=20", canonical_log_z)]
    return Workload("exact-1d", ops, catalogs)


# ---------------------------------------------------------------------------
# mc-3d

MC_SAMPLES = 5000


def _mc_3d(workdir: str, seed: int) -> Workload:
    cfg = _config(workdir, "hard-spheres.json", {
        "potential": {"kind": "hard_spheres", "sigma": 1.0, "dimension": 3},
        "order": 5, "mc": {"samples": MC_SAMPLES}})

    def virial(res):
        report = run_cli(res, ["virial", "--config", cfg, "--seed", str(seed)])
        B = _virial_B(report)
        # B_{k+1} = -k/(k+1) beta_k, so the errors scale the same way
        err = {int(k) + 1: int(k) / (int(k) + 1) * float(b["std_error"])
               for k, b in report["results"]["beta"].items()}
        res.state["B"], res.state["err"] = B, err
        oracles.check_hard_sphere_virial(B, err)

    return Workload("mc-3d", [Op(f"virial hard-spheres d=3 seed={seed}", virial)])


# ---------------------------------------------------------------------------
# py-sweep

PY_DENSITIES = [("hard_spheres", rho) for rho in (0.2, 0.3, 0.4, 0.6, 0.8)] + \
               [("hard_rods", rho) for rho in (0.3, 0.5, 0.7)]
# The densities at which the solver converges in clusterexp 0.1.0.  The
# py.*_relerr metrics take their maximum over these only, so that a change
# which makes another density converge does not raise them.
PY_CONVERGED_AT_BASELINE = {("hard_spheres", 0.2), ("hard_spheres", 0.3),
                            ("hard_rods", 0.3), ("hard_rods", 0.5)}
PY_MAX_ITER = 2000


def _py_sweep(workdir: str, seed: int) -> Workload:
    ops = []
    for kind, rho in PY_DENSITIES:
        potential = {"kind": kind, "sigma": 1.0}
        if kind == "hard_spheres":
            potential["dimension"] = 3
        cfg = _config(workdir, f"ozpy-{kind}-{rho}.json", {
            "potential": potential, "rho": rho, "max_iter": PY_MAX_ITER})

        def solve(res, cfg=cfg, kind=kind, rho=rho):
            report = run_cli(res, ["ozpy", "--config", cfg])
            thermo = report["results"]["runs"][0]["thermodynamics"]
            if (kind, rho) in PY_CONVERGED_AT_BASELINE:
                res.state.setdefault("relerr", []).append(
                    oracles.py_relative_errors(kind, rho, thermo))
            oracles.check_py_virial(kind, rho, thermo)

        ops.append(Op(f"ozpy {kind} rho={rho}", solve))
    return Workload("py-sweep", ops)


# ---------------------------------------------------------------------------
# combinatorics

TBAR_ORDER = 6


def _combinatorics(workdir: str, seed: int) -> Workload:
    ops = []
    for cls, want in oracles.CENSUS_6.items():
        def census(res, cls=cls, want=want):
            report = run_cli(res, ["graphs", "--n", "6", "--class", cls,
                                   "--count"])
            oracles.check_count(f"{cls} graphs on 6 vertices",
                                report["results"]["count"], want)
        ops.append(Op(f"graphs n=6 {cls}", census))

    def bicolored(res):
        n = sum(1 for _ in graphs.enumerate_bicolored(
            2, 4, graphs.GraphClass.ARTICULATION_FREE))
        oracles.check_count("articulation-free graphs, 2 white 4 black", n,
                            oracles.ARTICULATION_FREE_2_4)

    def tbar(res):
        kernels = {n: Fraction(-math.factorial(n - 1))
                   for n in range(1, TBAR_ORDER + 1)}
        s = series.enriched_tree_invert(kernels, TBAR_ORDER)
        oracles.check_tbar_alternating(s.coefficients, TBAR_ORDER)

    ops += [Op("bicolored 2+4 articulation-free", bicolored),
            Op(f"enriched-tree inversion K={TBAR_ORDER}", tbar)]
    return Workload("combinatorics", ops)


FACTORIES = {
    "exact-1d": _exact_1d,
    "mc-3d": _mc_3d,
    "py-sweep": _py_sweep,
    "combinatorics": _combinatorics,
}


def build(name: str, workdir: str, seed: int) -> Workload:
    """The named workload, with its config files written to ``workdir``."""
    return FACTORIES[name](workdir, seed)
