"""Benchmark for clusterexp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; clusterexp is imported from its
``src`` directory, never from an installed copy.  The run is one process
with BLAS/OpenMP pinned to one thread.  It repeats passes over the
workload (see workloads.py) in a closed loop while the next pass is
expected to end within S seconds, and always runs at least MIN_PASSES.
The seed is recorded with the results; mc-3d passes it to
``virial --seed``, and the other workloads do not depend on it.  For a
holdout check, rerun with a seed that no change was tuned on.

--trace 0 reports the end-to-end metrics that BENCHMARK.json lists:
pass_ref_s (median over passes of the CPU time of a pass at reference
speed; see speed.py), setup_s (median over fresh interpreters of the CPU
time, at reference speed, from process start until the first operation
could run: the clusterexp import plus building the inputs) and
peak_rss_mb.  wall_s, the median wall time of a pass, is printed too; it
is not declared, because on a shared host it spreads between runs by
more than any bound that would still catch a regression.  --trace 1
alternates untraced and traced passes (at least one of each) and reports
the per-layer metrics of tracing.py, medians over the traced passes, with
trace.overhead_s = traced minus untraced wall_s.

Every metric, the failed operations with their reasons and a record of the
environment are printed first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"} holding the metrics that
BENCHMARK.json declares for the mode.  The same record goes to
.bench_out/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import PROCESS_START, SpeedProbe

T_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
# Untraced passes per run at least, even past --seconds: single passes of
# exact-1d vary by up to a quarter between runs on a shared 2-core machine.
MIN_PASSES = 2
WORKLOADS = ("exact-1d", "mc-3d", "py-sweep", "combinatorics")


def _prepare_imports() -> float:
    """Pin threads, import clusterexp from ROOT/src and return the seconds
    the import took."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    t0 = time.perf_counter()
    import clusterexp
    took = time.perf_counter() - t0
    where = Path(clusterexp.__file__).resolve().parent.parent
    if where != (ROOT / "src").resolve():
        raise SystemExit(f"clusterexp was imported from {where}, "
                         f"not from {ROOT / 'src'}")
    return took


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: do the set-up of a run, then print the CPU seconds it
    took since the process started, at reference speed, and exit."""
    with SpeedProbe() as probe:
        _prepare_imports()
        import workloads
        OUT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            workloads.build(workload, workdir, seed)
            print(f"ready {probe.at_ref(PROCESS_START)!r}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of a fresh interpreter at reference speed, once per
    probe."""
    times = []
    argv = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            word, _, took = proc.stdout.readline().partition(" ")
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or word != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(float(took))
    return times


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of ROOT's git repository, read from .git without running git;
    None in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_window(workload, seconds: float, tracer, probe) -> tuple[list, list]:
    """Passes in a closed loop: (untraced passes, traced passes)."""
    from tracing import layer_metrics
    from workloads import run_pass
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.install()
            try:
                res = run_pass(workload, tracer)
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            res.layer = layer_metrics(spans, counts + res.counts, res.wall)
            res.spans = spans
            traced.append(res)
        else:
            untraced.append(run_pass(workload, probe=probe))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - t0
        if tracer is None:
            enough = len(untraced) >= MIN_PASSES
        else:
            enough = bool(traced)
        if enough and elapsed + elapsed / done > seconds:
            return untraced, traced


def workload_metrics(name: str, passes, wall: float) -> dict[str, tuple]:
    """Metrics a user of one workload sees besides time and memory."""
    import oracles
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    m = {"ops_failed_frac": (failed / attempted, "frac")}
    last = passes[-1].state
    if name == "mc-3d" and "err" in last:
        for n in (4, 5):
            ref = oracles.HARD_SPHERE_RATIOS[n] * oracles.HARD_SPHERE_B2 ** (n - 1)
            m[f"time_to_1pct.B{n}_s"] = (
                wall * (last["err"][n] / (0.01 * abs(ref))) ** 2, "s")
    if name == "py-sweep" and last.get("relerr"):
        m["py.virial_relerr"] = (max(e[0] for e in last["relerr"]), "frac")
        m["py.compress_relerr"] = (max(e[1] for e in last["relerr"]), "frac")
    return m


def _median_layers(passes) -> dict[str, tuple]:
    return {k: (statistics.median(p.layer[k][0] for p in passes), unit)
            for k, (_, unit) in passes[0].layer.items()}


def _write_spans(path: Path, passes) -> None:
    with open(path, "w") as fh:
        for i, p in enumerate(passes):
            for span in p.spans:
                fh.write(json.dumps([i] + span) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; mc-3d passes it to virial --seed")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = _prepare_imports()
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = workloads.build(args.workload, workdir, args.seed)
        if args.trace:
            setup, probe = [], None
            untraced, traced = run_window(wl, args.seconds, Tracer(), None)
        else:
            setup = measure_setup(args.workload, args.seed)
            with SpeedProbe() as probe:
                untraced, traced = run_window(wl, args.seconds, None, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    wall = statistics.median(p.wall for p in untraced)
    metrics = workload_metrics(args.workload, passes, wall)
    if args.trace:
        layer = _median_layers(traced)
        layer["setup.import_s"] = (import_s, "s")
        layer["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced) - wall, "s")
        metrics.update(layer)
        wanted = declared["per_layer"]
    else:
        metrics["pass_ref_s"] = (statistics.median(p.ref for p in untraced), "s")
        metrics["wall_s"] = (wall, "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        wanted = declared["end_to_end"]

    failures = [(i, f) for i, p in enumerate(passes) for f in p.failures]
    correct = all(f.kind == "failed" for _, f in failures)
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "pass_walls": {"untraced": [p.wall for p in untraced],
                       "traced": [p.wall for p in traced]},
        "pass_refs": [p.ref for p in untraced] if probe else [],
        "op_walls": {op.name: [p.op_walls[i] for p in passes]
                     for i, op in enumerate(wl.ops)},
        "op_refs": {op.name: [p.op_refs[i] for p in untraced]
                    for i, op in enumerate(wl.ops)} if probe else {},
        "reference_loop_s": {"median": statistics.median(probe.samples),
                             "samples": len(probe.samples),
                             "handler_s": probe.spent} if probe else {},
        "setup_probes_s": setup,
        "failures": [{"pass": i, "op": f.op, "kind": f.kind,
                      "reason": f.reason, "detail": f.detail}
                     for i, f in failures],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        _write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", traced)

    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(untraced)} untraced, {len(traced)} traced  "
          f"run {time.perf_counter() - T_START:.1f} s")
    print("environment " + json.dumps(env))
    for i, f in failures:
        print(f"{f.kind.upper():9s} pass {i} {f.op}: {f.reason}")
    for k in sorted(metrics):
        v, u = metrics[k]
        print(f"  {k:34s} {v:>16.6g} {u}")

    out = {}
    for m in wanted:
        value, unit = metrics.get(m["name"], (None, None))
        if unit != m["unit"]:
            raise RuntimeError(f"metric {m['name']}: measured unit {unit!r}, "
                               f"BENCHMARK.json says {m['unit']!r}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": sum(p.attempted for p in passes),
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
