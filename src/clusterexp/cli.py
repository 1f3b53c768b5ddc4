"""Command-line driver.

Subcommands: graphs, virial, eos, radius, canonical, correlations, ozpy,
catalog-gc.  Configuration comes from a JSON file (--config) with sections
mirroring the library modules; unknown keys are rejected so that typos
cannot silently change a run.  All floating-point output is printed with 17
significant digits.

Exit codes: 0 success, 2 schema violation, 3 enumeration/order cap
exceeded, 4 nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from collections.abc import Iterable
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .catalog import (CODE_VERSION, CatalogKey, CoefficientTable, estimator_name,
                      potential_hash)
from .catalog import gc as catalog_gc
from .canonical import (canonical_free_energy, direct_logZ_oracle,
                        oracle_method)
from .coefficients import irreducible_beta_n, mayer_b_n
from .convergence import activity_radius, canonical_radius
from .correlations import h_n_density
from .graphs import EnumerationTooLarge, GraphClass, dump_lines
from .ozpy import (NonConvergence, RadialGrid, oz_selfconsistency, solve_py,
                   thermodynamics)
from .potentials import (hard_rods, hard_spheres, lennard_jones, square_well,
                         zero_potential)
from .series import eos_and_free_energy, log_activity_of_density
from .weights import count_graphs, resolve_method
# Unused here: bench/tracing.py wraps this name in this module, and its
# --trace 1 runs fail at install without it.
from .graphs import enumerate_graphs  # noqa: F401

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_NONCONV = 4


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization: every float as %.17g for round-trip fidelity

def _fmt_float(x: float) -> str:
    """17 significant digits; nan, inf and -inf as those words."""
    return format(x, ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        text = _fmt_float(float(obj))
        # JSON has no literal for nan or inf: those go as strings
        return text if math.isfinite(obj) else json.dumps(text)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(isinstance(v, (bool, int, float, np.integer, np.floating))
               for v in seq):
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        if all(isinstance(v, str) for v in seq):
            # what json.dumps does with a str, without its per-call cost
            items = [inner + text for text in map(encode_basestring_ascii, seq)]
        else:
            items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    return _fmt_float(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def to_csv(columns: dict[str, Iterable]) -> str:
    names = list(columns)
    rows = zip(*(columns[n] for n in names))
    lines = [",".join(names)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-out-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# config validation

def _int_field(value, name: str, minimum: int | None = None) -> int:
    """A config integer: a JSON integer, or a number with no fractional
    part.  A string, a bool, 2.7 or a value below ``minimum`` is a
    SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            (isinstance(value, float) and not value.is_integer()):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"need {name} >= {minimum}, got {value!r}")
    return int(value)


def _float_field(value, name: str) -> float:
    """A config real number: a JSON integer or float.  A string or a bool
    is a SchemaError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return float(value)


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")


_POTENTIAL_KEYS = {
    "hard_rods": {"sigma", "beta"},
    "hard_spheres": {"sigma", "beta", "dimension"},
    "square_well": {"sigma", "lam", "epsilon", "beta", "dimension"},
    "lennard_jones": {"sigma", "epsilon", "beta", "cutoff", "dimension"},
    "zero": {"beta", "dimension"},
}
_POTENTIAL_FACTORIES = {
    "hard_rods": hard_rods,
    "hard_spheres": hard_spheres,
    "square_well": square_well,
    "lennard_jones": lennard_jones,
    "zero": zero_potential,
}


def potential_from_config(section) -> "Potential":
    if not isinstance(section, dict):
        raise SchemaError("potential section must be an object")
    kind = section.get("kind")
    if kind not in _POTENTIAL_FACTORIES:
        raise SchemaError(f"unknown potential kind {kind!r}; "
                          f"expected one of {sorted(_POTENTIAL_FACTORIES)}")
    params = {k: v for k, v in section.items() if k != "kind"}
    _check_keys(params, _POTENTIAL_KEYS[kind], f"potential ({kind})")
    try:
        return _POTENTIAL_FACTORIES[kind](**params)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad potential parameters: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise SchemaError("config root must be an object")
    return cfg


def _mc_section(cfg: dict, seed_flag: int | None) -> dict:
    mc = cfg.get("mc", {})
    _check_keys(mc, {"samples", "seed"}, "mc")
    samples = _int_field(mc.get("samples", 100_000), "mc.samples", 1)
    seed = seed_flag if seed_flag is not None else mc.get("seed")
    return {"samples": samples,
            "seed": None if seed is None else _int_field(seed, "mc.seed", 0)}


def _require_seed(mc: dict, p, method: str) -> int:
    # seed is mandatory whenever the Monte Carlo path is active
    if resolve_method(p, method) == "mc" and mc["seed"] is None:
        raise SchemaError("Monte Carlo evaluation requires --seed "
                          "(or mc.seed in the config)")
    return mc["seed"] or 0


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, csv_columns or None,
# catalog or None)

_Result = tuple[dict, dict | None, CoefficientTable | None]

_GRAPH_CLASSES = {
    "all": GraphClass.ALL,
    "connected": GraphClass.CONNECTED,
    "biconnected": GraphClass.BICONNECTED,
    "tree": GraphClass.TREE,
}


def _cmd_graphs(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"n", "class", "count"}, "graphs config")
    n = args.n if args.n is not None else cfg.get("n")
    cls_name = args.graph_class or cfg.get("class", "connected")
    count_only = args.count or bool(cfg.get("count", False))
    if n is None:
        raise SchemaError("graphs needs --n or config key 'n'")
    n = _int_field(n, "n", 1)
    if cls_name not in _GRAPH_CLASSES:
        raise SchemaError(f"unknown graph class {cls_name!r}")
    cls = _GRAPH_CLASSES[cls_name]
    payload: dict = {"n": n, "class": cls_name}
    if count_only:
        payload["count"] = count_graphs(n, cls)
    else:
        lines = list(dump_lines(n, cls))
        payload.update(count=len(lines), graphs=lines)
    return payload, None, None


def _coefficient_table(p, kind: str, orders: range, mc: dict, method: str,
                       cat: CoefficientTable) -> dict:
    """The coefficients ``kind`` ("b_n" or "beta_n") at ``orders``,
    through the catalog."""
    seed = _require_seed(mc, p, method)
    estimator = estimator_name(resolve_method(p, method), mc["samples"], seed)
    ph = potential_hash(p)
    compute = mayer_b_n if kind == "b_n" else irreducible_beta_n
    return {n: cat.get_or_compute(
                CatalogKey(ph, p.beta, n, kind, estimator),
                lambda n=n: compute(p, n, method, mc["samples"], seed))
            for n in orders}


def _cmd_virial(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"potential", "order", "method", "mc", "catalog"},
                "virial config")
    p = potential_from_config(cfg.get("potential", {"kind": "hard_rods"}))
    K = _int_field(args.order if args.order is not None else cfg.get("order", 3),
                   "order", 1)
    method = cfg.get("method", "auto")
    mc = _mc_section(cfg, args.seed)
    cat = CoefficientTable(cfg.get("catalog", {}).get("path"))
    bs = _coefficient_table(p, "b_n", range(1, K + 1), mc, method, cat)
    betas = _coefficient_table(p, "beta_n", range(1, K), mc, method, cat)
    eos = eos_and_free_energy({k: est.value for k, est in betas.items()}, K)
    payload = {
        "potential": p.label(),
        "order": K,
        "b": {str(n): asdict(est) for n, est in bs.items()},
        "beta": {str(k): asdict(est) for k, est in betas.items()},
        "B_virial": {str(n): float(v)
                     for n, v in eos["virial_coefficients"].items()},
    }
    return payload, None, cat


def _cmd_eos(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"potential", "order", "method", "mc", "catalog"},
                "eos config")
    p = potential_from_config(cfg.get("potential", {"kind": "hard_rods"}))
    K = _int_field(args.order if args.order is not None else cfg.get("order", 3),
                   "order", 1)
    method = cfg.get("method", "auto")
    mc = _mc_section(cfg, args.seed)
    cat = CoefficientTable(cfg.get("catalog", {}).get("path"))
    betas = _coefficient_table(p, "beta_n", range(1, K), mc, method, cat)
    eos = eos_and_free_energy({k: est.value for k, est in betas.items()}, K)
    logz = log_activity_of_density({k: est.value for k, est in betas.items()}, K)
    payload = {
        "potential": p.label(),
        "order": K,
        "pressure_of_density": [float(c) for c in
                                eos["pressure_of_density"].coefficients],
        "free_energy_series": [float(c) for c in
                               eos["free_energy_series"].coefficients],
        "free_energy_symbolic": eos["free_energy_symbolic"],
        "log_activity_minus_log_density": [float(c) for c in logz.coefficients],
    }
    return payload, None, cat


def _cmd_radius(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"potential"}, "radius config")
    p = potential_from_config(cfg.get("potential", {"kind": "hard_rods"}))
    act = activity_radius(p)
    can = canonical_radius(p)
    payload = {
        "potential": p.label(),
        "activity": asdict(act),
        "canonical": asdict(can),
        "z_max": act.bound_value,
        "rho_C_max": can.bound_value,
        "log_z_max": act.log_bound,
        "log_rho_C_max": can.log_bound,
    }
    return payload, None, None


def _cmd_canonical(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"potential", "N", "L", "K", "truncation", "oracle", "mc"},
                "canonical config")
    p = potential_from_config(cfg.get("potential", {"kind": "hard_rods"}))
    try:
        N, L = _int_field(cfg["N"], "N"), _float_field(cfg["L"], "L")
        K = _int_field(cfg["K"], "K")
    except KeyError as exc:
        raise SchemaError(f"canonical config needs key {exc}") from exc
    trunc = cfg.get("truncation")
    if trunc is not None:
        trunc = _int_field(trunc, "truncation")
    exp = canonical_free_energy(p, N, L, K, truncation=trunc)
    payload = {
        "potential": p.label(),
        "N": N, "L": L, "K": K,
        "expansion": {
            "coefficients": {str(k): t for k, t in exp.coefficients.items()},
            "log_z": exp.log_z,
            "remainder_estimate": exp.remainder_estimate,
            "within_certificate": exp.within_certificate,
        },
    }
    if cfg.get("oracle", True):
        mc = _mc_section(cfg, args.seed)
        if oracle_method(p, N, "auto") == "mc" and mc["seed"] is None:
            raise SchemaError(f"oracle for N = {N} is Monte Carlo; "
                              "--seed required")
        oracle = direct_logZ_oracle(p, N, L, n_samples=mc["samples"],
                                    seed=mc["seed"] or 0)
        payload["oracle"] = asdict(oracle)
        payload["expansion_minus_oracle"] = exp.log_z - oracle.value
    return payload, None, None


def _cmd_correlations(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"potential", "n", "K", "r_min", "r_max", "n_r",
                      "r_values", "method", "mc"}, "correlations config")
    p = potential_from_config(cfg.get("potential", {"kind": "hard_rods"}))
    n = _int_field(cfg.get("n", 2), "n")
    K = _int_field(cfg.get("K", 1), "K")
    method = cfg.get("method", "auto")
    mc = _mc_section(cfg, args.seed)
    seed = _require_seed(mc, p, method)
    if "r_values" in cfg:
        if not isinstance(cfg["r_values"], list):
            raise SchemaError(f"r_values must be a list, got {cfg['r_values']!r}")
        rs = [_float_field(r, "r_values item") for r in cfg["r_values"]]
    else:
        r_min = _float_field(cfg.get("r_min", 0.1), "r_min")
        r_max = _float_field(cfg.get("r_max", 3.0), "r_max")
        n_r = _int_field(cfg.get("n_r", 30), "n_r", 1)
        rs = list(np.linspace(r_min, r_max, n_r))
    if n != 2:
        raise SchemaError("r-grid output is defined for the pair function "
                          "(n = 2)")
    orders: list[list[float]] = [[] for _ in range(K + 1)]
    errs: list[list[float]] = [[] for _ in range(K + 1)]
    for r in rs:
        s = h_n_density(p, 2, [0.0, r], K, method=method,
                        n_samples=mc["samples"], seed=seed)
        for k in range(K + 1):
            orders[k].append(float(s.values[k]))
            errs[k].append(float(s.std_errors[k]))
    columns = {"r": rs}
    for k in range(K + 1):
        columns[f"order{k}"] = orders[k]
    payload = {
        "potential": p.label(),
        "quantity": "h2_density_orders",
        "r": rs,
        "orders": orders,
        "std_errors": errs,
    }
    return payload, columns, None


def _cmd_ozpy(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"potential", "rho", "grid", "tol", "alpha", "max_iter"},
                "ozpy config")
    p = potential_from_config(cfg.get("potential", {"kind": "hard_spheres"}))
    if "rho" not in cfg:
        raise SchemaError("ozpy config needs 'rho'")
    rhos = [_float_field(rho, "rho") for rho in
            (cfg["rho"] if isinstance(cfg["rho"], list) else [cfg["rho"]])]
    gcfg = cfg.get("grid", {})
    _check_keys(gcfg, {"dr", "n_points", "dimension"}, "ozpy grid")
    default = RadialGrid()
    grid = RadialGrid(dr=_float_field(gcfg.get("dr", default.dr), "grid.dr"),
                      n_points=_int_field(gcfg.get("n_points", default.n_points),
                                          "grid.n_points"),
                      dimension=_int_field(gcfg.get("dimension", p.dimension),
                                           "grid.dimension"))
    tol = _float_field(cfg.get("tol", 1e-10), "tol")
    alpha = _float_field(cfg.get("alpha", 0.5), "alpha")
    max_iter = _int_field(cfg.get("max_iter", 20_000), "max_iter", 1)
    runs = []
    sol = None
    for rho in rhos:
        try:
            sol = solve_py(p, rho, grid=grid, alpha=alpha, tol=tol,
                           max_iter=max_iter)
        except NonConvergence as exc:
            exc.args = (f"{exc}; rho = {rho}",)
            raise
        runs.append({
            "rho": rho,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "residual_history": sol.residual_history,
            "negative_g": sol.negative_g,
            "oz_selfconsistency": oz_selfconsistency(p, sol),
            "thermodynamics": thermodynamics(p, sol),
        })
    # CSV carries the profile of the last density
    columns = None if sol is None else {"r": grid.r, "g": sol.g, "h": sol.h,
                                        "c": sol.c, "t": sol.t, "y": sol.y}
    payload = {"potential": p.label(),
               "grid": {"dr": grid.dr, "n_points": grid.n_points,
                        "dimension": grid.dimension},
               "tol": tol,
               "runs": runs}
    return payload, columns, None


def _cmd_catalog_gc(cfg: dict, args) -> _Result:
    _check_keys(cfg, {"path", "catalog"}, "catalog-gc config")
    path = cfg.get("path") or cfg.get("catalog", {}).get("path")
    if path is None:
        raise SchemaError("catalog-gc needs a catalog 'path'")
    if not os.path.exists(path):
        return {"path": path, "kept": 0, "stale": 0, "corrupt": 0,
                "inconsistent": 0, "note": "no catalog file; no-op"}, None, None
    stats = catalog_gc(path)
    return {"path": path, **stats}, None, None


_HANDLERS = {
    "graphs": _cmd_graphs,
    "virial": _cmd_virial,
    "eos": _cmd_eos,
    "radius": _cmd_radius,
    "canonical": _cmd_canonical,
    "correlations": _cmd_correlations,
    "ozpy": _cmd_ozpy,
    "catalog-gc": _cmd_catalog_gc,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterexp",
        description="Cluster/virial expansion toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed (mandatory for Monte Carlo paths)")
        sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "graphs":
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--class", dest="graph_class", default=None)
            sp.add_argument("--count", action="store_true")
        if name in ("virial", "eos"):
            sp.add_argument("--order", type=int, default=None)
    return parser


def run(args) -> tuple[str, int]:
    """Dispatch one parsed invocation; returns (output text, exit code)."""
    cfg = _load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise SchemaError("--seed must be a nonnegative integer")
    t0 = time.perf_counter()
    payload, columns, cat = _HANDLERS[args.subcommand](cfg, args)
    wall = time.perf_counter() - t0
    if args.format == "csv":
        if columns is None:
            raise SchemaError(
                f"subcommand {args.subcommand!r} has no CSV table output")
        return to_csv(columns), EXIT_OK
    report = {
        "inputs": {"subcommand": args.subcommand, "config": cfg,
                   "seed": args.seed},
        "results": payload,
        "provenance": {
            "code_version": CODE_VERSION,
            "catalog_hits": cat.hits if cat is not None else 0,
            "catalog_misses": cat.misses if cat is not None else 0,
            "wall_time_s": wall,
        },
    }
    return dumps(report) + "\n", EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = run(args)
    except EnumerationTooLarge as exc:
        print(f"error (cap): {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        # a SchemaError, or a library ValueError on a value the schema
        # admits; the class name tells a bug that lands here from a config
        print(f"error (schema): {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except NonConvergence as exc:
        print(f"error (nonconvergence): {exc}", file=sys.stderr)
        return EXIT_NONCONV
    if args.out is not None:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
