"""Persistent coefficient catalog: append-only JSON-lines records keyed by
(potential hash, beta, order, kind, estimator) plus the code version.

Records are immutable once written: the first record of a key is the
record.  A later record of the key that agrees with it within the combined
statistical tolerance is dropped, and one that does not is rejected:
``insert`` raises, the table loading a file skips it and ``gc``
quarantines it beside the corrupt lines.  ``gc`` also drops the records of
other code versions.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from .potentials import Potential
from .weights import CoefficientEstimate

CODE_VERSION = "0.1.0"

KINDS = ("b_n", "beta_n")


def potential_hash(p: Potential) -> str:
    payload = json.dumps(p.label(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def estimator_name(method: str, samples: int, seed: int) -> str:
    """The estimator a key asks for: the resolved method and, for Monte
    Carlo, the requested sample count and seed.  "mc-class-absf" names
    Mayer sampling of whole class sums with tree edges drawn from |f|:
    ``samples`` configurations per coefficient, from a stream derived from
    ``seed``.  Records keyed "mc ..." (per-graph estimates) or "mc-class
    ..." (edges drawn from fbar, which differs from |f| for the square
    well and Lennard-Jones) never answer it."""
    return f"mc-class-absf samples={samples} seed={seed}" if method == "mc" else method


@dataclass(frozen=True)
class CatalogKey:
    potential_hash: str
    beta: float
    order: int
    kind: str
    estimator: str
    version: str = CODE_VERSION

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")


def _consistent(a: CoefficientEstimate, b: CoefficientEstimate) -> bool:
    tol = 3.0 * (a.std_error + b.std_error) + 1e-9
    return abs(a.value - b.value) <= tol


class CoefficientTable:
    """In-memory keyed map of coefficient estimates with optional
    JSON-lines persistence, under the rule above: a key keeps its first
    value, and a disagreeing later one raises in ``insert``.
    ``hits`` and ``misses`` count the lookups of ``get_or_compute``."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._data = _read(path)[0] if path is not None else {}

    def __len__(self):
        return len(self._data)

    def __contains__(self, key: CatalogKey):
        return key in self._data

    def get(self, key: CatalogKey) -> CoefficientEstimate | None:
        return self._data.get(key)

    def insert(self, key: CatalogKey, est: CoefficientEstimate) -> None:
        prior = self._data.get(key)
        if prior is not None:
            if not _consistent(prior, est):
                raise ValueError(
                    f"inconsistent duplicate for {key}: {prior.value} vs {est.value}")
            return
        self._data[key] = est
        if self.path is not None:
            append_record(self.path, key, est)

    def get_or_compute(self, key: CatalogKey, compute) -> CoefficientEstimate:
        est = self._data.get(key)
        if est is not None:
            self.hits += 1
            return est
        self.misses += 1
        est = compute()
        self.insert(key, est)
        return est


def _record_dict(key: CatalogKey, est: CoefficientEstimate) -> dict:
    d = asdict(key)
    d.update(asdict(est))
    return d


def append_record(path: str, key: CatalogKey, est: CoefficientEstimate) -> None:
    with open(path, "a") as fh:
        fh.write(json.dumps(_record_dict(key, est)) + "\n")


def _parse_line(line: str):
    d = json.loads(line)
    key = CatalogKey(d.pop("potential_hash"), float(d.pop("beta")),
                     int(d.pop("order")), d.pop("kind"), d.pop("estimator"),
                     d.pop("version"))
    est = CoefficientEstimate(float(d["value"]), float(d["std_error"]),
                              d["method"], int(d.get("samples", 0)),
                              int(d.get("seed", 0)))
    return key, est


def _read(path: str) -> tuple[dict, dict, list[str]]:
    """The records of ``CODE_VERSION`` in ``path`` by the rule above, the
    counts {kept, stale, corrupt, inconsistent}, and the rejected lines:
    the corrupt ones and the later records that disagree with the first of
    their key.  A missing file reads as empty."""
    records: dict[CatalogKey, CoefficientEstimate] = {}
    stats = {"kept": 0, "stale": 0, "corrupt": 0, "inconsistent": 0}
    rejected: list[str] = []
    if not os.path.exists(path):
        return records, stats, rejected
    with open(path) as fh:
        for line in fh:
            raw = line.strip()
            if not raw:
                continue
            try:
                key, est = _parse_line(raw)
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                stats["corrupt"] += 1
                rejected.append(raw)
                continue
            if key.version != CODE_VERSION:
                stats["stale"] += 1
                continue
            prior = records.get(key)
            if prior is None:
                records[key] = est
            elif not _consistent(prior, est):
                stats["inconsistent"] += 1
                rejected.append(raw)
    stats["kept"] = len(records)
    return records, stats, rejected


def gc(path: str) -> dict:
    """Rewrite the catalog with the records the table loads: those of
    ``CODE_VERSION``, first record of a key kept.  The rejected lines go to
    ``path + '.quarantine'``.  Returns the counts of ``_read``."""
    records, stats, rejected = _read(path)
    if not os.path.exists(path):
        return stats
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for key, est in records.items():
            fh.write(json.dumps(_record_dict(key, est)) + "\n")
    os.replace(tmp, path)
    if rejected:
        with open(path + ".quarantine", "a") as fh:
            for raw in rejected:
                fh.write(raw + "\n")
    return stats
