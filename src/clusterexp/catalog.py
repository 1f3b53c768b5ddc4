"""Persistent coefficient catalog: append-only JSON-lines records keyed by
(potential hash, beta, order, kind, estimator) plus the code version.

Records are immutable once written.  Re-inserting an existing key is only
allowed when the value agrees with the stored one within the combined
statistical tolerance; disagreement raises.  ``gc`` rewrites the file,
dropping records from other code versions and quarantining corrupt lines.
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
    JSON-lines persistence.  Duplicate keys must be value-consistent.
    ``hits`` and ``misses`` count the lookups of ``get_or_compute``."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._data: dict[CatalogKey, CoefficientEstimate] = {}
        if path is not None and os.path.exists(path):
            for key, est in iter_records(path):
                if key.version == CODE_VERSION:
                    self._data[key] = est

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


def iter_records(path: str):
    """Yield (key, estimate) for every parseable line; skip corrupt ones."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield _parse_line(line)
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                continue


def gc(path: str) -> dict:
    """Rewrite the catalog keeping only records of ``CODE_VERSION``.

    Corrupt lines go to ``path + '.quarantine'``.  Later records win on
    duplicate keys only if consistent; inconsistent later duplicates are
    quarantined too.  Returns counts {kept, stale, corrupt, inconsistent}.
    """
    kept: dict[CatalogKey, CoefficientEstimate] = {}
    stats = {"kept": 0, "stale": 0, "corrupt": 0, "inconsistent": 0}
    quarantine: list[str] = []
    if not os.path.exists(path):
        return stats
    with open(path) as fh:
        for line in fh:
            raw = line.strip()
            if not raw:
                continue
            try:
                key, est = _parse_line(raw)
            except (ValueError, KeyError, TypeError, json.JSONDecodeError):
                stats["corrupt"] += 1
                quarantine.append(raw)
                continue
            if key.version != CODE_VERSION:
                stats["stale"] += 1
                continue
            prior = kept.get(key)
            if prior is not None and not _consistent(prior, est):
                stats["inconsistent"] += 1
                quarantine.append(raw)
                continue
            kept[key] = est
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for key, est in kept.items():
            fh.write(json.dumps(_record_dict(key, est)) + "\n")
    os.replace(tmp, path)
    if quarantine:
        with open(path + ".quarantine", "a") as fh:
            for raw in quarantine:
                fh.write(raw + "\n")
    stats["kept"] = len(kept)
    return stats
