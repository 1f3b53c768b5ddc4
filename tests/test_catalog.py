import json

import pytest

from clusterexp.catalog import (
    CODE_VERSION,
    CatalogKey,
    CoefficientTable,
    append_record,
    estimator_name,
    gc,
    potential_hash,
)
from clusterexp.potentials import hard_rods, hard_spheres
from clusterexp.weights import CoefficientEstimate


def key(order=2, kind="b_n", version=CODE_VERSION, estimator="exact1d"):
    return CatalogKey(potential_hash(hard_rods()), 1.0, order, kind, estimator,
                      version)


def records(path):
    """The JSON records of a catalog file, one per line."""
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class TestKeys:
    def test_hash_distinguishes_potentials(self):
        assert potential_hash(hard_rods()) != potential_hash(hard_spheres())
        assert potential_hash(hard_rods()) == potential_hash(hard_rods())

    @pytest.mark.parametrize("kind", ["nonsense", "a_n"])
    def test_kind_validated(self, kind):
        with pytest.raises(ValueError):
            CatalogKey("aa", 1.0, 2, kind, "exact1d")

    def test_estimator_names_the_request(self):
        assert estimator_name("exact1d", 100_000, 4) == "exact1d"
        names = {estimator_name("mc", n, s) for n, s in
                 [(2000, 4), (2000, 9), (200_000, 4)]}
        assert len(names) == 3 and "exact1d" not in names

    def test_unseeded_monte_carlo_has_no_name(self):
        with pytest.raises(ValueError, match="needs a seed"):
            estimator_name("mc", 2000, None)
        # an exact estimate takes no seed
        assert estimator_name("exact1d", 2000, None) == "exact1d"


class TestTable:
    def test_insert_and_get(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        t = CoefficientTable(path)
        est = CoefficientEstimate(-1.0, 0.0, "exact1d")
        t.insert(key(), est)
        # round trip through the file
        t2 = CoefficientTable(path)
        assert t2.get(key()).value == -1.0

    def test_writes_only_records_it_reads_back(self, tmp_path):
        path = tmp_path / "cat.jsonl"
        t = CoefficientTable(str(path))
        # a record's samples and seed are read back with int()
        for samples, seed in [(2000, None), (2000.0, 4), (2000, "4")]:
            with pytest.raises(ValueError, match="must be an int"):
                t.insert(key(estimator=estimator_name("mc", 2000, 4)),
                         CoefficientEstimate(7.39, 0.01, "mc", samples, seed))
        assert not path.exists()
        est = CoefficientEstimate(7.39, 0.01, "mc", 2000, 4)
        t.insert(key(estimator=estimator_name("mc", 2000, 4)), est)
        assert CoefficientTable(str(path)).get(
            key(estimator=estimator_name("mc", 2000, 4))) == est

    def test_duplicate_consistent_is_deduplicated(self):
        t = CoefficientTable()
        t.insert(key(), CoefficientEstimate(-1.0, 0.1, "mc", 10))
        t.insert(key(), CoefficientEstimate(-1.05, 0.1, "mc", 10))
        assert len(t) == 1
        assert t.get(key()).value == -1.0

    def test_duplicate_inconsistent_raises(self):
        t = CoefficientTable()
        t.insert(key(), CoefficientEstimate(-1.0, 0.001, "mc", 10))
        with pytest.raises(ValueError):
            t.insert(key(), CoefficientEstimate(-2.0, 0.001, "mc", 10))

    def test_get_or_compute_calls_once(self):
        t = CoefficientTable()
        calls = []

        def compute():
            calls.append(1)
            return CoefficientEstimate(3.0, 0.0, "exact1d")

        assert t.get_or_compute(key(), compute).value == 3.0
        assert t.get_or_compute(key(), compute).value == 3.0
        assert len(calls) == 1
        assert (t.hits, t.misses) == (1, 1)

    def test_records_without_estimator_not_loaded(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        record = {"potential_hash": potential_hash(hard_rods()), "beta": 1.0,
                  "order": 3, "kind": "b_n", "version": CODE_VERSION,
                  "value": 0.99, "std_error": 0.01, "method": "mc",
                  "samples": 8000, "seed": 7}
        with open(path, "w") as fh:
            fh.write(json.dumps(record) + "\n")
        assert len(CoefficientTable(path)) == 0

    def test_stale_versions_not_loaded(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        append_record(path, key(version="0.0.1"),
                      CoefficientEstimate(9.0, 0.0, "exact1d"))
        t = CoefficientTable(path)
        assert len(t) == 0


class TestGc:
    def test_empty_catalog_noop(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        open(path, "w").close()
        stats = gc(path)
        assert stats == {"kept": 0, "stale": 0, "corrupt": 0, "inconsistent": 0}

    def test_mixed_version_prunes_only_stale(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        append_record(path, key(order=1), CoefficientEstimate(1.0, 0.0, "exact1d"))
        append_record(path, key(order=2, version="0.0.1"),
                      CoefficientEstimate(2.0, 0.0, "exact1d"))
        stats = gc(path)
        assert stats["kept"] == 1 and stats["stale"] == 1
        remaining = records(path)
        assert len(remaining) == 1
        assert remaining[0]["order"] == 1

    def test_corrupt_quarantined_not_deleted(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        append_record(path, key(order=1), CoefficientEstimate(1.0, 0.0, "exact1d"))
        with open(path, "a") as fh:
            fh.write("{this is not json\n")
        stats = gc(path)
        assert stats["corrupt"] == 1 and stats["kept"] == 1
        q = path + ".quarantine"
        with open(q) as fh:
            assert "not json" in fh.read()

    def test_duplicate_consistent_deduplicated(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        append_record(path, key(order=1), CoefficientEstimate(1.0, 0.1, "mc", 5))
        append_record(path, key(order=1), CoefficientEstimate(1.1, 0.1, "mc", 5))
        stats = gc(path)
        assert stats["kept"] == 1
        assert len(records(path)) == 1

    def test_duplicate_inconsistent_quarantined(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        append_record(path, key(order=1), CoefficientEstimate(1.0, 0.0001, "mc", 5))
        append_record(path, key(order=1), CoefficientEstimate(5.0, 0.0001, "mc", 5))
        stats = gc(path)
        assert stats["inconsistent"] == 1 and stats["kept"] == 1

    def test_table_skips_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        with open(path, "w") as fh:
            fh.write("garbage\n")
        append_record(path, key(order=3), CoefficientEstimate(1.5, 0.0, "exact1d"))
        t = CoefficientTable(path)
        assert len(t) == 1 and t.get(key(order=3)).value == 1.5


class TestFirstRecordRule:
    """The first record of a key is the record: the table loading a file,
    ``gc`` and ``insert`` keep it, drop a later record that agrees with it
    and reject one that does not."""

    def write(self, path, values, sigma):
        for v in values:
            append_record(path, key(order=1), CoefficientEstimate(v, sigma, "mc", 5))

    def served(self, path):
        return CoefficientTable(path).get(key(order=1)).value

    def test_disagreeing_second_record_is_rejected(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        self.write(path, [1.0, 2.0], 0.0)
        assert self.served(path) == 1.0
        stats = gc(path)
        assert stats == {"kept": 1, "stale": 0, "corrupt": 0, "inconsistent": 1}
        assert self.served(path) == 1.0
        assert [r["value"] for r in records(path)] == [1.0]
        assert [r["value"] for r in records(path + ".quarantine")] == [2.0]

    def test_records_compare_with_the_first_not_the_last(self, tmp_path):
        # 1.5 agrees with 1.0 and 2.0 with 1.5, but 2.0 not with 1.0
        path = str(tmp_path / "cat.jsonl")
        self.write(path, [1.0, 1.5, 2.0], 0.1)
        assert self.served(path) == 1.0
        stats = gc(path)
        assert stats["kept"] == 1 and stats["inconsistent"] == 1
        assert self.served(path) == 1.0
        assert [r["value"] for r in records(path + ".quarantine")] == [2.0]

    def test_agreeing_second_record_is_dropped(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        self.write(path, [1.0, 1.1], 0.1)
        assert self.served(path) == 1.0
        stats = gc(path)
        assert stats["kept"] == 1 and stats["inconsistent"] == 0
        assert self.served(path) == 1.0
        assert [r["value"] for r in records(path)] == [1.0]
        assert not (tmp_path / "cat.jsonl.quarantine").exists()

    def test_insert_keeps_the_loaded_record(self, tmp_path):
        path = str(tmp_path / "cat.jsonl")
        self.write(path, [1.0, 2.0], 0.0)
        t = CoefficientTable(path)
        t.insert(key(order=1), CoefficientEstimate(1.0, 0.0, "mc", 5))
        with pytest.raises(ValueError):
            t.insert(key(order=1), CoefficientEstimate(2.0, 0.0, "mc", 5))
        assert len(records(path)) == 2
