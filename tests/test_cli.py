import json
import math

import pytest

from clusterexp.catalog import CatalogKey, append_record, potential_hash
from clusterexp.cli import EXIT_CAP, EXIT_NONCONV, EXIT_OK, EXIT_SCHEMA, dumps, main, to_csv
from clusterexp.coefficients import irreducible_beta_n, mayer_b_n
from clusterexp.potentials import hard_rods, hard_spheres, square_well
from clusterexp.weights import CoefficientEstimate


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSerialization:
    def test_float_seventeen_digits(self):
        text = dumps({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip(self):
        payload = {"a": [1.5, 2, True, None], "b": {"c": "s"}}
        assert json.loads(dumps(payload)) == payload

    def test_nonfinite_floats_stay_valid_json(self):
        out = json.loads(dumps({"x": math.inf, "y": math.nan}))
        assert out["x"] == "inf" and out["y"] == "nan"

    def test_csv(self):
        text = to_csv({"r": [1.0, 2.0], "g": [0.5, 0.25]})
        lines = text.strip().splitlines()
        assert lines[0] == "r,g"
        assert lines[1] == "1,0.5"


class TestGraphsCommand:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, ["graphs", "--n", "3",
                                        "--class", "connected", "--count"])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["count"] == 4

    def test_dump_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["graphs", "--n", "2", "--class", "connected"])
        res = json.loads(out)["results"]
        # uncolored enumeration carries white_count = 0
        assert res["graphs"] == ["2 1 0-1 whites=0"]

    def test_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["graphs", "--n", "9", "--count"])
        assert code == EXIT_CAP
        assert "cap" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_is_schema_error(self, capsys, n):
        code, _, err = run_cli(capsys, ["graphs", "--n", n, "--count"])
        assert code == EXIT_SCHEMA
        assert "n >= 1" in err


class TestVirialAndEos:
    def test_tonks_virial(self, capsys):
        code, out, _ = run_cli(capsys, ["virial", "--order", "3"])
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert float(res["B_virial"]["2"]) == pytest.approx(1.0, abs=1e-9)
        assert float(res["B_virial"]["3"]) == pytest.approx(1.0, abs=1e-9)
        assert float(res["beta"]["1"]["value"]) == pytest.approx(-2.0, abs=1e-10)

    def test_eos_pressure_series(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "eos.json",
                           {"potential": {"kind": "hard_rods"}, "order": 4})
        code, out, _ = run_cli(capsys, ["eos", "--config", cfg])
        res = json.loads(out)["results"]
        assert res["pressure_of_density"][1:] == pytest.approx([1.0] * 4, abs=1e-9)

    def test_mc_requires_seed(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "hs.json",
                           {"potential": {"kind": "hard_spheres"}, "order": 2})
        code, _, err = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert "seed" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"orderr": 3})
        code, _, err = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert "orderr" in err
        cfg = write_config(tmp_path, "shards.json", {"mc": {"shards": 2}})
        code, _, err = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert "shards" in err

    def test_nonpositive_samples_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "hs.json",
                           {"potential": {"kind": "hard_spheres"}, "order": 2,
                            "mc": {"samples": 0, "seed": 1}})
        code, _, err = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert "samples" in err

    def test_unknown_method_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"method": "exact"})
        code, _, err = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert "unknown method" in err

    def test_unknown_potential_kind_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "bad.json",
                           {"potential": {"kind": "soft_disk"}})
        code, _, _ = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA


class TestFloatFields:
    """Every real-valued config field rejects strings, bools and nulls."""

    CASES = [
        ("canonical", {"N": 6, "L": "{}", "K": 2}, "L"),
        ("ozpy", {"rho": "{}"}, "rho"),
        ("ozpy", {"rho": [0.1, "{}"]}, "rho"),
        ("ozpy", {"rho": 0.1, "tol": "{}"}, "tol"),
        ("ozpy", {"rho": 0.1, "alpha": "{}"}, "alpha"),
        ("ozpy", {"rho": 0.1, "grid": {"dr": "{}"}}, "grid.dr"),
        ("correlations", {"r_min": "{}"}, "r_min"),
        ("correlations", {"r_max": "{}"}, "r_max"),
        ("correlations", {"r_values": [1.5, "{}"]}, "r_values item"),
    ]

    @staticmethod
    def fill(cfg, value):
        if isinstance(cfg, dict):
            return {k: TestFloatFields.fill(v, value) for k, v in cfg.items()}
        if isinstance(cfg, list):
            return [TestFloatFields.fill(v, value) for v in cfg]
        return value if cfg == "{}" else cfg

    @pytest.mark.parametrize("value", ["abc", True, None])
    @pytest.mark.parametrize("command,cfg,field", CASES,
                             ids=[f"{c}-{f}-{i}" for i, (c, _, f) in enumerate(CASES)])
    def test_non_number_is_schema_error(self, capsys, tmp_path, command, cfg,
                                        field, value):
        path = write_config(tmp_path, "bad.json", self.fill(cfg, value))
        code, _, err = run_cli(capsys, [command, "--config", path])
        assert code == EXIT_SCHEMA
        assert f"{field} must be a number" in err

    def test_r_values_must_be_a_list(self, capsys, tmp_path):
        path = write_config(tmp_path, "bad.json", {"r_values": 1.5})
        code, _, err = run_cli(capsys, ["correlations", "--config", path])
        assert code == EXIT_SCHEMA
        assert "r_values must be a list" in err

    def test_integer_is_accepted(self, capsys, tmp_path):
        path = write_config(tmp_path, "ok.json", {"N": 4, "L": 20, "K": 2})
        code, out, _ = run_cli(capsys, ["canonical", "--config", path])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["L"] == 20.0


class TestIntegerFields:
    """Every integer config field rejects strings, bools and fractions."""

    CASES = [
        ("graphs", {"n": "{}", "count": True}, "n"),
        ("virial", {"order": "{}"}, "order"),
        ("eos", {"order": "{}"}, "order"),
        ("virial", {"order": 2, "mc": {"samples": "{}", "seed": 1}}, "mc.samples"),
        ("virial", {"order": 2, "mc": {"seed": "{}"}}, "mc.seed"),
        ("canonical", {"N": "{}", "L": 20.0, "K": 2}, "N"),
        ("canonical", {"N": 6, "L": 20.0, "K": "{}"}, "K"),
        ("canonical", {"N": 6, "L": 20.0, "K": 2, "truncation": "{}"}, "truncation"),
        ("correlations", {"K": "{}", "r_values": [1.5]}, "K"),
        ("correlations", {"n_r": "{}"}, "n_r"),
        ("ozpy", {"rho": 0.1, "max_iter": "{}"}, "max_iter"),
        ("ozpy", {"rho": 0.1, "grid": {"n_points": "{}"}}, "grid.n_points"),
    ]

    @staticmethod
    def fill(cfg, value):
        if isinstance(cfg, dict):
            return {k: TestIntegerFields.fill(v, value) for k, v in cfg.items()}
        return value if cfg == "{}" else cfg

    @pytest.mark.parametrize("value", ["abc", 2.7, True])
    @pytest.mark.parametrize("command,cfg,field", CASES,
                             ids=[f"{c}-{f}" for c, _, f in CASES])
    def test_non_integer_is_schema_error(self, capsys, tmp_path, command, cfg,
                                         field, value):
        path = write_config(tmp_path, "bad.json", self.fill(cfg, value))
        code, _, err = run_cli(capsys, [command, "--config", path])
        assert code == EXIT_SCHEMA
        assert f"{field} must be an integer" in err

    def test_integral_float_is_accepted(self, capsys, tmp_path):
        path = write_config(tmp_path, "ok.json", {"n": 3.0, "count": True})
        code, out, _ = run_cli(capsys, ["graphs", "--config", path])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["count"] == 4

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_eos_order_below_one_is_schema_error(self, capsys, order):
        code, _, err = run_cli(capsys, ["eos", "--order", order])
        assert code == EXIT_SCHEMA
        assert "need order >= 1" in err


class TestHardRodVirialIsExact:
    def test_order_five_prints_exactly_one(self, capsys):
        code, out, _ = run_cli(capsys, ["virial", "--order", "5"])
        assert code == EXIT_OK
        B = json.loads(out)["results"]["B_virial"]
        assert [B[str(n)] for n in range(2, 6)] == [1.0] * 4


class TestRadius:
    def test_hard_rod_bound(self, capsys):
        code, out, _ = run_cli(capsys, ["radius"])
        res = json.loads(out)["results"]
        assert float(res["z_max"]) == pytest.approx(1.0 / (2.0 * math.e), abs=1e-12)


class TestCanonical:
    def test_n2_exact(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json",
                           {"potential": {"kind": "hard_rods"},
                            "N": 2, "L": 10.0, "K": 1})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg])
        res = json.loads(out)["results"]
        assert float(res["expansion"]["log_z"]) == pytest.approx(math.log(40.0),
                                                                 abs=1e-12)
        assert abs(float(res["expansion_minus_oracle"])) < 1e-12


class TestCorrelations:
    def test_csv_columns(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "corr.json",
                           {"potential": {"kind": "hard_rods"},
                            "K": 1, "r_values": [0.5, 1.5]})
        code, out, _ = run_cli(capsys, ["correlations", "--config", cfg,
                                        "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "r,order0,order1"
        assert lines[1].split(",") == ["0.5", "-1", "0"]
        assert lines[2].split(",") == ["1.5", "0", "0.5"]


class TestOzpy:
    def test_thermodynamics_json(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_rods"}, "rho": 0.2,
                            "grid": {"dr": 0.005, "n_points": 4096,
                                     "dimension": 1}})
        code, out, _ = run_cli(capsys, ["ozpy", "--config", cfg])
        run = json.loads(out)["results"]["runs"][0]
        assert float(run["thermodynamics"]["pressure_virial"]) == pytest.approx(
            0.25, rel=0.01)
        assert len(run["residual_history"]) == run["iterations"]

    def test_nonconvergence_exit(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_spheres"}, "rho": 0.4,
                            "max_iter": 3})
        code, _, err = run_cli(capsys, ["ozpy", "--config", cfg])
        assert code == EXIT_NONCONV
        assert "nonconvergence" in err

    def test_nonconvergence_names_reason_and_density(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_spheres"},
                            "rho": [0.2, 1e300]})
        code, _, err = run_cli(capsys, ["ozpy", "--config", cfg])
        assert code == EXIT_NONCONV
        assert "(non-finite)" in err and "rho = 1e+300" in err


class TestCatalogIntegration:
    def test_determinism_and_hits(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "v.json",
                           {"potential": {"kind": "hard_rods"}, "order": 3,
                            "catalog": {"path": str(tmp_path / "cat.jsonl")}})
        _, out1, _ = run_cli(capsys, ["virial", "--config", cfg])
        _, out2, _ = run_cli(capsys, ["virial", "--config", cfg])
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["results"] == r2["results"]
        assert r1["provenance"]["catalog_misses"] > 0
        assert r2["provenance"]["catalog_misses"] == 0
        assert r2["provenance"]["catalog_hits"] == r1["provenance"]["catalog_misses"]

    def test_estimator_is_part_of_the_key(self, capsys, tmp_path):
        catalog = str(tmp_path / "cat.jsonl")

        def virial(extra):
            cfg = write_config(tmp_path, "v.json",
                               {"potential": {"kind": "hard_rods"}, "order": 3,
                                "catalog": {"path": catalog}, **extra})
            code, out, _ = run_cli(capsys, ["virial", "--config", cfg])
            assert code == EXIT_OK
            return json.loads(out)

        few = virial({"method": "mc", "mc": {"samples": 2000, "seed": 4}})
        exact = virial({})
        assert exact["provenance"]["catalog_hits"] == 0
        assert {b["method"] for b in exact["results"]["b"].values()} == {"exact1d"}
        assert float(exact["results"]["B_virial"]["3"]) == pytest.approx(1.0, abs=1e-12)
        many = virial({"method": "mc", "mc": {"samples": 200_000, "seed": 9}})
        assert many["provenance"]["catalog_hits"] == 0
        assert many["results"]["b"]["3"]["samples"] == 100 * few["results"]["b"]["3"]["samples"]
        again = virial({"method": "mc", "mc": {"samples": 2000, "seed": 4}})
        assert again["provenance"]["catalog_misses"] == 0
        assert again["results"] == few["results"]

    def test_per_graph_mc_records_are_not_served(self, capsys, tmp_path):
        # a record keyed by the per-graph estimator's name ("mc samples=...
        # seed=...") must never answer a request for class-sum sampling
        catalog = str(tmp_path / "cat.jsonl")
        old = CoefficientEstimate(123.0, 0.5, "mc", 2000, 4)
        for kind, order in (("b_n", 2), ("b_n", 3), ("beta_n", 1), ("beta_n", 2)):
            append_record(catalog, CatalogKey(potential_hash(hard_rods()), 1.0, order,
                                              kind, "mc samples=2000 seed=4"), old)
        cfg = write_config(tmp_path, "v.json",
                           {"potential": {"kind": "hard_rods"}, "order": 3,
                            "method": "mc", "mc": {"samples": 2000, "seed": 4},
                            "catalog": {"path": catalog}})
        code, out, _ = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["provenance"]["catalog_hits"] == 0
        assert all(b["value"] != 123.0 for b in report["results"]["b"].values())

    def test_fbar_proposal_mc_records_are_not_served(self, capsys, tmp_path):
        # a record keyed by class-sum sampling with edges drawn from fbar
        # ("mc-class samples=... seed=...") must never answer a request for
        # the |f| proposal, whose square-well estimates differ
        catalog = str(tmp_path / "cat.jsonl")
        old = CoefficientEstimate(123.0, 0.5, "mc", 2000, 4)
        ph = potential_hash(square_well())
        for kind, order in (("b_n", 1), ("b_n", 2), ("b_n", 3), ("beta_n", 1),
                            ("beta_n", 2)):
            append_record(catalog, CatalogKey(ph, 1.0, order, kind,
                                              "mc-class samples=2000 seed=4"), old)
        cfg = write_config(tmp_path, "v.json",
                           {"potential": {"kind": "square_well"}, "order": 3,
                            "mc": {"samples": 2000, "seed": 4},
                            "catalog": {"path": catalog}})
        code, out, _ = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["provenance"]["catalog_hits"] == 0
        assert report["provenance"]["catalog_misses"] == 5
        assert all(b["value"] != 123.0 for b in report["results"]["b"].values())
        assert all(b["value"] != 123.0 for b in report["results"]["beta"].values())

    def test_catalog_gc_noop_when_missing(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "gc.json",
                           {"path": str(tmp_path / "none.jsonl")})
        code, out, _ = run_cli(capsys, ["catalog-gc", "--config", cfg])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["kept"] == 0


class TestOutputFile:
    def test_out_flag_writes_atomically(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["graphs", "--n", "3", "--count",
                                        "--out", str(target)])
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["results"]["count"] == 4

    def test_csv_unavailable_for_radius(self, capsys):
        code, _, err = run_cli(capsys, ["radius", "--format", "csv"])
        assert code == EXIT_SCHEMA


class TestSeeds:
    def test_cli_coefficients_equal_direct_calls(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "hs.json",
                           {"potential": {"kind": "hard_spheres"}, "order": 4,
                            "mc": {"samples": 1000}})
        code, out, _ = run_cli(capsys, ["virial", "--config", cfg, "--seed", "6"])
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        p = hard_spheres()
        for n in range(1, 5):
            direct = mayer_b_n(p, n, "mc", 1000, 6)
            assert float(res["b"][str(n)]["value"]) == direct.value
            assert float(res["b"][str(n)]["std_error"]) == direct.std_error
        for k in range(1, 4):
            direct = irreducible_beta_n(p, k, "mc", 1000, 6)
            assert float(res["beta"][str(k)]["value"]) == direct.value
            assert float(res["beta"][str(k)]["std_error"]) == direct.std_error
