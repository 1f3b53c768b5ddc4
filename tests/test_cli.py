import hashlib
import json
import math

import numpy as np
import pytest

from clusterexp.canonical import EXACT_ORACLE_MAX_N, canonical_B_k, prefactor
from clusterexp.catalog import CatalogKey, append_record, potential_hash
from clusterexp.cli import (EXIT_CAP, EXIT_NONCONV, EXIT_OK, EXIT_SCHEMA,
                            SchemaError, build_parser, dumps, main,
                            potential_from_config, to_csv)
from clusterexp.coefficients import irreducible_beta_n, mayer_b_n
from clusterexp.convergence import activity_radius, canonical_radius
from clusterexp.ozpy import RadialGrid, solve_py
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


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_reused_parser_prints_what_a_fresh_one_prints(self, capsys,
                                                            tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_rods"}, "rho": 0.05,
                            "tol": 0.15, "grid": {"dr": 0.01, "n_points": 1024}})
        argvs = [["graphs", "--n", "4", "--count"], ["graphs", "--n", "x"],
                 ["ozpy", "--config", cfg]]

        def outputs(fresh):
            got = []
            for argv in argvs:
                if fresh:
                    build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                out, err = capsys.readouterr()
                if out:
                    report = json.loads(out)
                    del report["provenance"]["wall_time_s"]
                    out = report
                got.append((code, out, err))
            return got

        reused = outputs(fresh=False)
        assert [code for code, _, _ in reused] == [EXIT_OK, 2, EXIT_OK]
        assert "invalid int value: 'x'" in reused[1][2]
        assert reused == outputs(fresh=True)


class TestSerialization:
    def test_float_seventeen_digits(self):
        text = dumps({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip(self):
        payload = {"a": [1.5, 2, True, None], "b": {"c": "s"}}
        assert json.loads(dumps(payload)) == payload

    def test_string_lists_as_json_writes_them(self):
        seq = ['a"b', "c\\d", "\u00e9", "e\nf", "g"]
        text = dumps({"s": seq})
        assert text == '{\n  "s": [\n' + ",\n".join(
            "    " + json.dumps(v) for v in seq) + "\n  ]\n}"
        assert json.loads(text) == {"s": seq}

    def test_nonfinite_floats_stay_valid_json(self):
        out = json.loads(dumps({"x": math.inf, "y": math.nan}))
        assert out["x"] == "inf" and out["y"] == "nan"

    def test_csv(self):
        text = to_csv({"r": [1.0, 2.0], "g": [0.5, 0.25]})
        lines = text.strip().splitlines()
        assert lines[0] == "r,g"
        assert lines[1] == "1,0.5"

    def test_csv_nonfinite_and_seventeen_digits(self):
        text = to_csv({"x": [math.nan, math.inf, -math.inf, np.float64(0.1)]})
        assert text.splitlines()[1:] == ["nan", "inf", "-inf",
                                         "0.10000000000000001"]


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

    @pytest.mark.parametrize("n,count", [(6, 1296), (7, 16807)])
    def test_tree_count(self, capsys, n, count):
        code, out, _ = run_cli(capsys, ["graphs", "--n", str(n),
                                        "--class", "tree", "--count"])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["count"] == count

    def test_count_from_class_sums(self, capsys):
        code, out, _ = run_cli(capsys, ["graphs", "--n", "10",
                                        "--class", "connected", "--count"])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["count"] == 34496488594816

    def test_cap_exit_code(self, capsys):
        # listing walks the edge masks up to n = 7; counting stops at n = 10
        for argv in (["--n", "8"], ["--n", "11", "--count"]):
            code, _, err = run_cli(capsys, ["graphs", *argv])
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

    def test_eos_computes_only_the_betas(self, capsys, tmp_path):
        cat = {"path": str(tmp_path / "cat.jsonl")}
        cfg = write_config(tmp_path, "eos.json", {"order": 3, "catalog": cat})
        fresh = json.loads(run_cli(capsys, ["eos", "--config", cfg])[1])
        assert fresh["provenance"]["catalog_misses"] == 2
        run_cli(capsys, ["virial", "--config", cfg])
        again = json.loads(run_cli(capsys, ["eos", "--config", cfg])[1])
        assert again["provenance"]["catalog_misses"] == 0
        assert again["results"] == fresh["results"]

    def test_mc_requires_seed(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "hs.json",
                           {"potential": {"kind": "hard_spheres"}, "order": 2})
        code, _, err = run_cli(capsys, ["virial", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert "seed" in err

    def test_seedless_mc_writes_no_catalog(self, capsys, tmp_path):
        path = tmp_path / "cat.jsonl"
        cfg = write_config(tmp_path, "hs.json",
                           {"potential": {"kind": "hard_spheres"}, "order": 3,
                            "mc": {"samples": 500},
                            "catalog": {"path": str(path)}})
        code, out, _ = run_cli(capsys, ["virial", "--config", cfg])
        assert (code, out) == (EXIT_SCHEMA, "")
        assert not path.exists()

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

    @pytest.mark.parametrize("kind,keys", [
        ("hard_rods", {"sigma", "beta"}),
        ("hard_spheres", {"sigma", "beta", "dimension"}),
        ("square_well", {"sigma", "lam", "epsilon", "beta", "dimension"}),
        ("lennard_jones", {"sigma", "epsilon", "beta", "cutoff", "dimension"}),
        ("zero", {"beta", "dimension"}),
    ])
    def test_potential_keys_are_the_factory_parameters(self, kind, keys):
        values = {"sigma": 1.25, "beta": 0.5, "dimension": 1, "lam": 1.75,
                  "epsilon": 2.0, "cutoff": 2.5}
        p = potential_from_config({"kind": kind,
                                   **{k: values[k] for k in keys}})
        assert {k: getattr(p, k) for k in keys} == \
            {k: values[k] for k in keys}
        # a key of another kind, or a typo, is still rejected
        for key in sorted(set(values) - keys) + ["sigmaa"]:
            with pytest.raises(SchemaError, match="unknown keys in potential"):
                potential_from_config({"kind": kind, key: values.get(key, 1)})


class TestFloatFields:
    """Every real-valued config field rejects strings, bools, nulls, NaN,
    the infinities and integers past the float range."""

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
        ("virial", {"potential": {"kind": "hard_rods", "sigma": "{}"}},
         "potential.sigma"),
    ]

    @staticmethod
    def fill(cfg, value):
        if isinstance(cfg, dict):
            return {k: TestFloatFields.fill(v, value) for k, v in cfg.items()}
        if isinstance(cfg, list):
            return [TestFloatFields.fill(v, value) for v in cfg]
        return value if cfg == "{}" else cfg

    @pytest.mark.parametrize("value", [
        "abc", True, None, math.nan, math.inf, -math.inf,
        pytest.param(-10 ** 400, id="-1e400-integer")])
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


# (command, a valid config, the path of the field in it, the JSON types
# it takes)
SCHEMA_FIELDS = [
    ("graphs", {"n": 3, "count": True}, ("n",), {"number"}),
    ("graphs", {"n": 3, "count": True}, ("class",), {"string"}),
    ("graphs", {"n": 3, "count": True}, ("count",), {"boolean"}),
    *[(command, {"order": 2}, path, kinds) for command in ("virial", "eos")
      for path, kinds in [
          (("potential",), {"object"}),
          (("potential", "kind"), {"string"}),
          (("order",), {"number"}),
          (("method",), {"string"}),
          (("mc",), {"object"}),
          (("mc", "samples"), {"number"}),
          (("mc", "seed"), {"number"}),
          (("catalog",), {"object"}),
          (("catalog", "path"), {"string"})]],
    ("radius", {}, ("potential",), {"object"}),
    *[("radius", {"potential": {"kind": "lennard_jones", "cutoff": 2.5}},
       ("potential", key), {"number"})
      for key in ("sigma", "epsilon", "beta", "cutoff", "dimension")],
    ("radius", {"potential": {"kind": "square_well"}}, ("potential", "lam"),
     {"number"}),
    *[("canonical", {"N": 2, "L": 10.0, "K": 1}, path, kinds)
      for path, kinds in [
          (("potential",), {"object"}),
          (("N",), {"number"}),
          (("L",), {"number"}),
          (("K",), {"number"}),
          (("truncation",), {"number"}),
          (("oracle",), {"boolean"}),
          (("mc",), {"object"}),
          (("mc", "samples"), {"number"}),
          (("mc", "seed"), {"number"})]],
    *[("correlations", {"K": 0, "n_r": 2}, path, kinds)
      for path, kinds in [
          (("potential",), {"object"}),
          (("K",), {"number"}),
          (("r_min",), {"number"}),
          (("r_max",), {"number"}),
          (("n_r",), {"number"}),
          (("r_values",), {"list"}),
          (("method",), {"string"}),
          (("mc",), {"object"}),
          (("mc", "samples"), {"number"}),
          (("mc", "seed"), {"number"})]],
    *[("ozpy", {"rho": 0.1}, path, kinds) for path, kinds in [
        (("potential",), {"object"}),
        (("rho",), {"number", "list"}),
        (("grid",), {"object"}),
        (("grid", "dr"), {"number"}),
        (("grid", "n_points"), {"number"}),
        (("tol",), {"number"}),
        (("alpha",), {"number"}),
        (("max_iter",), {"number"})]],
    ("catalog-gc", {}, ("path",), {"string"}),
    ("catalog-gc", {}, ("catalog",), {"object"}),
    ("catalog-gc", {}, ("catalog", "path"), {"string"}),
]
JSON_VALUES = {"string": "x.jsonl", "number": 12345, "list": [5], "null": None}
SCHEMA_CASES = [(command, cfg, path, kind)
                for command, cfg, path, kinds in SCHEMA_FIELDS
                for kind in JSON_VALUES if kind not in kinds]


class TestSchemaGuard:
    """Every section and typed field of every command, given a JSON value
    of another type, exits with the schema code and a message."""

    @staticmethod
    def put(cfg, path, value):
        """A copy of cfg with ``value`` at ``path``; the objects on the way
        are kept or made."""
        out = json.loads(json.dumps(cfg))
        node = out
        for key in path[:-1]:
            node = node.setdefault(key, {"kind": "hard_rods"}
                                   if key == "potential" else {})
        node[path[-1]] = value
        return out

    @pytest.mark.parametrize("command,cfg,path,kind", SCHEMA_CASES,
                             ids=[f"{c}-{'.'.join(p)}-{k}"
                                  for c, _, p, k in SCHEMA_CASES])
    def test_wrong_type_is_schema_error(self, capsys, tmp_path, command, cfg,
                                        path, kind):
        path_ = write_config(tmp_path, "bad.json",
                             self.put(cfg, path, JSON_VALUES[kind]))
        code, out, err = run_cli(capsys, [command, "--config", path_])
        assert code == EXIT_SCHEMA
        assert out == "" and "error (schema)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,cfg,message", [
        ("graphs", {"n": 3, "count": "false"}, "count must be true or false"),
        ("canonical", {"N": 2, "L": 10.0, "K": 1, "oracle": "no"},
         "oracle must be true or false"),
        ("virial", {"catalog": {"path": 12345}}, "catalog.path must be a string"),
        ("catalog-gc", {"path": 12345}, "path must be a string"),
        ("catalog-gc", {"catalog": {"path": 12345}}, "catalog.path must be a string"),
        ("virial", {"catalog": {"pth": "x.jsonl"}}, "unknown keys in catalog"),
        ("ozpy", {"rho": 0.1, "grid": {"dimension": 3}}, "unknown keys in grid"),
        ("correlations", {"n": 2}, "unknown keys in correlations config"),
        ("radius", {"potential": {"kind": "square_well", "dimension": 1,
                                  "beta": -3}},
         "bad potential parameters: beta must be nonnegative"),
    ])
    def test_flags_paths_and_dropped_keys(self, capsys, tmp_path, command, cfg,
                                          message):
        path = write_config(tmp_path, "bad.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert code == EXIT_SCHEMA
        assert out == "" and message in err


class TestEmptyListsAndNegativeOrders:
    """An empty list of densities or separations, or a negative order,
    exits with the schema code and a message that names the key."""

    @pytest.mark.parametrize("command,cfg,flags,message", [
        ("ozpy", {"rho": []}, [], "rho must be a number or a nonempty list"),
        ("ozpy", {"rho": []}, ["--format", "csv"],
         "rho must be a number or a nonempty list"),
        ("correlations", {"r_values": []}, [],
         "r_values must be a nonempty list"),
        ("correlations", {"r_values": []}, ["--format", "csv"],
         "r_values must be a nonempty list"),
        ("correlations", {"K": -1, "r_values": [1.5]}, [], "need K >= 0"),
    ], ids=["ozpy-rho", "ozpy-rho-csv", "correlations-r_values",
            "correlations-r_values-csv", "correlations-K"])
    def test_exit_schema(self, capsys, tmp_path, command, cfg, flags, message):
        path = write_config(tmp_path, "bad.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path, *flags])
        assert code == EXIT_SCHEMA
        assert out == "" and "error (schema)" in err and message in err


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

    # beta B = 23 and 40: the canonical certificates are about 1.9e-21 and
    # 3.3e-36
    @pytest.mark.parametrize("potential", [
        {"kind": "lennard_jones", "cutoff": 2.5},
        {"kind": "square_well", "epsilon": 5.0, "dimension": 3}],
        ids=["lennard_jones", "square_well"])
    def test_strong_attraction_certified(self, capsys, tmp_path, potential):
        cfg = write_config(tmp_path, "radius.json", {"potential": potential})
        code, out, _ = run_cli(capsys, ["radius", "--config", cfg])
        assert code == EXIT_OK
        assert float(json.loads(out)["results"]["rho_C_max"]) > 0.0

    # beta B = 400, 800 and 1600: z_max and rho_C_max underflow from
    # epsilon = 100 and 50 on, and the logs carry the bounds
    @pytest.mark.parametrize("epsilon", [50, 100, 200])
    def test_bounds_past_the_float_range(self, capsys, tmp_path, epsilon):
        cfg = write_config(tmp_path, "radius.json",
                           {"potential": {"kind": "square_well",
                                          "epsilon": epsilon}})
        code, out, _ = run_cli(capsys, ["radius", "--config", cfg])
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        p = square_well(epsilon=float(epsilon))
        assert res["log_z_max"] == activity_radius(p).log_bound
        assert res["log_rho_C_max"] == canonical_radius(p).log_bound
        assert math.isfinite(res["log_z_max"])
        assert math.isfinite(res["log_rho_C_max"])


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

    def test_coefficients_keyed_by_order(self, capsys, tmp_path):
        N, L = 4, 20.0
        cfg = write_config(tmp_path, "can.json",
                           {"N": N, "L": L, "K": 3, "oracle": False})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_OK
        coeffs = json.loads(out)["results"]["expansion"]["coefficients"]
        assert sorted(coeffs) == ["1", "2", "3"]
        for k in (1, 2, 3):
            want = canonical_B_k(hard_rods(), k, L)
            assert coeffs[str(k)] == {
                "B": want["B"], "B_star": want["B_star"],
                "term": N * prefactor(N, L, k) * want["B"] / (k + 1)}

    def test_oracle_beyond_its_cap_exits_cap(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json", {"N": 10, "L": 20.0, "K": 3})
        code, out, err = run_cli(capsys, ["canonical", "--config", cfg,
                                          "--seed", "1"])
        assert code == EXIT_CAP
        assert out == "" and "error (cap)" in err

    def test_oracle_beyond_its_cap_exits_cap_without_a_seed(self, capsys,
                                                            tmp_path):
        # the cap is reported, not the seed that no oracle here could use
        cfg = write_config(tmp_path, "can.json", {"N": 10, "L": 20.0, "K": 3})
        code, out, err = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_CAP
        assert out == "" and "error (cap)" in err
        assert "--seed" not in err

    def test_order_beyond_its_cap_exits_cap(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json",
                           {"N": 8, "L": 20.0, "K": 5, "oracle": False})
        code, out, err = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_CAP
        assert out == "" and "error (cap)" in err

    def test_mc_oracle_needs_a_seed(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json",
                           {"N": EXACT_ORACLE_MAX_N + 1, "L": 30.0, "K": 1})
        code, _, err = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert err == ("error (schema): ValueError: a Monte Carlo draw needs "
                       "a seed, got None\n")

    def test_mc_oracle_that_draws_nothing_needs_no_seed(self, capsys,
                                                        tmp_path):
        # six rods do not fit in L = 5: -inf, with nothing drawn
        cfg = write_config(tmp_path, "can.json", {"N": 6, "L": 5.0, "K": 1})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_OK
        oracle = json.loads(out)["results"]["oracle"]
        assert (oracle["value"], oracle["method"]) == ("-inf", "mc")

    def test_exact_oracle_prints_minus_inf_when_rods_do_not_fit(
            self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json", {"N": 3, "L": 2.5, "K": 1})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_OK
        oracle = json.loads(out)["results"]["oracle"]
        assert (oracle["value"], oracle["method"]) == ("-inf", "exact1d")

    def test_mc_oracle_prints_minus_inf_when_rods_do_not_fit(
            self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json", {"N": 6, "L": 5.5, "K": 1})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg,
                                        "--seed", "1"])
        assert code == EXIT_OK
        oracle = json.loads(out)["results"]["oracle"]
        assert (oracle["value"], oracle["method"], oracle["samples"]) == \
            ("-inf", "mc", 0)

    def test_exact_oracle_prints_minus_inf_when_rods_do_not_fit_off_lattice(
            self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json",
                           {"N": 3, "L": 2.0 * math.sqrt(2.0), "K": 1})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_OK
        res = json.loads(out)["results"]
        assert (res["oracle"]["value"], res["oracle"]["method"]) == \
            ("-inf", "exact1d")
        assert res["expansion_minus_oracle"] == "inf"

    def test_any_truncation_runs(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "can.json", {"N": 6, "L": 20.0, "K": 2,
                                                  "truncation": 20,
                                                  "oracle": False})
        code, out, _ = run_cli(capsys, ["canonical", "--config", cfg])
        assert code == EXIT_OK
        B2 = json.loads(out)["results"]["expansion"]["coefficients"]["2"]["B"]
        assert B2 == pytest.approx(canonical_B_k(hard_rods(), 2, 20.0)["B"],
                                   rel=1e-12)


class TestLibraryValueErrors:
    """Configs that pass the schema but that the library rejects exit with
    the schema code and a message, not a traceback."""

    @pytest.mark.parametrize("command,cfg,message", [
        ("ozpy", {"potential": {"kind": "hard_spheres"}, "rho": 0.2,
                  "grid": {"n_points": 8}}, "nontrivial grid"),
        ("ozpy", {"potential": {"kind": "hard_spheres"}, "rho": 0.2,
                  "grid": {"dr": 0.001, "n_points": 1024}}, "10 sigma"),
        ("virial", {"potential": {"kind": "hard_spheres"}, "order": 2,
                    "method": "exact1d"}, "one-dimensional"),
        ("canonical", {"N": 2, "L": 1.5, "K": 1}, "L/2"),
        ("canonical", {"N": 3, "L": 2.5, "K": 2},
         "3 particles do not fit in L = 2.5"),
    ])
    def test_exit_schema(self, capsys, tmp_path, command, cfg, message):
        path = write_config(tmp_path, "cfg.json", cfg)
        code, out, err = run_cli(capsys, [command, "--config", path])
        assert code == EXIT_SCHEMA
        assert out == "" and "error (schema): ValueError: " in err
        assert message in err


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


    def test_r_grid(self, capsys, tmp_path):
        def orders(extra):
            cfg = write_config(tmp_path, "corr.json", {"K": 1, **extra})
            code, out, _ = run_cli(capsys, ["correlations", "--config", cfg])
            assert code == EXIT_OK
            return json.loads(out)["results"]
        grid = orders({"r_min": 0.5, "r_max": 1.5, "n_r": 3})
        assert grid["r"] == [0.5, 1.0, 1.5]
        # f(r) at order 0; the overlap 2 - r of two cores at order 1, times
        # the 1 + f(r) that keeps the pair apart
        assert grid["orders"] == [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.5]]
        assert grid == orders({"r_values": [0.5, 1.0, 1.5]})


    @pytest.mark.parametrize("potential,K,orders", [
        ({"kind": "zero", "dimension": 3}, 1, [[0.0, 0.0], [0.0, 0.0]]),
        ({"kind": "hard_spheres"}, 0, [[-1.0, 0.0]]),
    ], ids=["zero-K1", "spheres-K0"])
    def test_orders_that_draw_nothing_need_no_seed(self, capsys, tmp_path,
                                                   potential, K, orders):
        # order 0 has no free vertex and f = 0 vanishes at every order
        cfg = write_config(tmp_path, "corr.json",
                           {"potential": potential, "K": K,
                            "r_values": [0.5, 1.5]})
        code, out, err = run_cli(capsys, ["correlations", "--config", cfg])
        assert (code, err) == (EXIT_OK, "")
        res = json.loads(out)["results"]
        assert res["orders"] == orders
        assert res["std_errors"] == [[0.0, 0.0]] * (K + 1)


class TestOzpy:
    def test_thermodynamics_json(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_rods"}, "rho": 0.2,
                            "grid": {"dr": 0.005, "n_points": 4096}})
        code, out, _ = run_cli(capsys, ["ozpy", "--config", cfg])
        run = json.loads(out)["results"]["runs"][0]
        assert float(run["thermodynamics"]["pressure_virial"]) == pytest.approx(
            0.25, rel=0.01)
        assert len(run["residual_history"]) == run["iterations"]

    def test_dense_hard_spheres_exit_ok(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_spheres"}, "rho": 0.8})
        code, out, _ = run_cli(capsys, ["ozpy", "--config", cfg])
        assert code == EXIT_OK
        run = json.loads(out)["results"]["runs"][0]
        assert not run["negative_g"]
        assert float(run["oz_selfconsistency"]) < 1e-8

    def test_default_grid_is_radial_grids(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_spheres"}, "rho": 0.1})
        code, out, _ = run_cli(capsys, ["ozpy", "--config", cfg])
        assert code == EXIT_OK
        grid = json.loads(out)["results"]["grid"]
        assert (grid["dr"], grid["n_points"]) == (RadialGrid().dr,
                                                  RadialGrid().n_points)

    def test_csv_is_the_last_profile(self, capsys, tmp_path):
        # tol stops both solves before the first Anderson step (rho = 0.1
        # after one preconditioned Picard step), so the profiles do not
        # depend on how the least squares is solved
        grid = {"dr": 0.01, "n_points": 1024}
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_rods"},
                            "rho": [0.05, 0.1], "tol": 0.15, "grid": grid})
        code, out, _ = run_cli(capsys, ["ozpy", "--config", cfg,
                                        "--format", "csv"])
        assert code == EXIT_OK
        assert out.startswith("r,g,h,c,t,y\n0.01,0,-1,")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b3e22c33abcdad60b6600626fb3177690fa5b9001968e670ee3f8dce76a6055d")
        # 17 significant digits round-trip, so the g column is the profile
        # of the last density bit for bit
        g = np.array([float(line.split(",")[1])
                      for line in out.splitlines()[1:]])
        sol = solve_py(hard_rods(), 0.1, grid=RadialGrid(**grid),
                       tol=0.15)
        assert np.array_equal(g, sol.g)

    @pytest.mark.parametrize("extra", [
        {"rho": -0.5}, {"rho": [0.2, -0.5]}, {"rho": math.nan},
        {"rho": math.inf}, {"tol": 0}, {"tol": -1e-10}, {"tol": math.nan},
        {"alpha": 0}, {"alpha": -0.5}, {"alpha": math.inf},
        {"max_iter": 0}])
    def test_invalid_solver_inputs_are_schema_errors(self, capsys, tmp_path,
                                                      extra):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_rods"}, "rho": 0.2,
                            **extra})
        code, out, err = run_cli(capsys, ["ozpy", "--config", cfg])
        assert code == EXIT_SCHEMA
        assert out == "" and "error (schema): SchemaError" in err

    def test_zero_density_is_accepted(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "oz.json",
                           {"potential": {"kind": "hard_rods"}, "rho": 0})
        code, out, _ = run_cli(capsys, ["ozpy", "--config", cfg])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["runs"][0]["iterations"] == 1

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

    def test_catalog_gc_keeps_current_records(self, capsys, tmp_path):
        catalog = tmp_path / "cat.jsonl"
        cfg = write_config(tmp_path, "v.json",
                           {"order": 3, "catalog": {"path": str(catalog)}})
        assert run_cli(capsys, ["virial", "--config", cfg])[0] == EXIT_OK
        with catalog.open("a") as fh:
            fh.write("not a record\n")
        gc = write_config(tmp_path, "gc.json",
                          {"catalog": {"path": str(catalog)}})
        code, out, _ = run_cli(capsys, ["catalog-gc", "--config", gc])
        assert code == EXIT_OK
        assert json.loads(out)["results"] == {
            "path": str(catalog), "kept": 5, "stale": 0, "corrupt": 1,
            "inconsistent": 0}
        assert len(catalog.read_text().splitlines()) == 5
        again = json.loads(run_cli(capsys, ["virial", "--config", cfg])[1])
        assert again["provenance"]["catalog_hits"] == 5

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
