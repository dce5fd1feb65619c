import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddcident
from ddcident.betapoly import ROOT_RESIDUAL_TOL
from ddcident.cli import (
    ConfigError,
    _build_restriction,
    _entry_source,
    _fd_source,
    _write_curves,
    main,
    parse_restriction_specs,
    validate_config,
)
from ddcident.ddc import NEWTON_TOL, SingleAgentModel, solve_bellman
from ddcident.errors import ConvergenceError
from ddcident.games import DAMPING, MPE_TOL
from ddcident.identify import IdentifiedSet
from ddcident.scenarios import build_entry_model, entry_restrictions

REPO = pathlib.Path(__file__).resolve().parents[1]


def read_curves(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return header, data


@pytest.fixture(scope="module")
def entry_config(tmp_path_factory):
    bundle = build_entry_model()
    m = bundle.model
    cfg = {"schema_version": 1, "mode": "single", "n_actions": m.n_actions, "n_states": m.n_states,
           "payoffs": m.u.tolist(), "Q": m.Q.tolist(), "beta": m.beta}
    zc = bundle.restrictions["zero_cross"].to_json_dict()
    zc["label"] = "zero-cross"
    cfg["restrictions"] = [zc]
    path = tmp_path_factory.mktemp("cfg") / "entry.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestSpecParsing:
    def test_plain_names(self):
        specs = parse_restriction_specs("homogeneity,zero-cross")
        assert specs == [("homogeneity", {}), ("zero-cross", {})]

    def test_arguments(self):
        specs = parse_restriction_specs("monotonicity(axis=z,increasing=true),linearity")
        assert specs[0] == ("monotonicity", {"axis": "z", "increasing": True})
        assert specs[1] == ("linearity", {})

    def test_bad_argument(self):
        with pytest.raises(ConfigError):
            parse_restriction_specs("mono(axis)")

    def test_commas_inside_parentheses_separate_arguments(self):
        specs = parse_restriction_specs(" monotonicity(axis=w, direction=decreasing), complementarity(axes=wz)")
        assert specs == [("monotonicity", {"axis": "w", "direction": "decreasing"}),
                         ("complementarity", {"axes": "wz"})]

    @pytest.mark.parametrize("text", [
        # unbalanced parentheses (the second and third were once read as arguments)
        "monotonicity(axis=z", "monotonicity(axis=z))", "monotonicity(axis=(z)",
        "monotonicity(axis=z,direction=increasing", "monotonicity)axis=z(",
        # empty items (once skipped)
        "homogeneity,,zero-cross", "homogeneity,", ",homogeneity", " ", "monotonicity(axis=z,)",
    ])
    def test_unbalanced_or_empty_items_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_restriction_specs(text)


class TestValidate:
    def test_reference_config_is_clean(self, entry_config):
        _, cfg = entry_config
        assert validate_config(cfg) == []

    def test_bad_row_sum_names_row(self, entry_config):
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        bad["Q"][1][3][0] += 0.1
        issues = validate_config(bad)
        assert any("action 1, state 3" in i["message"] for i in issues)

    def test_missing_state_reference_named(self, entry_config):
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        bad["restrictions"][0]["rows"][0]["cols"][0] = 99
        issues = validate_config(bad)
        assert any("column 99" in i["message"] for i in issues)

    def test_validate_command_exit_codes(self, entry_config, tmp_path, capsys):
        path, cfg = entry_config
        assert main(["validate", "--config", str(path)]) == 0
        bad = json.loads(json.dumps(cfg))
        bad["Q"][0][0][0] += 0.2
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(bad_path)]) == 2

    @pytest.mark.parametrize("field,value,message", [
        ("Q", 5e-9, "sums to 1.000000005"),   # within 1e-8, outside the model's 1e-10
        ("beta", 1.5, "beta must lie in [0, 1)"),
        ("restrictions.n_columns", None, "n_columns must be 18"),
        ("restrictions.label", None, "label must be a nonempty string"),
        ("restrictions.n_columns", 5, "n_columns must be 18"),
        ("Q", "abc", "Q must be an array of numbers"),
        ("payoffs", [[0.0, 1.0], [0.0]], "payoffs must be an array of numbers"),
        ("payoffs", [[10 ** 400] * 18, [0] * 18], "payoffs must be an array of numbers"),  # a traceback once
        ("restrictions.cols", ["x"], "cols must be a list of integers"),
    ])
    def test_validate_and_run_agree(self, entry_config, tmp_path, capsys, field, value, message):
        # a config that validate accepts must run; one that run cannot load
        # must fail both commands with the structured error, never a traceback
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        restriction = bad["restrictions"][0]
        if field == "Q" and isinstance(value, float):
            bad["Q"][0][2][0] += value
        elif field == "restrictions.cols":
            restriction["rows"][0]["cols"] = value
        elif field.startswith("restrictions.") and value is None:
            del restriction[field.split(".")[1]]
        elif field.startswith("restrictions."):
            restriction[field.split(".")[1]] = value
        else:
            bad[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(path)]) == 2
        issues = json.loads(capsys.readouterr().out)["issues"]
        assert any(message in i["message"] for i in issues)
        rc = main(["run", "--config", str(path), "--restrictions", "zero-cross",
                   "--beta-grid", "0:1:11", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert any(message in i["message"] for i in err["issues"])

    def test_malformed_vals_rejected(self, entry_config, tmp_path, capsys):
        # the decoder's length check reaches validate and run as invalid_config
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        bad["restrictions"][0]["rows"][0].update(cols=[0, 1], vals=[2.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        message = "cannot build the restriction: ValueError: rows[0]: 1 vals for 2 cols"
        assert main(["validate", "--config", str(path)]) == 2
        issues = json.loads(capsys.readouterr().out)["issues"]
        assert issues == [{"field": "restrictions[0]", "message": message}]
        rc = main(["run", "--config", str(path), "--restrictions", "zero-cross",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "invalid_config", "issues": issues}

    @pytest.mark.parametrize("edit", [
        {"c": [0.5]},           # once broadcast to every row
        {"c": "3"},             # once read as 3.0
        {"c": True},
        {"c": ["1"] * 8},
        {"c": [True] + [0] * 7},
        {"c": [float("nan")] * 8},
        {"vals": [float("inf")]},
        {"kind": "inequality"},  # once a KeyError
    ], ids=["c-one-entry", "c-string", "c-bool", "c-strings", "c-with-bool", "c-nan", "vals-inf", "kind"])
    def test_decoder_errors_reported_per_restriction(self, entry_config, tmp_path, capsys, edit):
        # the decoder owns the row format: validate and run report its error
        # under the restriction's index
        message = {"c": "c must be a list of numbers, all finite, one per row (8)",
                   "vals": "rows[0]: vals must be a list of numbers, all finite",
                   "kind": "a restriction must be an object whose kind is"}[next(iter(edit))]
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        if "vals" in edit:
            bad["restrictions"][0]["rows"][0].update(cols=[0], **edit)
        else:
            bad["restrictions"][0].update(edit)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", "--config", str(path)]) == 2
        issues = json.loads(capsys.readouterr().out)["issues"]
        assert len(issues) == 1 and issues[0]["field"] == "restrictions[0]"
        assert issues[0]["message"].startswith(f"cannot build the restriction: ValueError: {message}")
        rc = main(["run", "--config", str(path), "--restrictions", "zero-cross",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {"error": "invalid_config", "issues": issues}

    def test_duplicate_labels_reported(self, entry_config):
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        bad["restrictions"].append(bad["restrictions"][0])
        issues = validate_config(bad)
        assert any("duplicate label 'zero-cross'" in i["message"] for i in issues)

    @pytest.mark.parametrize("field,value,message", [
        ("beta", "0.5", "beta must be a number"),                # once read as 0.5
        ("n_actions", "2", "n_actions must be a JSON integer"),  # once read as 2
        ("n_states", 18.7, "n_states must be a JSON integer"),   # once read as 18
        ("payoffs", True, "payoffs must be an array of numbers, all finite"),  # once read as 1.0
    ])
    def test_model_fields_follow_the_number_rule(self, entry_config, tmp_path, capsys, field, value, message):
        # the rule of the row format's vals and c, reported under the field
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        if field == "payoffs":
            bad["payoffs"][0][0] = value
        else:
            bad[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        expected = [{"field": field, "message": message}]
        assert main(["validate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["issues"] == expected
        assert main(["run", "--config", str(path), "--restrictions", "zero-cross",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "invalid_config", "issues": expected}

    @pytest.mark.parametrize("restrictions", [[], None])
    def test_config_without_restrictions_rejected(self, entry_config, tmp_path, capsys, restrictions):
        # run offers only a config's own restrictions, so without any it cannot run
        _, cfg = entry_config
        bad = json.loads(json.dumps(cfg))
        if restrictions is None:
            del bad["restrictions"]
        else:
            bad["restrictions"] = restrictions
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(bad))
        expected = {"field": "restrictions",
                    "message": "config defines no restrictions; run needs at least one"}
        assert main(["validate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["issues"] == [expected]
        assert main(["run", "--config", str(path), "--restrictions", "zero-cross",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "invalid_config", "issues": [expected]}

    def test_payoffs_and_ccps_together_rejected(self, entry_config, tmp_path, capsys):
        # run once used the CCPs and dropped the payoffs and beta, exit 0
        _, cfg = entry_config
        both = json.loads(json.dumps(cfg))
        both["ccps"] = [[0.5] * cfg["n_states"]] * cfg["n_actions"]
        path = tmp_path / "both.json"
        path.write_text(json.dumps(both))
        expected = [{"field": "ccps", "message": "give 'payoffs' (with beta) or 'ccps', not both"}]
        assert main(["validate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["issues"] == expected
        assert main(["run", "--config", str(path), "--restrictions", "zero-cross",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "invalid_config", "issues": expected}

    @pytest.mark.parametrize("row,c", [
        ({"cols": [0, 1], "vals": [1e308, -1e308]}, [0.0]),
        ({"cols": [0], "vals": [1.0]}, [1e308]),
    ], ids=["vals", "c"])
    def test_overflowing_rows_are_json_errors(self, tmp_path, capsys, row, c):
        # the rows overflow only on the solved model: validate once accepted
        # them, and run once printed an overflow warning, then a traceback, and
        # exited 1
        cfg = json.loads((REPO / "configs" / "entry_model.json").read_text())
        big = dict(cfg)
        big["restrictions"] = [{"label": "big", "kind": "equality", "n_columns": cfg["n_states"],
                                "rows": [row], "c": c}]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        expected = [{"field": "restrictions[0]",
                     "message": "cannot form the rows of 'big': row 0 of R G(beta) - c det(beta) overflows"}]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", str(path)]) == 2
            assert json.loads(capsys.readouterr().out)["issues"] == expected
            assert main(["run", "--config", str(path), "--restrictions", "big",
                         "--out-dir", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "invalid_config", "issues": expected}
        assert not (tmp_path / "o").exists()

    def test_malformed_json_is_structured_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,')
        assert main(["validate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid_config"


class TestRun:
    def test_entry_homogeneity_run(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(["run", "--scenario", "entry", "--restrictions", "homogeneity",
                   "--beta-grid", "0.85:1.05:401", "--out-dir", str(out)])
        assert rc == 0
        header, data = read_curves(out / "curves.csv")
        assert header[0] == "beta" and len(header) == 7
        ident = json.loads((out / "identified_set.json").read_text())
        roots = ident["restrictions"]["homogeneity"]["equality_roots"]
        assert roots == pytest.approx([0.95], abs=1e-4)
        # every normalized polynomial column vanishes at the grid point beta = 1
        at_one = data[np.isclose(data[:, 0], 1.0)][0, 1:]
        assert np.max(np.abs(at_one)) <= 1e-6

    def test_runs_are_byte_identical(self, tmp_path):
        args = ["run", "--scenario", "entry", "--restrictions", "zero-cross,monotonicity",
                "--beta-grid", "0:1:101"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        for name in ("curves.csv", "identified_set.json", "run_manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_curves_bytes_match_the_per_cell_writer(self, tmp_path):
        # the row-template writer against the per-cell formatting it replaced
        grid = np.linspace(0.0, 1.0, 9)
        columns = {"a_0": np.array([-0.0, 5e-324, 1e-300, -1.5, np.pi, 1 / 3, 2.0 ** 60, -1e300, 0.1]),
                   "b_1": np.random.default_rng(0).normal(size=9)}
        _write_curves(tmp_path / "curves.csv", grid, columns)
        expected = "beta,a_0,b_1\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                              for row in zip(grid, *columns.values()))
        assert (tmp_path / "curves.csv").read_bytes() == expected.encode()

    def test_fd_scenario_linear_curves(self, tmp_path):
        out = tmp_path / "fd"
        rc = main(["run", "--scenario", "entry-fd", "--restrictions", "homogeneity",
                   "--beta-grid", "0.8:1.1:61", "--out-dir", str(out)])
        assert rc == 0
        header, data = read_curves(out / "curves.csv")
        ident = json.loads((out / "identified_set.json").read_text())
        assert ident["restrictions"]["homogeneity"]["diagnostics"]["rho"] == 1
        assert ident["restrictions"]["homogeneity"]["equality_roots"] == pytest.approx([0.95], abs=1e-6)
        # linear normalized curves: second differences vanish on the grid
        for col in range(1, data.shape[1]):
            second = np.diff(data[:, col], n=2)
            assert np.max(np.abs(second)) < 1e-9

    def test_game_scenario(self, tmp_path):
        out = tmp_path / "game"
        rc = main(["run", "--scenario", "entry-game", "--firm", "1",
                   "--restrictions", "exchangeability", "--beta-grid", "0.75:1.05:61",
                   "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        roots = ident["restrictions"]["exchangeability"]["equality_roots"]
        assert roots == pytest.approx([0.8], abs=1e-3)
        assert ident["restrictions"]["exchangeability"]["diagnostics"]["firm"] == 1
        header, _ = read_curves(out / "curves.csv")
        assert len(header) == 7  # beta + 6 exchangeability polynomials

    def test_config_run(self, entry_config, tmp_path):
        path, _ = entry_config
        out = tmp_path / "cfg_run"
        rc = main(["run", "--config", str(path), "--restrictions", "zero-cross",
                   "--beta-grid", "0:1:201", "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        assert ident["restrictions"]["zero-cross"]["equality_roots"] == pytest.approx([0.95], abs=1e-4)

    def test_invalid_config_reports_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "mode": "single",
                                   "n_actions": 2, "n_states": 2,
                                   "Q": [[[0.4, 0.4], [0.5, 0.5]]] * 2,
                                   "payoffs": [[0, 0], [0, 0]], "beta": 0.5}))
        rc = main(["run", "--config", str(bad), "--restrictions", "x",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert any("sums to" in i["message"] for i in err["issues"])

    def test_missing_restriction_errors(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "entry", "--restrictions", "frobnication",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"

    def test_game_requires_firm(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "entry-game", "--restrictions", "exchangeability",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("firm", ["0", "4"])
    def test_game_firm_out_of_range(self, tmp_path, capsys, firm):
        rc = main(["run", "--scenario", "entry-game", "--firm", firm,
                   "--restrictions", "exchangeability", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert err["issues"][0]["field"] == "--firm"

    @pytest.mark.parametrize("source,restrictions", [
        (["--scenario", "entry"], "monotonicity,monotonicity(axis=w)"),
        (["--scenario", "entry"], "zero-cross,zero_cross"),
        (["--scenario", "entry-fd"], "homogeneity,homogeneity"),
        (["--scenario", "entry-game", "--firm", "1"], "adjustment-cost,adjustment_cost"),
    ])
    def test_repeated_result_key_rejected(self, tmp_path, capsys, source, restrictions):
        # artifacts keep one result per key, so a second request for the same
        # key would be dropped from them while still entering the combined set
        out = tmp_path / "o"
        rc = main(["run", *source, "--restrictions", restrictions,
                   "--beta-grid", "0:1:11", "--out-dir", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert "asks again" in err["issues"][0]["message"]
        assert not out.exists()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        main(["run", "--scenario", "entry", "--restrictions", "homogeneity",
              "--beta-grid", "0:1:11", "--out-dir", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["scenario"] == "entry"
        assert manifest["tolerances"]["root_residual"] == 1e-8
        assert set(manifest["outputs"]) == {"curves.csv", "identified_set.json",
                                            "run_manifest.json"}

    def test_manifest_records_the_constants_the_run_uses(self, tmp_path):
        # the solver tolerances are no longer options: the manifest records the
        # constants, and the config echo only what was asked for
        out = tmp_path / "m"
        main(["run", "--scenario", "entry-game", "--firm", "1", "--restrictions", "exchangeability",
              "--beta-grid", "0:1:11", "--out-dir", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["tolerances"]["fixed_point"] == MPE_TOL  # the game's equilibrium too
        used = {"root_residual": ROOT_RESIDUAL_TOL, "fixed_point": NEWTON_TOL, "damping": DAMPING}
        assert manifest["tolerances"] == used == {"root_residual": 1e-8, "fixed_point": 1e-12, "damping": 0.5}
        assert set(manifest["config"]) == {"scenario", "config", "firm", "restrictions", "beta_grid"}


class TestReferenceConfigs:
    def test_entry_reference_config_validates_and_runs(self, tmp_path):
        import pathlib
        cfg_path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "entry_model.json"
        assert main(["validate", "--config", str(cfg_path)]) == 0
        out = tmp_path / "ref"
        rc = main(["run", "--config", str(cfg_path), "--restrictions", "homogeneity",
                   "--beta-grid", "0:1:101", "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        assert ident["restrictions"]["homogeneity"]["equality_roots"] == pytest.approx([0.95], abs=1e-4)

    @pytest.mark.parametrize("name", ["entry_model", "entry_model_ccps"])
    def test_shipped_configs_validate(self, name, capsys):
        # validate solves each model and forms every inline restriction's rows
        assert main(["validate", "--config", str(REPO / "configs" / f"{name}.json")]) == 0
        assert json.loads(capsys.readouterr().out)["issues"] == []

    def test_ccp_config_sets_match_the_payoff_config(self, tmp_path):
        # entry_model_ccps.json is entry_model.json with its model's CCPs from
        # solve_bellman in place of payoffs and beta, so psi_from_ccps gives
        # the solver's psi to rounding, and the sets agree
        cfg, ccp_cfg = (json.loads((REPO / "configs" / f"{name}.json").read_text())
                        for name in ("entry_model", "entry_model_ccps"))
        assert {k: v for k, v in cfg.items() if k not in ("payoffs", "beta")} \
            == {k: v for k, v in ccp_cfg.items() if k != "ccps"}
        p = solve_bellman(SingleAgentModel(np.array(cfg["payoffs"]), np.array(cfg["Q"]), cfg["beta"])).p
        assert np.allclose(ccp_cfg["ccps"], p, rtol=1e-12, atol=0.0)
        sets = []
        for name in ("entry_model", "entry_model_ccps"):
            assert main(["run", "--config", str(REPO / "configs" / f"{name}.json"), "--restrictions",
                         ",".join(r["label"] for r in cfg["restrictions"]), "--beta-grid", "0:1:11",
                         "--out-dir", str(tmp_path / name)]) == 0
            sets.append(json.loads((tmp_path / name / "identified_set.json").read_text()))
        six, ccps = sets
        assert six.keys() == ccps.keys() and six["restrictions"].keys() == ccps["restrictions"].keys()
        for a, b in [(six["combined"], ccps["combined"])] + [
                (six["restrictions"][k], ccps["restrictions"][k]) for k in six["restrictions"]]:
            for key in ("equality_roots", "inequality_intervals", "combined"):
                assert (a[key] is None) == (b[key] is None)
                assert np.ravel(a[key] or []) == pytest.approx(np.ravel(b[key] or []), rel=0.0, abs=1e-10)


class TestOnePipeline:
    """Every source hands the run the same kind of set, with the same fields."""

    SOURCES = {
        "entry": (["--scenario", "entry"], "homogeneity,zero-cross,monotonicity"),
        "entry-fd": (["--scenario", "entry-fd"], "homogeneity,zero-cross,monotonicity"),
        "entry-game": (["--scenario", "entry-game", "--firm", "2"],
                       "exchangeability,adjustment-cost,mono-rivals"),
        "config": (["--config", str(REPO / "configs" / "entry_model.json")],
                   "homogeneity,zero_cross,monotonicity"),
    }

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_every_set_has_the_same_fields(self, tmp_path, source):
        args, restrictions = self.SOURCES[source]
        out = tmp_path / source
        assert main(["run", *args, "--restrictions", restrictions, "--beta-grid", "0:1:21",
                     "--out-dir", str(out)]) == 0
        results = json.loads((out / "identified_set.json").read_text())["restrictions"]
        assert len(results) == 3
        kinds = set()
        for key, doc in results.items():
            assert doc.keys() == IdentifiedSet().to_json_dict().keys()
            diag = doc["diagnostics"]
            assert isinstance(diag["label"], str) and diag["label"]
            assert diag.get("firm") == (2 if source == "entry-game" else None)
            assert diag.get("rho") == (1 if source == "entry-fd" else None)
            if source == "entry-game":
                assert diag["label"] == key and diag["condition_estimate"] > 1.0
            if doc["equality_roots"] is not None:
                kinds.add("eq")
                # an equality set flagged as holding everywhere has no nonzero row to count
                assert diag.get("no_identifying_content") or diag["independent_polynomials"] >= 1
            else:
                kinds.add("ge")
        assert kinds == {"eq", "ge"}

    @pytest.mark.parametrize("spec,bare", [
        ("exchangeability(actions=0)", "exchangeability"),
        ("adjustment-cost(lag_pair=0)", "adjustment-cost"),
        ("adjustment-cost(actions=0,lag_pair=0)", "adjustment-cost"),
        ("mono-own-lag(actions=0)", "mono-own-lag"),
        ("mono-rivals(actions=0)", "mono-rivals"),
    ])
    def test_game_single_index_argument(self, tmp_path, spec, bare):
        # the spec parser gives one index as a scalar; it reads as a one-element list
        docs = []
        for name, restrictions in (("arg", spec), ("bare", bare)):
            out = tmp_path / name
            assert main(["run", "--scenario", "entry-game", "--firm", "2", "--restrictions",
                         restrictions, "--beta-grid", "0:1:21", "--out-dir", str(out)]) == 0
            docs.append((out / "identified_set.json").read_bytes())
        assert docs[0] == docs[1]


class TestGameCliBranches:
    def test_inequality_restriction_region(self, tmp_path):
        out = tmp_path / "g_ineq"
        rc = main(["run", "--scenario", "entry-game", "--firm", "2",
                   "--restrictions", "mono-rivals", "--beta-grid", "0:1:51",
                   "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        (lo, hi), = ident["restrictions"]["mono_rivals"]["inequality_intervals"]
        assert lo == 0.0 and hi >= 0.99

    def test_adjustment_cost_reports_no_content(self, tmp_path):
        out = tmp_path / "g_adj"
        rc = main(["run", "--scenario", "entry-game", "--firm", "3",
                   "--restrictions", "adjustment-cost", "--beta-grid", "0:1:51",
                   "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        doc = ident["restrictions"]["adjustment_cost"]
        assert doc["equality_roots"] == []
        assert doc["diagnostics"].get("no_identifying_content")

    def test_uninformative_restriction_does_not_empty_combined_set(self, tmp_path):
        out = tmp_path / "g_comb"
        rc = main(["run", "--scenario", "entry-game", "--firm", "1",
                   "--restrictions", "exchangeability,adjustment-cost", "--beta-grid", "0:1:51",
                   "--out-dir", str(out)])
        assert rc == 0
        combined = json.loads((out / "identified_set.json").read_text())["combined"]
        assert combined["equality_roots"] == pytest.approx([0.8], abs=1e-3)
        assert combined["combined"] == pytest.approx([0.8], abs=1e-3)


class TestParameterizedRestrictions:
    def test_monotonicity_axis_argument(self, tmp_path):
        out = tmp_path / "argrun"
        rc = main(["run", "--scenario", "entry", "--restrictions", "monotonicity(axis=w)",
                   "--beta-grid", "0:1:51", "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        assert "monotonicity" in ident["restrictions"]
        # 12 rows along w as well: (J_w-1) * J_z * |y|
        header = (out / "curves.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 13

    def test_bad_argument_reports_error(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "entry", "--restrictions", "monotonicity(axis=q)",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "cannot build" in err["issues"][0]["message"]

    @pytest.mark.parametrize("source,spec", [
        (["--scenario", "entry-game", "--firm", "1"], "exchangeability(actions=1)"),
        # a single index off its range, not an integer, or a flag
        (["--scenario", "entry-game", "--firm", "2"], "adjustment-cost(lag_pair=1)"),
        (["--scenario", "entry-game", "--firm", "2"], "mono-own-lag(actions=-1)"),
        (["--scenario", "entry-game", "--firm", "2"], "exchangeability(actions=0.5)"),
        (["--scenario", "entry-game", "--firm", "2"], "mono-rivals(actions=true)"),
        (["--config", str(pathlib.Path(__file__).resolve().parents[1] / "configs" / "entry_model.json")],
         "homogeneity(bogus=3)"),
        (["--scenario", "entry"], "linearity(nu=2)"),
    ])
    def test_arguments_never_ignored(self, tmp_path, capsys, source, spec):
        # every source builds the restriction from the arguments or rejects them
        out = tmp_path / "o"
        rc = main(["run", *source, "--restrictions", spec, "--out-dir", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert "cannot build" in err["issues"][0]["message"]
        assert not out.exists()

    # each key of the entry catalogue with one of the scenario's own arguments
    # spelled out (linearity binds only its design matrix, and takes no keyword)
    SPELLED_OUT = {
        "homogeneity": ["homogeneity(nu=1.0)", "homogeneity(axis=w)"],
        "zero_cross": ["zero-cross(diff_axis=y)", "zero-cross(invariant_axes=wz)"],
        "monotonicity": ["monotonicity(axis=z)", "monotonicity(direction=increasing)"],
        "concavity": ["concavity(axis=z)", "concavity(convex=true)"],
        "complementarity": ["complementarity(axes=wz)", "complementarity(direction=complements)"],
    }

    def test_every_catalogue_key_is_spelled_out(self):
        bundle = build_entry_model()
        assert set(self.SPELLED_OUT) | {"linearity"} == set(entry_restrictions(bundle.states, bundle.H))

    @pytest.mark.parametrize("source", [_entry_source, _fd_source])
    @pytest.mark.parametrize("spec", [s for specs in SPELLED_OUT.values() for s in specs])
    def test_bound_arguments_spelled_out_give_the_bare_key(self, source, spec):
        # these once rebuilt the set from the bare builder's defaults
        builders, _, _ = source(argparse.Namespace())
        ((name, kwargs),) = parse_restriction_specs(spec)
        key, rs = _build_restriction(builders, name, kwargs)
        bare_key, bare = _build_restriction(builders, name, {})
        assert key == bare_key
        assert rs.label == bare.label and rs.kind == bare.kind
        assert rs.R.tobytes() == bare.R.tobytes() and rs.c.tobytes() == bare.c.tobytes()

    @pytest.mark.parametrize("spec,label", [
        ("concavity", "convexity(z)"),
        ("concavity(axis=w)", "convexity(w)"),
        ("concavity(axis=w,convex=false)", "concavity(w)"),
    ])
    def test_request_arguments_override_the_scenario(self, spec, label):
        builders, _, _ = _entry_source(argparse.Namespace())
        ((name, kwargs),) = parse_restriction_specs(spec)
        assert _build_restriction(builders, name, kwargs)[1].label == label

    @pytest.mark.parametrize("spec,message", [
        ("complementarity(direction=x)", "direction must be 'complements' or 'substitutes', not 'x'"),
        ("monotonicity(direction=up)", "direction must be 'increasing' or 'decreasing', not 'up'"),
        ("homogeneity(nu=nan)", "homogeneity degree nu = nan is not finite"),
        ("homogeneity(nu=true)", "homogeneity degree nu = True is not a number"),  # once degree 1
        ("concavity(axis=w,convex=no)", "convex must be true or false, not 'no'"),  # once convexity(w)
        ("zero-cross(diff_axis=y,diff_points=0)",  # once "'int' object is not iterable"
         "need at least two points along the difference axis and two across"),
    ])
    def test_bad_value_is_named(self, tmp_path, capsys, spec, message):
        out = tmp_path / "o"
        rc = main(["run", "--scenario", "entry", "--restrictions", spec, "--out-dir", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert err["issues"][0]["message"].endswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("spec,axis", [
        ("complementarity(axes=ww)", "'w'"),
        ("zero-cross(diff_axis=y,invariant_axes=yw)", "'y'"),
    ])
    def test_repeated_axis_is_invalid_config(self, tmp_path, capsys, spec, axis):
        out = tmp_path / "o"
        rc = main(["run", "--scenario", "entry", "--restrictions", spec, "--out-dir", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert "cannot build" in err["issues"][0]["message"]
        assert f"axis {axis} is named more than once" in err["issues"][0]["message"]
        assert not out.exists()


class TestCliEdges:
    def test_bad_beta_grid(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "entry", "--restrictions", "homogeneity",
                   "--beta-grid", "nonsense", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert any("lo:hi:n" in i["message"] for i in err["issues"])

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"),
                   "--restrictions", "x", "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "file_not_found"

    def assert_json_error(self, capsys, argv, error):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_config_directory_is_structured_error(self, tmp_path, capsys):
        self.assert_json_error(capsys, ["validate", "--config", str(tmp_path)], "file_error")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_not_utf8_is_structured_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        extra = ["--restrictions", "x", "--out-dir", str(tmp_path / "o")] if command == "run" else []
        self.assert_json_error(capsys, [command, "--config", str(path), *extra], "invalid_config")

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_dir_blocked_by_file_is_structured_error(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        self.assert_json_error(capsys, [
            "run", "--scenario", "entry", "--restrictions", "zero-cross", "--beta-grid", "0:1:11",
            "--out-dir", str(tmp_path / out)], "file_error")

    def test_blocked_out_dir_is_reported_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # the check runs before the scenario is built: the equilibrium solver never starts
        from ddcident import cli
        calls = []
        monkeypatch.setattr(cli, "solve_mpe", lambda *args, **kwargs: calls.append(args))
        (tmp_path / "file").write_text("")
        self.assert_json_error(capsys, [
            "run", "--scenario", "entry-game", "--firm", "1", "--restrictions", "exchangeability",
            "--out-dir", str(tmp_path / "file")], "file_error")
        assert calls == []

    def test_solver_failure_is_structured_error(self, tmp_path, capsys):
        # the largest float below 1 passes the model's checks, but I - beta*Q
        # is then singular to rounding and the Newton steps cannot settle:
        # validate, which solves the model to form the rows, and run both say so
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({
            "schema_version": 1, "mode": "single", "n_actions": 2, "n_states": 1,
            "Q": [[[1.0]], [[1.0]]], "payoffs": [[1.0], [0.0]], "beta": 0.9999999999999999,
            "restrictions": [{"label": "r", "kind": "inequality_ge", "n_columns": 1,
                              "rows": [{"cols": [0], "vals": [1.0]}], "c": [0.0]}]}))
        with pytest.raises(ConvergenceError):
            validate_config(json.loads(path.read_text()))
        for command in (["validate", "--config", str(path)],
                        ["run", "--config", str(path), "--restrictions", "r", "--out-dir", str(tmp_path / "o")]):
            assert main(command) == 2
            assert json.loads(capsys.readouterr().err)["error"] == "not_converged"

    def test_empty_restriction_list(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "entry", "--restrictions", ",",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    def assert_flag_rejected(self, tmp_path, capsys, args, flag):
        out = tmp_path / "o"
        rc = main(["run", *args, "--out-dir", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_config"
        assert [i["field"] for i in err["issues"]] == [flag]
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        ["--scenario", "entry", "--firm", "3"],
        ["--scenario", "entry-fd", "--firm", "1"],
        ["--config", str(REPO / "configs" / "entry_model.json"), "--firm", "1"],
        ["--config", str(REPO / "configs" / "entry_model.json"), "--scenario", "entry-game",
         "--firm", "1"],
    ])
    def test_firm_outside_the_game_rejected(self, tmp_path, capsys, source):
        # --firm selects a firm of the game scenario; anywhere else it would do nothing
        self.assert_flag_rejected(tmp_path, capsys, [*source, "--restrictions", "homogeneity"],
                                  "--firm")

    def test_infinite_beta_grid_rejected(self, tmp_path, capsys):
        self.assert_flag_rejected(tmp_path, capsys, [
            "--scenario", "entry", "--restrictions", "homogeneity", "--beta-grid", "0:inf:5"],
            "--beta-grid")

    @pytest.mark.parametrize("argv,message", [
        (["run", "--scenario", "nope", "--restrictions", "homogeneity"], "invalid choice: 'nope'"),
        # the solver tolerances are constants, not options
        (["run", "--scenario", "entry", "--restrictions", "homogeneity", "--tol-root", "1e-7"],
         "unrecognized arguments: --tol-root 1e-7"),
        (["run", "--scenario", "entry-game", "--restrictions", "exchangeability", "--firm", "1.5"],
         "invalid int value: '1.5'"),
        (["run", "--scenario", "entry"], "required: --restrictions"),
        (["bogus"], "invalid choice: 'bogus'"),
    ])
    def test_argument_errors_are_json_errors(self, tmp_path, capsys, argv, message):
        # argparse would print usage text; every failure is the JSON error instead
        assert main([*argv, "--out-dir", str(tmp_path / "o")] if argv[0] == "run" else argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "invalid_config"
        assert [i["field"] for i in err["issues"]] == ["arguments"]
        assert message in err["issues"][0]["message"]
        assert captured.out == "" and not (tmp_path / "o").exists()

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "-h"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ddcident run")


class TestFdZeroCross:
    def test_fd_zero_cross_reports_no_content(self, tmp_path):
        # in the one-dependent variant the cross-difference rows cancel within
        # every exogenous cell, so the run reports no identifying content
        out = tmp_path / "fd_zc"
        rc = main(["run", "--scenario", "entry-fd", "--restrictions", "zero-cross",
                   "--beta-grid", "0:1:51", "--out-dir", str(out)])
        assert rc == 0
        ident = json.loads((out / "identified_set.json").read_text())
        doc = ident["restrictions"]["zero_cross"]
        assert doc["equality_roots"] == []
        assert doc["diagnostics"].get("no_identifying_content")

    def test_uninformative_restriction_does_not_empty_combined_set(self, tmp_path):
        out = tmp_path / "fd_comb"
        rc = main(["run", "--scenario", "entry-fd", "--restrictions", "homogeneity,zero-cross",
                   "--beta-grid", "0:1:51", "--out-dir", str(out)])
        assert rc == 0
        combined = json.loads((out / "identified_set.json").read_text())["combined"]
        assert combined["equality_roots"] == pytest.approx([0.95], abs=1e-6)
        assert not combined["diagnostics"].get("no_identifying_content")

    def test_all_uninformative_is_reported_not_empty(self, tmp_path):
        out = tmp_path / "fd_none"
        rc = main(["run", "--scenario", "entry-fd", "--restrictions", "zero-cross,monotonicity",
                   "--beta-grid", "0:1:51", "--out-dir", str(out)])
        assert rc == 0
        combined = json.loads((out / "identified_set.json").read_text())["combined"]
        assert combined["diagnostics"].get("no_identifying_content")
        assert combined["equality_roots"] is None and combined["combined"] is None
        assert combined["inequality_intervals"]


class TestColdImport:
    """The package never imports scipy (only the tests use it, as a reference)."""

    SCIPY_HEAVY = ("scipy.stats", "scipy.linalg")

    @staticmethod
    def _env():
        src = str(pathlib.Path(ddcident.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def test_import_leaves_scipy_out(self):
        code = ("import sys, ddcident; "
                f"print([m for m in {self.SCIPY_HEAVY!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=self._env(), check=True)
        assert proc.stdout.strip() == "[]"

    def test_cli_run_leaves_scipy_out(self, tmp_path):
        # -X importtime lists every module the run imports, one per stderr line
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ddcident.cli", "run",
             "--scenario", "entry", "--restrictions", "homogeneity,zero-cross",
             "--beta-grid", "0.85:1.05:41", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=self._env())
        assert proc.returncode == 0, proc.stderr[-2000:]
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "ddcident.scenarios" in imported
        assert not imported & set(self.SCIPY_HEAVY)


# ---- validate/run agreement under random configs ---------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=3)
    | st.sampled_from([0.5, -1.0, 1e6, float("nan"), float("inf")]),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)


_EDIT_PATHS = [
    ("schema_version",), ("mode",), ("n_actions",), ("n_states",), ("beta",),
    ("Q",), ("Q", 0, 0, 0), ("Q", 1, 0), ("payoffs",), ("payoffs", 0, 0), ("ccps",), ("ccps", 1, 0),
    ("restrictions",), ("restrictions", 0), ("restrictions", 0, "label"), ("restrictions", 0, "kind"),
    ("restrictions", 0, "n_columns"), ("restrictions", 0, "rows"), ("restrictions", 0, "c"),
    ("restrictions", 0, "rows", 0, "cols"), ("restrictions", 0, "rows", 0, "cols", 0),
    ("restrictions", 0, "rows", 0, "vals"), ("restrictions", 0, "rows", 0, "vals", 0),
]


@st.composite
def _configs(draw):
    """A valid two-action config, then up to three random edits: a value
    replaced or deleted anywhere, or the restriction listed twice."""
    J = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    Q = rng.random((2, J, J)) + 0.1
    Q /= Q.sum(axis=2, keepdims=True)
    cfg = {"schema_version": 1, "mode": "single", "n_actions": 2, "n_states": J,
           "Q": Q.tolist(), "beta": draw(st.sampled_from([0.0, 0.5, 0.9]))}
    if draw(st.booleans()):
        cfg["payoffs"] = rng.uniform(-2, 2, (2, J)).tolist()
    else:
        p = rng.uniform(0.2, 0.8, J)
        cfg["ccps"] = [p.tolist(), (1 - p).tolist()]
    cols = [0, J - 1] if J > 1 else [0]
    cfg["restrictions"] = [{"label": "r", "kind": draw(st.sampled_from(["equality", "inequality_ge"])),
                            "n_columns": J, "c": [0.0],
                            "rows": [{"cols": cols, "vals": [1.0, -1.0][:len(cols)]}]}]
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(_EDIT_PATHS + [None]))
        if path is None:
            if isinstance(cfg.get("restrictions"), list) and cfg["restrictions"]:
                cfg["restrictions"] = [cfg["restrictions"][0]] * 2
            continue
        try:
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(_JSON_VALUES)
        except (KeyError, IndexError, TypeError):
            pass
    return cfg


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(cfg=_configs())
    def test_accepted_config_runs_or_fails_structured(self, cfg):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            if validate_config(json.loads(json.dumps(cfg))):
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["run", "--config", path, "--restrictions", "r",
                           "--beta-grid", "0:1:5", "--out-dir", os.path.join(d, "o")])
            assert rc in (0, 2)
            if rc == 2:
                assert "error" in json.loads(err.getvalue())
