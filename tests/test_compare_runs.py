"""``tools/compare_runs.py`` separates float drift from structural change."""

import importlib.util
import json
import pathlib

import pytest

TOOL_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_runs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_runs", TOOL_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SET = {"combined": {"equality_roots": [0.8], "diagnostics": {"firm": 0}}, "label": "eq"}
CURVES = "beta,exchangeability_0,exchangeability_1\n0,1,2\n0.5,3,4\n"


def write_run(root, name, doc=SET, curves=CURVES):
    run = root / name
    run.mkdir(parents=True)
    (run / "identified_set.json").write_text(json.dumps(doc))
    (run / "curves.csv").write_text(curves)


def test_identical_and_float_drift(tool, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        write_run(root, "same")
    write_run(a, "moved")
    drift = {**SET, "combined": {"equality_roots": [0.8 + 2e-9], "diagnostics": {"firm": 0}}}
    write_run(b, "moved", drift, CURVES.replace("0.5,3,4", "0.5,3,4.25"))
    assert tool.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "byte-identical (1): same" in out
    assert "identified_set.json  combined.equality_roots[]  2e-09  rel 2.5e-09" in out
    assert "curves.csv  exchangeability_*  0.25  rel 0.0588" in out
    assert "identified_set.json  1 numeric fields unchanged" in out
    assert "structural changes (0)" in out


def test_relative_gap_separates_drift_from_a_drop(tool, tmp_path, capsys):
    # a root drifting by 1e-11 and a condition estimate falling 122 -> 30
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "run", {"roots": [0.8, 0.9], "cond": 122.0, "nan": float("nan")})
    write_run(b, "run", {"roots": [0.8 + 1e-11, 0.9], "cond": 30.5, "nan": 1.0})
    assert tool.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "identified_set.json  roots[]  1e-11  rel 1.11e-11" in out
    assert "identified_set.json  cond  91.5  rel 0.75" in out
    assert "identified_set.json  nan  inf  rel inf" in out


def test_relative_gap_of_a_zero_crossing_curve(tool, tmp_path, capsys):
    # a curve through zero drifting by rounding reads relative to the
    # column's largest magnitude, not its value at the crossing
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "run", curves="beta,linearity_0\n0,-2\n0.5,1e-13\n1,4\n")
    write_run(b, "run", curves="beta,linearity_0\n0,-2\n0.5,-1e-13\n1,4\n")
    assert tool.main([str(a), str(b)]) == 0
    assert "curves.csv  linearity_*  2e-13  rel 5e-14" in capsys.readouterr().out


@pytest.mark.parametrize("doc,curves,message", [
    ({**SET, "extra": 1}, CURVES, "keys ['extra'] on one side only"),
    ({**SET, "combined": {"equality_roots": [0.8, 0.9], "diagnostics": {"firm": 0}}}, CURVES,
     "list length 1 -> 2"),
    ({**SET, "label": "ge"}, CURVES, "label: 'eq' -> 'ge'"),
    (SET, CURVES + "1,5,6\n", "row count 2 -> 3"),
    (SET, CURVES.replace("beta", "b"), "header differs"),
], ids=["keys", "list-length", "string", "row-count", "header"])
def test_structural_change_fails(tool, tmp_path, capsys, doc, curves, message):
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "run")
    write_run(b, "run", doc, curves)
    assert tool.main([str(a), str(b)]) == 1
    assert message in capsys.readouterr().out


def test_run_on_one_side_only(tool, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "run")
    write_run(b, "run")
    write_run(b, "new")
    assert tool.main([str(a), str(b)]) == 1
    assert "new: run on one side only" in capsys.readouterr().out
