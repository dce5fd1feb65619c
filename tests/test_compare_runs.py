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
    assert "identified_set.json  combined.equality_roots[]  2e-09" in out
    assert "curves.csv  exchangeability_*  0.25" in out
    assert "identified_set.json  1 numeric fields unchanged" in out
    assert "structural changes (0)" in out


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
