"""The benchmark's trace probes (``perfbench/spans.py``) resolve on the package.

``perfbench/run.py --trace 1`` wraps every ``(module, function)`` in
``spans.TARGETS`` and reads coefficient-stack sizes off some results; a
refactor that renames one of them would otherwise break traced runs only.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from ddcident import betapoly, ddc, games
from ddcident.scenarios import build_entry_game, build_entry_model

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    spans = load_spans()
    for name in spans.MODULES:
        importlib.import_module(name)
    for home, name in spans.TARGETS:
        fn = getattr(importlib.import_module(f"ddcident.{home}"), name, None)
        assert callable(fn), f"ddcident.{home}.{name} is gone"


def test_result_probes_read_their_results():
    spans = load_spans()
    model = build_entry_model().model
    sol = ddc.solve_bellman(model)
    ms = ddc.master_system(sol.psi, model.Q)
    assert ms.m.coeff_mats.shape == (18, 18, 18)
    game = build_entry_game().model
    results = {"ddc.solve_bellman": sol, "ddc.master_system": ms,
               "betapoly.faddeev_adj_det": betapoly.faddeev_adj_det(model.Q[-1]),
               "games.solve_mpe": games.solve_mpe(game)}
    assert set(results) == set(spans.RESULT_COUNTS)
    for name, result in results.items():
        _, amount = spans.RESULT_COUNTS[name]
        assert amount(result) > 0, name


def test_determinant_is_callable_as_the_sweep_calls_it():
    # perfbench/sweep.py evaluates the second part of faddeev_adj_det at 0.95
    Q = build_entry_model().model.Q[-1]
    _, det = betapoly.faddeev_adj_det(Q)
    assert abs(float(det(0.95)) - np.linalg.det(np.eye(len(Q)) - 0.95 * Q)) <= 1e-8


def test_tracer_installs_and_counts():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        model = build_entry_model().model
        ddc.master_system(ddc.solve_bellman(model).psi, model.Q)
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"ddc.solve_bellman", "ddc.master_system", "betapoly.faddeev_adj_det"} <= names
    assert tracer.counts["betapoly.coeff_stack_mb"] > 0
