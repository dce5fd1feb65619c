"""The benchmark's answer checks accept the program's answers and reject
corrupted ones.  Run with ``python3 -m pytest perfbench`` from the repository root."""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
from ddcident import ddc, games, scenarios  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def entry():
    return workloads.single_entry_op(inputs.entry_draws(seed=3, n=1)[0])


@pytest.fixture(scope="module")
def game():
    return workloads.game_op(inputs.game_draws(seed=3, n=1)[0])


def failures(res, check):
    return check(res)[0]


def test_program_answers_pass(entry, game):
    assert failures(entry, workloads.check_single_entry) == []
    assert failures(game, workloads.check_game) == []


@pytest.mark.parametrize("key", ["homogeneity", "zero_cross", "linearity"])
def test_shifted_root_rejected(entry, key):
    bad = copy.copy(entry)
    bad["eq"] = {**entry["eq"], key: [r + 1e-3 for r in entry["eq"][key]]}
    msgs = failures(bad, workloads.check_single_entry)
    assert any("not among roots" in m for m in msgs)
    assert any("leaves row slack" in m for m in msgs)


def test_shifted_fd_and_log_diff_roots_rejected(entry):
    bad = copy.copy(entry)
    bad["fd_eq"] = [r + 1e-3 for r in entry["fd_eq"]]
    assert any(m.startswith("fd homogeneity") for m in failures(bad, workloads.check_single_entry))
    bad = copy.copy(entry)
    bad["log_roots"] = [r + 1e-3 for r in entry["log_roots"]]
    assert any(m.startswith("log_diff") for m in failures(bad, workloads.check_single_entry))


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
@pytest.mark.parametrize("key", ["monotonicity", "concavity"])
def test_moved_region_endpoint_rejected(entry, key, shift):
    ivs = entry["iq"][key]
    # move every endpoint strictly inside (0, 1); the edges have no outside
    moved = [(lo + shift if lo > 0 else lo, hi + shift if hi < 1 else hi) for lo, hi in ivs]
    assert moved != ivs
    bad = copy.copy(entry)
    bad["iq"] = {**entry["iq"], key: moved}
    assert any(m.startswith(key) for m in failures(bad, workloads.check_single_entry))


def test_dropped_combined_root_rejected(entry):
    bad = copy.copy(entry)
    bad["combined"] = {**entry["combined"], ("homogeneity", "monotonicity"): []}
    assert any(m.startswith("combine") for m in failures(bad, workloads.check_single_entry))


def test_perturbed_equilibrium_rejected(game):
    bad = copy.copy(game)
    P = game["P"].copy()
    P[1, 0, 5] += 1e-4
    P[1, 1, 5] -= 1e-4
    bad["P"] = P
    assert any("logit response" in m for m in failures(bad, workloads.check_game))


def test_shifted_and_extra_game_roots_rejected(game):
    key = (2, "linearity")
    pts, rows = game["roots"][key]
    bad = copy.copy(game)
    bad["roots"] = {**game["roots"], key: ([r + 2e-3 for r in pts], rows)}
    msgs = failures(bad, workloads.check_game)
    assert any("firm 2 linearity: planted beta" in m for m in msgs)
    assert any("firm 2 linearity: root" in m for m in msgs)
    # an extra root next to the planted one is not confirmed by recovery
    bad["roots"] = {**game["roots"], key: ([*pts, pts[0] + 1e-4], rows)}
    msgs = failures(bad, workloads.check_game)
    assert [m for m in msgs if "leaves row slack" in m] and len(msgs) == 1


def test_moved_game_region_rejected(game):
    key = (0, "mono_rivals")
    _, R4, c4 = game["regions"][key]
    bad = copy.copy(game)
    bad["regions"] = {**game["regions"], key: ([(0.0, 0.5)], R4, c4)}
    assert any("firm 0 mono_rivals: endpoint" in m for m in failures(bad, workloads.check_game))


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_moved_game_region_endpoint_rejected(shift):
    # the shipped monotone regions are all of [0, 1); raising the bound c4 to
    # the rows' least slack at 0.95 gives a region with an endpoint inside
    draw = inputs.game_draws(seed=3, n=1)[0]
    model = scenarios.build_entry_game(draw.cfg).model
    mpe = games.solve_mpe(model)
    R4, c4 = games.r4_monotone_rivals(model, 0)
    c4 = c4 + float(np.min(R4 @ checks.game_recovery(model, mpe.P, 0)(0.95) - c4))
    ivs = games.inequality_region_game(games.build_system(model, mpe, 0), R4, c4).inequality_intervals
    regions = {(0, "shifted"): (ivs, R4, c4)}
    inner = [x for iv in ivs for x in iv if 0.0 < x < 1.0]
    assert inner
    assert checks.check_game(model, mpe.P, mpe.residual, {}, regions)[0] == []
    moved = [tuple(x + shift if 0.0 < x < 1.0 else x for x in iv) for iv in ivs]
    msgs = checks.check_game(model, mpe.P, mpe.residual, {}, {(0, "shifted"): (moved, R4, c4)})[0]
    assert any("endpoint" in m for m in msgs)


@pytest.fixture(scope="module")
def large():
    return workloads.single_large_op(inputs.large_models()[0])


def test_large_model_check_accepts_only_the_planted_root(large):
    right = dict(large, eq=[inputs.LARGE_BETA])
    assert not any(m.startswith("linearity") for m in failures(right, workloads.check_single_large))
    shifted = dict(large, eq=[inputs.LARGE_BETA + 1e-3])
    msgs = failures(shifted, workloads.check_single_large)
    assert any("not among roots" in m for m in msgs)
    assert any("leaves row slack" in m for m in msgs)


def run_large(op, large):
    tally = worker.Tally()
    worker.timed_phase(op, workloads.check_single_large, [large["model"]], 0, 0.0, tally,
                       named_fault=workloads.is_large_fault)
    return tally


def test_large_named_fault_is_expected_and_other_faults_are_not(large):
    # the program's answer fails from the named fault only: correct stays true
    tally = run_large(lambda m: large, large)
    assert (tally.failed, tally.unexpected) == (1, 0)

    def raising(m):
        raise ValueError("broken master system")

    tally = run_large(raising, large)
    assert (tally.failed, tally.unexpected) == (1, 1)
    wrong_psi = dict(large, psi=large["psi"] + [[1e-3], [0.0]])
    tally = run_large(lambda m: wrong_psi, large)
    assert (tally.failed, tally.unexpected) == (1, 1)
    assert any(m.startswith("bellman") for m in tally.messages)


def test_cli_check_rejects_changed_artifacts():
    good = {
        "identified_set.json": b'{"combined": {"combined": [0.95]}}',
        "curves.csv": b"beta,a\n" + b"0.9,1\n" * 3,
        "run_manifest.json": b"{}",
    }
    assert checks.check_cli_run("entry", good, [0.95], 3, good, 1e-6) == []
    wrong_root = dict(good, **{"identified_set.json": b'{"combined": {"combined": [0.951]}}'})
    assert checks.check_cli_run("entry", wrong_root, [0.95], 3, None, 1e-6)
    assert checks.check_cli_run("entry", good, [0.95], 4, None, 1e-6)
    changed = dict(good, **{"run_manifest.json": b"{ }"})
    assert checks.check_cli_run("entry", changed, [0.95], 3, good, 1e-6)


def test_recovery_matches_planted_payoff():
    m = inputs.banded_model(12, 0.7, gen_seed=5)
    psi = ddc.solve_bellman(m.model).psi
    assert np.allclose(checks.recover_payoffs(psi, m.model.Q, 0.7), m.model.u[0], atol=1e-9)
