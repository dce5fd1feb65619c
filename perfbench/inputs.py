"""Seeded inputs for the benchmark workloads.

Every draw comes from ``numpy.random.default_rng([seed, code])`` with a fixed
code per workload, so one ``--seed`` gives the same inputs on every run and
every machine.  The operations in ``workloads.py`` build everything else from
these inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ddcident import restrictions, scenarios
from ddcident.ddc import SingleAgentModel

# rounds of distinct inputs cycled by the mixed-input workloads
ENTRY_DRAWS = 7
GAME_DRAWS = 5
# the game's cost grows with each firm's beta, so betas stay near these
GAME_BETAS = (0.8, 0.9, 0.95)
# About one random game draw in a few hundred loses a firm's planted root:
# identified_set_game takes its candidate roots from the first polynomial
# alone, whose root can sit 3e-4 off.  Seeded draws would make the failed
# share depend on the seed, so the game draws come from this fixed generator
# seed, and the seed only picks where the cycle starts.
GAME_POOL_SEED = 0
# single-large fails on every operation from a named fault; such inputs must
# not depend on the seed, so its models come from these fixed generator seeds
LARGE_MODEL_SEEDS = (0, 1)
LARGE_J = 144
LARGE_BETA = 0.9

CLI_COMMANDS = (
    ("entry", ["run", "--scenario", "entry", "--restrictions", "homogeneity,zero-cross",
               "--beta-grid", "0.85:1.05:401"]),
    ("entry-fd", ["run", "--scenario", "entry-fd", "--restrictions", "homogeneity"]),
    ("entry-game", ["run", "--scenario", "entry-game", "--firm", "1",
                    "--restrictions", "exchangeability"]),
)
CLI_EXPECTED_COMBINED = {"entry": [0.95], "entry-fd": [0.95], "entry-game": [0.8]}
CLI_GRID_ROWS = {"entry": 401, "entry-fd": 2001, "entry-game": 2001}


@dataclass
class EntryDraw:
    """Entry-model parameters (the operation builds the model) and a planted
    log-difference model."""

    cfg: scenarios.EntryModelConfig
    logdiff: "LogDiffModel"


@dataclass
class LogDiffModel:
    """Three-state model with a planted log-payoff restriction ``r @ log U = c``."""

    model: SingleAgentModel
    r: np.ndarray
    c: float


@dataclass
class LargeModel:
    """Banded synthetic model whose payoff is linear in three parameters."""

    model: SingleAgentModel
    H: np.ndarray
    states: restrictions.FactoredStates


@dataclass
class GameDraw:
    """Entry-game parameters; the operation builds the game."""

    cfg: scenarios.EntryGameConfig


def _rng(seed: int, code: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 64, code])  # seed words must be >= 0


def entry_draws(seed: int, n: int = ENTRY_DRAWS) -> list[EntryDraw]:
    """Seeded draws of the 18-state entry model (beta and theta drawn)."""
    rng = _rng(seed, 1)
    out = []
    for _ in range(n):
        theta = (rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.8),
                 rng.uniform(0.7, 1.3), rng.uniform(0.5, 1.5))
        cfg = scenarios.EntryModelConfig(theta=tuple(float(t) for t in theta),
                                         beta=float(rng.uniform(0.85, 0.97)))
        out.append(EntryDraw(cfg=cfg, logdiff=log_diff_model(rng)))
    return out


def log_diff_model(rng: np.random.Generator) -> LogDiffModel:
    """Planted three-state model: ``U = exp(a + b*w**2)`` on the ray grid
    (1, 2, 4), whose log payoffs satisfy the degree-2 log-difference weights."""
    w = np.array([1.0, 2.0, 4.0])
    u1 = np.exp(rng.uniform(0.1, 0.5) + rng.uniform(0.04, 0.12) * w ** 2)
    Q = rng.random((2, 3, 3)) + 0.2
    Q /= Q.sum(axis=2, keepdims=True)
    model = SingleAgentModel(u=np.stack([u1, np.zeros(3)]), Q=Q,
                             beta=float(rng.uniform(0.4, 0.8)))
    fs = restrictions.FactoredStates(axes=("w",), grids=(w,), n_actions=2)
    r, c = restrictions.log_diff_restriction(fs, 0, base=1.0, lambdas=[2.0, 4.0], nu=2.0)
    return LogDiffModel(model=model, r=np.asarray(r), c=float(c))


def banded_model(J: int, beta: float, gen_seed: int, band: int = 3) -> LargeModel:
    """``J``-state, two-action model with banded random transitions.

    Action 0 drifts up the state grid and action 1 drifts down; the payoff of
    action 0 is ``H @ theta`` with ``H = [1, x, sqrt(x)]`` on ``x`` in [0, 1]
    and positive slopes, so it is strictly increasing; action 1 pays zero.
    """
    rng = np.random.default_rng([gen_seed, J, 3])
    x = np.linspace(0.0, 1.0, J)
    Q = np.zeros((2, J, J))
    for a, drift in ((0, 1), (1, -1)):
        for i in range(J):
            lo, hi = max(0, i - band), min(J, i + band + 1)
            w = rng.uniform(0.5, 1.5, hi - lo)
            centre = min(max(i + drift, lo), hi - 1)
            w[centre - lo] += 2.0
            Q[a, i, lo:hi] = w / w.sum()
    H = np.column_stack([np.ones(J), x, np.sqrt(x)])
    theta = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8)])
    model = SingleAgentModel(u=np.stack([H @ theta, np.zeros(J)]), Q=Q, beta=beta)
    fs = restrictions.FactoredStates(axes=("x",), grids=(x,), n_actions=2)
    return LargeModel(model=model, H=H, states=fs)


def large_models() -> list[LargeModel]:
    return [banded_model(LARGE_J, LARGE_BETA, s) for s in LARGE_MODEL_SEEDS]


def game_draws(seed: int, n: int = GAME_DRAWS) -> list[GameDraw]:
    """Seeded variants of the three-firm entry game (betas and fixed costs drawn)."""
    rng = _rng(seed, 4)
    out = []
    for _ in range(n):
        betas = tuple(float(b + rng.uniform(-0.01, 0.01)) for b in GAME_BETAS)
        fc = tuple(float(f) for f in rng.uniform(0.7, 1.1, 3))
        out.append(GameDraw(cfg=scenarios.EntryGameConfig(betas=betas, theta_fc=fc)))
    return out


def make_inputs(workload: str, seed: int):
    """The full input list of one workload (CLI commands need no generation)."""
    if workload == "cli-cold":
        return list(CLI_COMMANDS)
    if workload == "single-entry":
        return entry_draws(seed)
    if workload == "single-large":
        return large_models()
    if workload == "game-mpe":
        return game_draws(GAME_POOL_SEED)
    raise ValueError(f"unknown workload {workload!r}")
