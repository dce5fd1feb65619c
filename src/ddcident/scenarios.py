"""Reference model builders: AR(1) discretization, a dynamic entry model, and a
three-firm entry game, at fixed documented parameterizations."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from statistics import NormalDist

import numpy as np

from .betapoly import check_stochastic, require_finite
from .ddc import SingleAgentModel
from .games import GameModel, payoff_cells
from .restrictions import (
    FactoredStates,
    additive_homogeneous,
    complementarity,
    concavity,
    linear_in_parameters,
    monotonicity,
    zero_cross_difference,
)


def _norm_cdf(z) -> np.ndarray:
    """Standard normal cdf by ``erfc``, accurate in the lower tail (where
    ``1 + erf`` cancels)."""
    return np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in z])


def ar1_transition(grid, gamma1: float, sigma: float, shift: float = 0.0) -> np.ndarray:
    """Transition matrix on a fixed ascending grid for ``x' = shift + gamma1*x + e``,
    ``e ~ N(0, sigma^2)``, with midpoint-rule cell probabilities and tail mass
    assigned to the edge points; a row with a negative or NaN entry, as from a
    descending grid or ``sigma <= 0``, is a ValueError."""
    grid = require_finite(grid, "grid")
    J = len(grid)
    if J == 1:
        return np.ones((1, 1))
    mid = 0.5 * (grid[1:] + grid[:-1])
    T = np.empty((J, J))
    for i in range(J):
        mu = shift + gamma1 * grid[i]
        cdf = _norm_cdf((mid - mu) / sigma)
        T[i, 0] = cdf[0]
        T[i, 1:-1] = np.diff(cdf)
        T[i, -1] = 1.0 - cdf[-1]
    return check_stochastic(T, "AR(1) transition row", ("state",))


def tauchen(gamma1: float, sigma: float, J: int, center: float = 0.0):
    """Finite-state approximation of a stationary AR(1) process.

    Grid endpoints sit at the ``0.5/J`` and ``1 - 0.5/J`` quantiles of the
    stationary distribution (equispaced points in between), shifted to
    ``center``; transition probabilities use the midpoint rule.

    Returns
    -------
    grid : ndarray, shape (J,)
    T : ndarray, shape (J, J), row-stochastic
    """
    if J < 1:
        raise ValueError("need at least one grid point")
    if not abs(gamma1) < 1.0:
        raise ValueError("AR(1) coefficient must satisfy |gamma1| < 1 for stationarity")
    if sigma <= 0.0:
        raise ValueError("innovation standard deviation must be positive")
    if J == 1:
        return np.array([center]), np.ones((1, 1))
    sd_stat = sigma / np.sqrt(1.0 - gamma1 ** 2)
    half = NormalDist().inv_cdf(1.0 - 0.5 / J) * sd_stat
    grid = center + np.linspace(-half, half, J)
    T = ar1_transition(grid, gamma1, sigma, shift=center * (1.0 - gamma1))
    return grid, T


@dataclass(frozen=True)
class EntryModelConfig:
    """Parameterization of the single-firm entry model.

    The firm operates (action 0) or stays out (action 1, payoff normalized to
    zero).  Operating pays ``theta1 + exp(z)*(theta2 + theta3*w) + (1-y)*theta4``
    where ``y`` flags operation in the previous period.  ``w`` is an exogenous
    AR(1); the productivity ``z`` is AR(1) whose level is shifted by
    ``gamma_a_z`` when the firm operated last period (the shift rides on the
    lagged-action state, so transitions vary with ``y``).

    ``sigma_w = None`` (the default) sizes the ``w`` innovation so that the top
    grid point equals ``theta2/theta3``; marginal profit is then exactly zero
    at the lowest ``w`` and the monotonicity/curvature restrictions bind there.
    This boundary calibration is what makes the inequality restrictions
    informative about the discount factor in the reference runs.
    """

    theta: tuple = (1.0, 0.5, 1.0, 1.0)
    beta: float = 0.95
    gamma_w: float = 0.5
    gamma_a_z: float = 1.0
    gamma_1_z: float = 0.5
    sigma_w: float | None = None
    sigma_z: float = 1.0
    J_w: int = 3
    J_z: int = 3

    def resolved_sigma_w(self) -> float:
        if self.sigma_w is not None:
            return self.sigma_w
        top = self.theta[1] / self.theta[2]
        return top * np.sqrt(1.0 - self.gamma_w ** 2) / NormalDist().inv_cdf(1.0 - 0.5 / self.J_w)


@dataclass(frozen=True)
class EntryModelBundle:
    """The built entry model together with its restriction suite.

    ``restrictions`` maps the keys of :func:`entry_restrictions` to their sets
    on the stacked operating payoff; ``H`` is the linear-in-parameters design
    matrix and ``u_true`` the stacked true payoff.
    """

    model: SingleAgentModel
    states: FactoredStates
    restrictions: dict
    H: np.ndarray
    u_true: np.ndarray
    config: EntryModelConfig


def _entry_state_space(cfg: EntryModelConfig):
    sigma_w = cfg.resolved_sigma_w()
    w_grid, T_w = tauchen(cfg.gamma_w, sigma_w, cfg.J_w, center=0.0)
    # the z process is recentred at its long-run mean under even odds of
    # operating; conditional transitions shift with the lagged-action flag
    z_center = (0.5 * cfg.gamma_a_z) / (1.0 - cfg.gamma_1_z)
    z_grid, _ = tauchen(cfg.gamma_1_z, cfg.sigma_z, cfg.J_z, center=z_center)
    T_z_by_y = [ar1_transition(z_grid, cfg.gamma_1_z, cfg.sigma_z, shift=cfg.gamma_a_z * y)
                for y in (0.0, 1.0)]
    return w_grid, T_w, z_grid, T_z_by_y


def entry_restrictions(states: FactoredStates, H) -> dict:
    """The entry model's named restrictions on the operating payoff (action
    0): each key's builder with the scenario's arguments bound, so a call
    without arguments gives the scenario's set and keywords override them
    (``linearity`` takes none)."""
    return {
        "homogeneity": partial(additive_homogeneous, states, 0, nu=1.0, axis="w"),
        "zero_cross": partial(zero_cross_difference, states, 0, diff_axis="y"),
        "monotonicity": partial(monotonicity, states, 0, axis="z"),
        "concavity": partial(concavity, states, 0, axis="z", convex=True),
        "complementarity": partial(complementarity, states, 0, axes=("w", "z")),
        "linearity": partial(linear_in_parameters, H),
    }


def build_entry_model(cfg: EntryModelConfig | None = None) -> EntryModelBundle:
    """Construct the entry model and its full restriction suite.

    The state is ``(w, z, y)`` with ``w`` varying fastest; ``y`` is the lagged
    operating flag.  ``y`` transitions deterministically to the chosen action,
    and the ``z`` transition shifts with the current ``y``, so transition rows
    differ across lagged actions (this is what gives the cross-difference
    restriction identifying content).
    """
    cfg = cfg or EntryModelConfig()
    th1, th2, th3, th4 = cfg.theta
    w_grid, T_w, z_grid, T_z_by_y = _entry_state_space(cfg)
    fs = FactoredStates(axes=("w", "z", "y"), grids=(w_grid, z_grid, np.array([0.0, 1.0])),
                        n_actions=2)
    J = fs.n_states
    n_wz = cfg.J_w * cfg.J_z

    # grid values in state-index order: w fastest, then z, then y
    wv, zv, yv = (v.ravel(order="F") for v in np.meshgrid(*fs.grids, indexing="ij"))
    u1 = th1 + np.exp(zv) * (th2 + th3 * wv) + (1.0 - yv) * th4
    u = np.stack([u1, np.zeros(J)])

    Q = np.zeros((2, J, J))
    for a in range(2):
        y_next = 1 - a  # action 0 (operate) leads to y' = 1
        for iy in range(2):
            block = np.kron(T_z_by_y[iy], T_w)
            Q[a][iy * n_wz:(iy + 1) * n_wz, y_next * n_wz:(y_next + 1) * n_wz] = block
    model = SingleAgentModel(u=u, Q=Q, beta=cfg.beta)

    H = np.column_stack([np.ones(J), np.exp(zv), np.exp(zv) * wv, 1.0 - yv])
    restr = {key: build() for key, build in entry_restrictions(fs, H).items()}
    return EntryModelBundle(model=model, states=fs, restrictions=restr, H=H,
                            u_true=u1.copy(), config=cfg)


def build_entry_model_fd(cfg: EntryModelConfig | None = None) -> EntryModelBundle:
    """Entry model variant without the action feedback into productivity
    (``gamma_a_z = 0``), which makes both shocks exogenous and the model
    one-dependent."""
    cfg = replace(cfg or EntryModelConfig(), gamma_a_z=0.0)
    return build_entry_model(cfg)


@dataclass(frozen=True)
class EntryGameConfig:
    """Parameterization of the three-firm entry game.

    Operating (action 0) pays ``theta_rs*log(S) - theta_rn*log(1 + n_rivals_in)
    - theta_fc_i - theta_ec*(own lag = out)``; staying out (action 1) pays
    zero, which is declared known.  Market size follows the fixed three-state
    chain below.  ``theta_rn`` has no canonical reference value; 1.0 is the
    shipped default.
    """

    n_firms: int = 3
    theta_rs: float = 1.0
    theta_rn: float = 1.0
    theta_ec: float = 1.0
    theta_fc: tuple = (1.0, 0.9, 0.8)
    betas: tuple = (0.8, 0.9, 0.95)
    s_values: tuple = (2.0, 6.0, 10.0)
    s_transition: tuple = ((0.8, 0.2, 0.0), (0.2, 0.6, 0.2), (0.0, 0.2, 0.8))


@dataclass(frozen=True)
class EntryGameBundle:
    """The built game plus per-firm linear-in-parameters design matrices."""

    model: GameModel
    designs: tuple  # one (n_cells, 4) design matrix per firm; (n_cells, 3) for a lone firm
    config: EntryGameConfig


def build_entry_game(cfg: EntryGameConfig | None = None) -> EntryGameBundle:
    """Construct the reference entry game.

    The payoff tensor depends on rivals only through how many of them operate,
    is independent of rivals' lagged actions, and carries an entry cost that
    does not interact with rivals' play, so the exchangeability,
    lag-irrelevance, and adjustment-cost restrictions all hold exactly.
    """
    cfg = cfg or EntryGameConfig()
    N, K = cfg.n_firms, 2
    theta_fc = require_finite(cfg.theta_fc, "theta_fc")
    if theta_fc.shape != (N,):
        raise ValueError(f"theta_fc must hold one entry per firm: {N} firms, got shape {theta_fc.shape}")
    s_values = require_finite(cfg.s_values, "s_values")
    # scalar logs: numpy's vectorized log may round differently
    log_s = np.array([np.log(v) for v in s_values])
    log_1n = np.array([np.log(1.0 + n) for n in range(N)])

    def n_in(o):  # rivals operating in rival profile o (mixed radix, lowest rival fastest)
        return (o[..., None] // K ** np.arange(N - 1) % K == 0).sum(axis=-1)

    n_o, m_x = K ** (N - 1), len(s_values) * K ** N
    o, x = np.ogrid[:n_o, :m_x]
    s_idx, lag = divmod(x, K ** N)
    payoffs = np.zeros((N, K, n_o, m_x))
    for i in range(N):
        own_out = np.where(lag // K ** i % K == 1, 1.0, 0.0)
        payoffs[i, 0] = (cfg.theta_rs * log_s[s_idx] - cfg.theta_rn * log_1n[n_in(o)]
                         - theta_fc[i] - cfg.theta_ec * own_out)
    model = GameModel(n_firms=N, n_actions=K, s_values=s_values,
                      s_transition=cfg.s_transition, payoffs=payoffs, betas=cfg.betas,
                      last_action_known=True)

    # every firm's baseline cells have the same (action, o, s, own lag) layout
    _, o, s, own = (a.ravel() for a in np.indices(payoff_cells(model, 0)[..., 0].shape))
    design = np.column_stack([log_s[s], -log_1n[n_in(o)], np.full(len(s), -1.0),
                              np.where(own == 1, -1.0, 0.0)])
    # a lone firm has no rivals to count: that column would be all zero
    design = design[:, [0, 2, 3] if N == 1 else [0, 1, 2, 3]]
    return EntryGameBundle(model=model, designs=tuple(design.copy() for _ in range(N)), config=cfg)
