"""Dynamic discrete games: primitives, equilibrium solver, and per-firm
discount-factor identification.

States are pairs of an exogenous component and the lagged action profile;
each firm's index maps over them are built once per game.  :func:`solve_mpe`
finds an equilibrium by damped best-response sweeps on conditional choice
probabilities, with Anderson extrapolation, to ``MPE_TOL``.  Identification
maps each firm's single-agent system of its equilibrium objects through one
small square block per exogenous state and own lagged action, rivals' lagged
actions being irrelevant; cross-firm payoff restrictions are then polynomial
rows in the firm's discount factor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .betapoly import _numbers, check_stochastic, freeze, require_finite
from .ddc import EULER_GAMMA, MasterSystem, _logit, _newton_step, master_system, solve_logit
from .errors import ConvergenceError, RankDeficiencyError
from .identify import IdentifiedSet, identified_set
from .restrictions import _flat_points, _stencil_rows, linear_in_parameters

# solve_mpe's sweeps: the extrapolation depth, the damping, the largest change
# after which a sweep is local, the tolerance of the change and the residual
# (build_system flags a larger residual), the stall that is the floor, the cap
ANDERSON_DEPTH = 5
DAMPING = 0.5
LOCAL_CHANGE = 1e-3
MPE_TOL = 1e-12
FLOOR_SWEEPS = 10
MAX_SWEEPS = 100_000


class _FirmMaps(NamedTuple):
    """Index maps of one firm that depend on the game only, read-only.

    ``cells`` is :func:`payoff_cells`; ``rivals`` lists the other firms,
    lowest first, and ``rival_actions[t, o]``, shape ``(N-1, K**(N-1))``, is
    rival ``t``'s action in rival profile ``o``; ``next_s[x]``, shape ``(m_x, 1, m_s)``, is the exogenous
    transition row of state ``x``; ``lag_cols[k]`` holds the ``Q_star``
    columns reached by own action ``k``, one per (rival profile, next
    exogenous state) in C order.
    """

    cells: np.ndarray
    rivals: np.ndarray
    rival_actions: np.ndarray
    next_s: np.ndarray
    lag_cols: np.ndarray


@dataclass(frozen=True)
class GameModel:
    """Primitives of a stationary dynamic game with simultaneous moves.

    ``payoffs[i, a_i, o, x]`` is firm ``i``'s flow payoff from action ``a_i``
    when the rivals play the profile with index ``o`` in state ``x``.  The
    state index is ``s * K**N + lag`` where ``lag`` encodes the previous action
    profile in mixed radix with firm 0 varying fastest.  Rival profiles are
    indexed with the lowest-numbered rival varying fastest.

    Firm ``i``'s unknown payoffs (actions ``0..K-2``) are stacked with
    column ``(k * m_x + x) * K**(N-1) + o``.  :func:`payoff_cells` returns those
    columns as an array of shape ``(K-1, K**(N-1), m_s, K, K**(N-1))``, whose
    axes are the action, the current rival profile, the exogenous state, the
    own lagged action and the rivals' lagged profile (indexed like a rival
    profile).  Its ``[..., 0]`` slice, rivals' lags all zero, holds the cells
    left free once rivals' lagged actions are irrelevant; its C order is the
    row order of a :func:`r3_linear` design.

    ``last_action_known`` declares that the payoff of the last action
    (``a_i = K-1``) is known to the analyst; identification requires it.
    The arrays are kept as read-only float copies, each checked finite.
    """

    n_firms: int
    n_actions: int
    s_values: np.ndarray
    s_transition: np.ndarray
    payoffs: np.ndarray
    betas: np.ndarray
    last_action_known: bool = False

    def __post_init__(self):
        freeze(self, s_values=self.s_values, s_transition=self.s_transition, payoffs=self.payoffs,
               betas=self.betas)
        N, K, m_s = self.n_firms, self.n_actions, len(self.s_values)
        if N < 1 or K < 2:
            raise ValueError(f"need at least one firm and two actions, got {N} and {K}")
        if self.s_transition.shape != (m_s, m_s):
            raise ValueError("exogenous transition must be square and match the state values")
        check_stochastic(self.s_transition, "exogenous transition row", ("state",))
        shape = (N, K, K ** (N - 1), m_s * K ** N)
        if self.payoffs.shape != shape:
            raise ValueError(f"payoffs must have shape {shape}, got {self.payoffs.shape}")
        if self.betas.shape != (N,) or np.any(self.betas < 0.0) or np.any(self.betas >= 1.0):
            raise ValueError("betas must be N discount factors in [0, 1)")

    @property
    def m_s(self) -> int:
        return len(self.s_values)

    @property
    def m_x(self) -> int:
        return self.m_s * self.n_actions ** self.n_firms

    @property
    def n_rival_profiles(self) -> int:
        return self.n_actions ** (self.n_firms - 1)

    @property
    def m_pi(self) -> int:
        return (self.n_actions - 1) * self.n_rival_profiles * self.m_x

    def pi_stack(self, i: int) -> np.ndarray:
        """True stacked payoff vector of firm ``i`` (for tests and diagnostics)."""
        return self.payoffs[i, :-1].transpose(0, 2, 1).ravel()

    @cached_property
    def _firm_maps(self) -> tuple[_FirmMaps, ...]:
        """One :class:`_FirmMaps` per firm, built on first read."""
        N, K, m_s, n_o = self.n_firms, self.n_actions, self.m_s, self.n_rival_profiles
        base = K ** N
        acts = np.arange(n_o) // K ** np.arange(N - 1)[:, None] % K
        next_s = self.s_transition[np.arange(self.m_x) // base, None, :]
        # column (k * m_x + x) * n_o + o, with the lag digits of x from firm N-1
        # (slowest) to firm 0; moving firm i's digit out leaves the rivals' lags in
        # the order of a rival profile index, lowest rival fastest
        u = np.arange(self.m_pi).reshape((K - 1, m_s) + (K,) * N + (n_o,))
        maps = []
        for i in range(N):
            own = 2 + N - 1 - i
            lags = [own] + [ax for ax in range(2, 2 + N) if ax != own]
            cells = u.transpose([0, 2 + N, 1] + lags).reshape(K - 1, n_o, m_s, K, n_o)
            # today's joint action profile is tomorrow's lag profile; the (own
            # lag, rivals' lags) cells of action 0, profile 0, state 0 sit at
            # column lag * n_o, so this is the lag index of (own action k, rival
            # profile o), and the next state is (s', that lag profile)
            lag = cells[0, 0, 0] // n_o
            lag_cols = (lag[:, :, None] + np.arange(m_s) * base).reshape(K, -1)
            firm = _FirmMaps(cells, np.delete(np.arange(N), i), acts, next_s, lag_cols)
            for a in firm:
                a.setflags(write=False)
            maps.append(firm)
        return tuple(maps)


def _maps(model: GameModel, i: int) -> _FirmMaps:
    """Firm ``i``'s :class:`_FirmMaps`; a firm outside ``0..N-1`` raises ``IndexError``."""
    if not 0 <= i < model.n_firms:
        raise IndexError(f"firm {i} out of range 0..{model.n_firms - 1}")
    return model._firm_maps[i]


def payoff_cells(model: GameModel, i: int) -> np.ndarray:
    """Stacked-payoff columns of firm ``i``, one dimension per cell coordinate
    (see the :class:`GameModel` docstring for the axes); read-only, built once
    per model."""
    return _maps(model, i).cells


@dataclass(frozen=True)
class MpeSolution:
    """Equilibrium choice probabilities and values, one block per firm.

    ``P[i, k, x]`` is firm ``i``'s probability of action ``k`` in state ``x``;
    ``residual`` is the sup-norm distance between the final profile and every
    firm's exact best response to it; ``n_iter`` counts the best-response
    sweeps evaluated.
    """

    P: np.ndarray
    V: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    residual: float
    n_iter: int


def rival_probabilities(model: GameModel, P, i: int) -> np.ndarray:
    """Joint probability of each rival action profile by state, shape
    ``(m_x, K**(N-1))``; rows sum to one."""
    maps = _maps(model, i)
    out = np.ones((model.m_x, model.n_rival_profiles))
    for t, j in enumerate(maps.rivals):
        out *= P[j, maps.rival_actions[t]].T
    return out


def expected_objects(model: GameModel, P, i: int):
    """Expected flow payoffs and transitions for firm ``i`` against rival play ``P``.

    Returns ``(pi_star, Q_star, P_minus)`` with shapes ``(K, m_x)``,
    ``(K, m_x, m_x)`` and ``(m_x, K**(N-1))``.
    """
    maps = _maps(model, i)
    P_minus = rival_probabilities(model, P, i)
    pi_star = np.einsum("xo,kox->kx", P_minus, model.payoffs[i])
    K, m_x = model.n_actions, model.m_x
    # next state = (s', joint action profile); lag part deterministic
    block = (P_minus[:, :, None] * maps.next_s).reshape(m_x, -1)
    Q_star = np.zeros((K, m_x, m_x))
    for k in range(K):
        Q_star[k][:, maps.lag_cols[k]] += block
    return pi_star, Q_star, P_minus


def _profile(model: GameModel, P, name: str) -> np.ndarray:
    """``P`` as a float array, checked as a choice profile ``(N, K, m_x)`` of the game."""
    P = _numbers(P, name)
    if P.shape != (model.n_firms, model.n_actions, model.m_x):
        raise ValueError(f"{name} must have shape {(model.n_firms, model.n_actions, model.m_x)}, got {P.shape}")
    return check_stochastic(P, f"{name} choice distribution", ("firm", "state"), axis=1)


def solve_mpe(model: GameModel, start=None) -> MpeSolution:
    """Equilibrium choice probabilities by Anderson-accelerated damped
    best-response sweeps, from a uniform profile (or ``start``).

    A sweep ``G(P)`` updates the firms sequentially, each mixing its logit
    best response into the profile with weight ``DAMPING``.  The next profile
    is ``G(P) - dG gamma``, with ``gamma`` the least-squares fit of ``F = G(P)
    - P`` by its last ``ANDERSON_DEPTH`` differences ``dF`` and ``dG`` those
    of ``G``: Anderson acceleration, type II, mixing 1 (Walker and Ni 2011).
    The plain sweep ``G(P)`` is kept instead, and the differences dropped,
    when that profile leaves ``(0, 1)`` or the sweep's largest change rose.

    A best response is the full :func:`ddc.solve_logit` solve, warm-started
    from the firm's last value, until a sweep's largest change is at most
    ``LOCAL_CHANGE``; after that it is one Newton step of ``solve_logit``
    from that value, whose error is second order in the sweep change (Rust
    1987; Puterman and Shin 1978).  After a sweep whose change is at most
    ``MPE_TOL``, every firm's exact best response to the profile is solved;
    the profile is returned if all are within ``MPE_TOL`` of it, and otherwise
    the sweeps go on with full solves only.  Once the smallest sweep change is
    below ``MPE_TOL`` and has not fallen for ``FLOOR_SWEEPS`` sweeps, the
    sweeps are at their rounding floor with no profile confirmed.

    The fixed points are those of the plain sweeps.  Which equilibrium is
    found depends on the sweep order, damping and start; on the shipped,
    benchmark and strong-interaction entry games it is the one the plain
    sweeps find.  Other equilibria are not searched for.

    Raises
    ------
    ValueError
        If ``start`` is not a choice distribution of the profile's shape.
    ConvergenceError
        At the rounding floor, or after ``MAX_SWEEPS`` sweeps; it carries the
        last sweep changes.
    """
    N, K, m_x = model.n_firms, model.n_actions, model.m_x
    P = np.full((N, K, m_x), 1.0 / K) if start is None else _profile(model, start, "start").copy()
    V_cache = np.zeros((N, m_x))
    history = []
    diffs = deque(maxlen=ANDERSON_DEPTH)  # (dG, dF) of the last sweeps
    g_prev = f_prev = None
    floor, stalled = np.inf, 0  # the smallest sweep change, and the sweeps since it
    for _ in range(MAX_SWEEPS):
        x = P.flatten()
        local = floor > MPE_TOL and bool(history) and history[-1] <= LOCAL_CHANGE  # no confirmation failed
        worst = 0.0
        for i in range(N):
            pi_star, Q_star, _ = expected_objects(model, P, i)
            if local:
                V_cache[i] = _newton_step(pi_star, Q_star, model.betas[i], V_cache[i])[0]
                BR = np.exp(_logit(pi_star, Q_star, model.betas[i], V_cache[i])[1])
            else:
                BR, V_cache[i], _ = solve_logit(pi_star, Q_star, model.betas[i], V0=V_cache[i])
            worst = max(worst, float(np.max(np.abs(BR - P[i]))))
            P[i] = DAMPING * BR + (1.0 - DAMPING) * P[i]
        history.append(worst)
        if worst <= MPE_TOL:
            mpe = _confirm(model, P, V_cache, len(history))
            if mpe.residual <= MPE_TOL:
                return mpe
        stalled = 0 if worst < floor else stalled + 1
        floor = min(floor, worst)
        if floor < MPE_TOL and stalled >= FLOOR_SWEEPS:
            raise ConvergenceError(f"best-response sweeps reached their rounding floor, a change of "
                                   f"{floor:.2g}, with no profile confirmed", residual=worst, history=history[-20:])
        g = P.flatten()  # the sweep G(x) and its change F = G(x) - x
        f = g - x
        if len(history) > 1 and worst > history[-2]:
            diffs.clear()
        elif g_prev is not None:
            diffs.append((g - g_prev, f - f_prev))
            dG, dF = np.transpose(diffs, (1, 2, 0))
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            step = g - dG @ gamma
            if np.all((step > 0.0) & (step < 1.0)):
                P = step.reshape(P.shape)
            else:
                diffs.clear()
        g_prev, f_prev = g, f
    raise ConvergenceError(f"best-response iteration did not reach {MPE_TOL:g} in {MAX_SWEEPS} sweeps",
                           residual=history[-1], history=history[-20:])


def _confirm(model: GameModel, P: np.ndarray, V_cache: np.ndarray, n_iter: int) -> MpeSolution:
    """The profile ``P`` evaluated: every firm's exact best response and
    values, solved from ``V_cache``, and the largest distance of a best
    response from ``P`` as the residual."""
    V, v = np.zeros(V_cache.shape), np.zeros(P.shape)
    residual = 0.0
    for i in range(model.n_firms):
        pi_star, Q_star, _ = expected_objects(model, P, i)
        BR, V[i], v[i] = solve_logit(pi_star, Q_star, model.betas[i], V0=V_cache[i])
        residual = max(residual, float(np.max(np.abs(BR - P[i]))))
    mpe = MpeSolution(P=P, V=V, v=v, psi=EULER_GAMMA - np.log(P), residual=residual, n_iter=n_iter)
    freeze(mpe, P=P, V=V, v=v, psi=mpe.psi)
    return mpe


def build_system(model: GameModel, mpe: MpeSolution, i: int) -> MasterSystem:
    """Firm ``i``'s identification system: the single-agent system of its
    equilibrium objects mapped through its square blocks.

    Requires the model to declare the last action's payoff as known; its
    expected-rival average joins ``psi_last`` of ``master_system(psi,
    Q_star)``, whose recovered payoffs ``rhs(beta)`` are the expected ones.
    Rivals' lagged actions being irrelevant, the unknowns are the cells
    ``payoff_cells(model, i)[..., 0]``: each exogenous state ``s`` and own lag
    ``l`` has one square block whose row for a rivals' lag profile is
    ``P_minus`` at that state.  The ``m_s * K`` blocks are solved in one batch
    into every rivals'-lag cell of ``g``; ``q_last`` is the source system's
    ``Q_star`` of the last action.  The noise level is the equilibrium residual
    (rounding at least) relative to ``rhs``: a beta-free row's coefficients
    sit at a few times that residual, informative rows at 1e-4 or more.
    ``info`` holds the firm, the worst block's ``condition_estimate`` and its
    ``condition_block``, ``[s, l]``, and ``loose_equilibrium``, the residual,
    when that is above ``MPE_TOL`` (a caller's equilibrium, never
    :func:`solve_mpe`'s): its error is then in the rows, and may empty a set.

    Raises
    ------
    ValueError
        If ``mpe.residual`` is not a finite number at least 0, or ``mpe.P``
        is not a choice profile of the game.
    RankDeficiencyError
        If a block is singular; ``rank`` (``K-1`` times ``(n_o-1) m_x`` plus the
        blocks' ranks) is that of the payoff rows over the rivals'-lag equalities.
    """
    if not model.last_action_known:
        raise ValueError("identification requires declaring the last action's payoff as known")
    K, m_x, n_o = model.n_actions, model.m_x, model.n_rival_profiles
    if not require_finite(mpe.residual, "residual") >= 0.0:
        raise ValueError(f"residual = {mpe.residual} is below 0")
    pi_star, Q_star, P_minus = expected_objects(model, _profile(model, mpe.P, "P"), i)
    psi = mpe.psi[i].copy()
    psi[K - 1] += pi_star[K - 1]  # the known-action expected payoff joins psi_last
    ms = master_system(psi, Q_star)
    rhs = ms.g
    cells = payoff_cells(model, i)
    x = cells[0, 0] // n_o  # state of each (s, own lag, rivals' lag)
    A = P_minus[x]  # (s, own lag, rivals' lag, current rival profile)
    sv = np.linalg.svd(A, compute_uv=False)  # rank and condition of every block
    singular = np.argwhere(sv[..., -1] <= 1e-10 * np.maximum(1.0, sv[..., 0]))
    if len(singular):
        s, lag = singular[0]
        rank = (K - 1) * ((n_o - 1) * m_x + np.sum(sv > sv[..., :1] * n_o * np.finfo(float).eps))
        raise RankDeficiencyError(f"square model block of exogenous state {s}, own lag {lag} is singular",
                                  rank=int(rank), required=model.m_pi)
    theta = np.linalg.solve(A, rhs.reshape(K - 1, m_x, -1)[:, x])  # (k, s, own lag, profile, coef)
    g = np.empty((model.m_pi, rhs.shape[1]))
    g[cells] = theta.transpose(0, 3, 1, 2, 4)[..., None, :]  # every rivals' lag alike
    cond = sv[..., 0] / sv[..., -1]
    worst = np.unravel_index(np.argmax(cond), cond.shape)
    info = {"firm": i, "condition_estimate": float(cond[worst]), "condition_block": [int(v) for v in worst]}
    if mpe.residual > MPE_TOL:
        info["loose_equilibrium"] = mpe.residual
    return replace(ms, g=g, noise=max(1e-9, 100.0 * mpe.residual) * float(np.max(np.abs(rhs))), info=info)


# ---- restriction rows on the stacked game payoff -------------------------


def _baseline(model: GameModel, i: int, actions) -> np.ndarray:
    """Cells of the listed actions at rivals' lags zero, axes (action, state,
    own lag, rival profile); an action outside ``0..K-2`` raises ``IndexError``."""
    b = payoff_cells(model, i)[..., 0]
    return np.moveaxis(b[_flat_points(actions, ("action",), b.shape[:1])], 1, -1)


def r3_exchangeability(model: GameModel, i: int, actions=(0,)) -> np.ndarray:
    """Rows equating payoffs across permutations of the current rival profile.

    For each restricted action, exogenous state, and own lagged action, rival
    profiles with the same action multiset are equated to a representative
    (classes in order of first appearance, each class's first profile).
    """
    acts = np.sort(_maps(model, i).rival_actions, axis=0)
    key = (acts * model.n_actions ** np.arange(len(acts))[:, None]).sum(axis=0)
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    rep = first[cls]
    others = np.flatnonzero(rep != np.arange(len(rep)))
    others = others[np.argsort(rep[others], kind="stable")]
    v = _baseline(model, i, actions)
    return _stencil_rows(model.m_pi, (v[..., rep[others]], 1.0), (v[..., others], -1.0))


def r3_adjustment_cost(model: GameModel, i: int, actions=(0,), lag_pair=(0,)) -> np.ndarray:
    """Rows asserting the own-lag payoff difference is the same for every rival profile.

    For each restricted action and exogenous state, the difference between own
    lagged actions ``l`` and ``l+1`` under rival profile ``o`` equals the same
    difference under the first profile.  ``l`` must lie in ``0..K-2``.
    """
    v = _baseline(model, i, actions)
    lags = _flat_points(lag_pair, ("own lag",), (model.n_actions - 1,))
    hi, lo = v[:, :, lags], v[:, :, lags + 1]
    return _stencil_rows(model.m_pi, (hi[..., 1:], 1.0), (lo[..., 1:], -1.0),
                         (hi[..., :1], -1.0), (lo[..., :1], 1.0))


def r3_linear(model: GameModel, i: int, design: np.ndarray) -> np.ndarray:
    """Kernel rows for a payoff linear in parameters on the reduced cells.

    ``design`` has one row per cell of ``payoff_cells(model, i)[..., 0]`` (in
    C order) and one column per parameter.  Returns the rows of
    :func:`restrictions.linear_in_parameters` (an orthonormal basis of the
    left null space), scattered to the stacked payoff coordinates.
    """
    cells = payoff_cells(model, i)[..., 0].ravel()
    if np.shape(design)[0] != len(cells):
        raise ValueError(f"design must have {len(cells)} rows (one per reduced cell)")
    kernel = linear_in_parameters(design).R
    rows = np.zeros((kernel.shape[0], model.m_pi))
    rows[:, cells] = kernel
    return rows


def r4_monotone_own_lag(model: GameModel, i: int, actions=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Inequality rows: payoff weakly falls as the own lagged action weakens.

    Lower action values denote stronger positions (e.g. operating), so for
    each rival profile, state, and restricted action the payoff at own lag
    ``l`` is at least the payoff at own lag ``l+1``.
    """
    v = np.moveaxis(_baseline(model, i, actions), -1, 1)  # rows by action, profile, state, own lag
    R = _stencil_rows(model.m_pi, (v[..., :-1], 1.0), (v[..., 1:], -1.0))
    return R, np.zeros(R.shape[0])


def r4_monotone_rivals(model: GameModel, i: int, actions=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Inequality rows: payoff weakly rises as rivals' actions weaken.

    For each pair of rival profiles ordered componentwise (every rival's action
    at least as large, one strictly), the weaker-rival payoff is at least the
    stronger-rival payoff.  Pairs come in ``itertools.combinations`` order.
    """
    acts = _maps(model, i).rival_actions
    oa, ob = np.triu_indices(acts.shape[1], 1)
    ge = np.all(acts[:, oa] >= acts[:, ob], axis=0)
    le = np.all(acts[:, oa] <= acts[:, ob], axis=0)
    keep = (ge | le) & np.any(acts[:, oa] != acts[:, ob], axis=0)
    hi, lo = np.where(ge, oa, ob)[keep], np.where(ge, ob, oa)[keep]  # weaker, stronger rivals
    v = _baseline(model, i, actions)
    R = _stencil_rows(model.m_pi, (v[..., hi], 1.0), (v[..., lo], -1.0))
    return R, np.zeros(R.shape[0])


# ---- identified sets ------------------------------------------------------


def identified_set_game(system: MasterSystem, R3, c3=0.0) -> IdentifiedSet:
    """Common roots on ``[0, 1)`` of the firm's equality identification system.

    Intersects the roots of the extra equality rows ``R3 Pi = c3``, each a
    polynomial of degree at most ``m_x`` in the payoffs recovered from the
    square blocks (see :func:`build_system`).
    Identically-zero polynomials (redundant rows) are flagged and excluded.
    """
    return identified_set(system.payoff_polys(R3, c3), "eq", system.info)


def inequality_region_game(system: MasterSystem, R4, c4=0.0) -> IdentifiedSet:
    """Subset of ``[0, 1)`` where the payoffs recovered from the firm's square
    blocks satisfy ``R4 @ Pi(beta) >= c4``."""
    return identified_set(system.payoff_polys(R4, c4), "ge", system.info)
