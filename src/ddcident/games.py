"""Dynamic discrete games: primitives, equilibrium solver, and per-firm
discount-factor identification.

States are pairs of an exogenous component and the lagged action profile.
Solving proceeds by damped sequential best-response sweeps on conditional
choice probabilities, each firm's logit best response computed by
``ddc.solve_logit``, with Anderson extrapolation between sweeps; it falls back
to the plain sweep where extrapolation leaves ``(0, 1)`` or the sweep change
rises, and on the games tested it selects the equilibrium the plain sweeps
select.  Identification maps each firm's single-agent system of its
equilibrium objects through one small square block per exogenous state and
own lagged action, rivals' lagged actions being irrelevant; cross-firm payoff
restrictions are then polynomial rows in the firm's discount factor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .betapoly import _numbers, check_stochastic, freeze
from .ddc import EULER_GAMMA, MasterSystem, master_system, solve_logit
from .errors import ConvergenceError, RankDeficiencyError
from .identify import IdentifiedSet, identified_set
from .restrictions import _flat_points, _stencil_rows, linear_in_parameters

# sweeps the equilibrium solver extrapolates from, and its default damping (see solve_mpe)
ANDERSON_DEPTH = 5
DAMPING = 0.5


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


def payoff_cells(model: GameModel, i: int) -> np.ndarray:
    """Stacked-payoff columns of firm ``i``, one dimension per cell coordinate
    (see the :class:`GameModel` docstring for the axes)."""
    N, K, n_o = model.n_firms, model.n_actions, model.n_rival_profiles
    if not 0 <= i < N:
        raise IndexError(f"firm {i} out of range 0..{N - 1}")
    # column (k * m_x + x) * n_o + o, with the lag digits of x from firm N-1
    # (slowest) to firm 0; moving firm i's digit out leaves the rivals' lags in
    # the order of a rival profile index, lowest rival fastest
    u = np.arange(model.m_pi).reshape((K - 1, model.m_s) + (K,) * N + (n_o,))
    own = 2 + N - 1 - i
    lags = [own] + [ax for ax in range(2, 2 + N) if ax != own]
    return u.transpose([0, 2 + N, 1] + lags).reshape(K - 1, n_o, model.m_s, K, n_o)


def _rival_actions(model: GameModel) -> np.ndarray:
    """Action of each rival (row, lowest-numbered first) in each rival
    profile (column), shape ``(N-1, K**(N-1))``."""
    K = model.n_actions
    return np.arange(model.n_rival_profiles) // K ** np.arange(model.n_firms - 1)[:, None] % K


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
    out = np.ones((model.m_x, model.n_rival_profiles))
    acts = _rival_actions(model)
    for t, j in enumerate(np.delete(np.arange(model.n_firms), i)):
        out *= P[j, acts[t]].T
    return out


def expected_objects(model: GameModel, P, i: int):
    """Expected flow payoffs and transitions for firm ``i`` against rival play ``P``.

    Returns ``(pi_star, Q_star, P_minus)`` with shapes ``(K, m_x)``,
    ``(K, m_x, m_x)`` and ``(m_x, K**(N-1))``.
    """
    P_minus = rival_probabilities(model, P, i)
    pi_star = np.einsum("xo,kox->kx", P_minus, model.payoffs[i])
    K, m_x, base = model.n_actions, model.m_x, model.n_actions ** model.n_firms
    # today's joint action profile is tomorrow's lag profile; the (own lag,
    # rivals' lags) cells of action 0, profile 0, state 0 sit at column
    # lag * n_o, so this is the lag index of (own action k, rival profile o)
    lag = payoff_cells(model, i)[0, 0, 0] // model.n_rival_profiles
    # next state = (s', joint action profile); lag part deterministic
    block = (P_minus[:, :, None] * model.s_transition[np.arange(m_x) // base, None, :]).reshape(m_x, -1)
    Q_star = np.zeros((K, m_x, m_x))
    for k in range(K):
        Q_star[k][:, (lag[k][:, None] + np.arange(model.m_s) * base).ravel()] += block
    return pi_star, Q_star, P_minus


def solve_mpe(model: GameModel, damping: float = DAMPING, start=None,
              tol: float = 1e-10, max_iter: int = 100_000) -> MpeSolution:
    """Equilibrium choice probabilities by Anderson-accelerated damped
    best-response sweeps.

    A sweep ``G(P)`` updates the firms sequentially, each mixing its exact
    logit best response into the current profile with weight ``damping``.
    Iteration starts from a uniform profile (or ``start``) and stops after a
    sweep in which no best response differs from the profile by more than
    ``tol``.  After each other sweep the next profile is ``G(P) - dG gamma``,
    with ``gamma`` the least-squares fit of ``F = G(P) - P`` by its last
    ``ANDERSON_DEPTH`` differences ``dF`` and ``dG`` the matching differences
    of ``G`` (``dG = dP + dF``): Anderson acceleration, type II, mixing 1
    (Walker and Ni 2011).  The plain sweep ``G(P)`` is kept instead, and the
    differences dropped, when that profile leaves ``(0, 1)`` or the sweep's
    largest change rose.

    Extrapolation combines sweeps, so the fixed points are those of the plain
    sweeps.  Which equilibrium is found depends on the sweep order, damping
    and start; on the shipped and benchmark games, and on entry games with
    several equilibria, it is the one the plain sweeps find.  Other equilibria
    are not searched for.  Deterministic given the model, start, and damping.

    Raises
    ------
    ConvergenceError
        If no sweep reaches ``tol`` within ``max_iter`` sweeps.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    N, K, m_x = model.n_firms, model.n_actions, model.m_x
    if start is None:
        P = np.full((N, K, m_x), 1.0 / K)
    else:
        P = _numbers(start, "start").copy()  # written in place below
        if P.shape != (N, K, m_x):
            raise ValueError(f"start must have shape {(N, K, m_x)}, got {P.shape}")
        check_stochastic(P, "start choice distribution", ("firm", "state"), axis=1)
    V_cache = np.zeros((N, m_x))
    history = []
    diffs = deque(maxlen=ANDERSON_DEPTH)  # (dG, dF) of the last sweeps
    g_prev = f_prev = None
    for it in range(max_iter):
        x = P.flatten()
        worst = 0.0
        for i in range(N):
            pi_star, Q_star, _ = expected_objects(model, P, i)
            BR, V_i, _ = solve_logit(pi_star, Q_star, model.betas[i], V0=V_cache[i])
            V_cache[i] = V_i
            worst = max(worst, float(np.max(np.abs(BR - P[i]))))
            P[i] = damping * BR + (1.0 - damping) * P[i]
        history.append(worst)
        if worst <= tol:
            break
        if it + 1 >= max_iter:
            raise ConvergenceError(
                f"best-response iteration did not reach {tol} in {max_iter} sweeps",
                residual=worst, history=history[-20:],
            )
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
    # evaluate the profile: exact best responses and values at the fixed point
    v = np.zeros((N, K, m_x))
    V = np.zeros((N, m_x))
    residual = 0.0
    for i in range(N):
        pi_star, Q_star, _ = expected_objects(model, P, i)
        BR, V_i, v_i = solve_logit(pi_star, Q_star, model.betas[i], V0=V_cache[i])
        residual = max(residual, float(np.max(np.abs(BR - P[i]))))
        V[i], v[i] = V_i, v_i
    mpe = MpeSolution(P=P, V=V, v=v, psi=EULER_GAMMA - np.log(P), residual=residual, n_iter=len(history))
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
    ``condition_block``, ``[s, l]``.

    Raises
    ------
    RankDeficiencyError
        If a block is singular; ``rank`` (``K-1`` times ``(n_o-1) m_x`` plus the
        blocks' ranks) is that of the payoff rows over the rivals'-lag equalities.
    """
    if not model.last_action_known:
        raise ValueError("identification requires declaring the last action's payoff as known")
    K, m_x, n_o = model.n_actions, model.m_x, model.n_rival_profiles
    pi_star, Q_star, P_minus = expected_objects(model, mpe.P, i)
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
    return replace(ms, g=g, noise=max(1e-9, 100.0 * mpe.residual) * float(np.max(np.abs(rhs))),
                   info={"firm": i, "condition_estimate": float(cond[worst]),
                         "condition_block": [int(v) for v in worst]})


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
    acts = np.sort(_rival_actions(model), axis=0)
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
    acts = _rival_actions(model)
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
