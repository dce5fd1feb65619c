"""Dynamic discrete games: primitives, equilibrium solver, and per-firm
discount-factor identification.

States are pairs of an exogenous component and the lagged action profile.
Solving proceeds by damped best-response iteration on conditional choice
probabilities, each firm's logit best response computed by
``ddc.solve_logit``; identification stacks the model's expected-payoff equations
with cross-firm payoff restrictions into polynomial systems in each firm's
discount factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .betapoly import ROOT_RESIDUAL_TOL, BetaPoly, check_stochastic, coeff_matrix
from .ddc import EULER_GAMMA, master_system, solve_logit
from .errors import ConvergenceError, RankDeficiencyError
from .identify import IdentifiedSet, identified_set


@dataclass(frozen=True)
class GameModel:
    """Primitives of a stationary dynamic game with simultaneous moves.

    ``payoffs[i, a_i, o, x]`` is firm ``i``'s flow payoff from action ``a_i``
    when the rivals play the profile with index ``o`` in state ``x``.  The
    state index is ``s * K**N + lag`` where ``lag`` encodes the previous action
    profile in mixed radix with firm 0 varying fastest.  Rival profiles are
    indexed with the lowest-numbered rival varying fastest.

    ``last_action_known`` declares that the payoff of the last action
    (``a_i = K-1``) is known to the analyst; identification requires it.
    """

    n_firms: int
    n_actions: int
    s_values: np.ndarray
    s_transition: np.ndarray
    payoffs: np.ndarray
    betas: np.ndarray
    last_action_known: bool = False

    def __post_init__(self):
        s_values = np.asarray(self.s_values, dtype=float)
        T = np.asarray(self.s_transition, dtype=float)
        payoffs = np.asarray(self.payoffs, dtype=float)
        betas = np.asarray(self.betas, dtype=float)
        N, K = self.n_firms, self.n_actions
        m_s = len(s_values)
        if T.shape != (m_s, m_s):
            raise ValueError("exogenous transition must be square and match the state values")
        check_stochastic(T, "exogenous transition row", ("state",))
        m_x = m_s * K ** N
        if payoffs.shape != (N, K, K ** (N - 1), m_x):
            raise ValueError(f"payoffs must have shape {(N, K, K ** (N - 1), m_x)}, got {payoffs.shape}")
        if not np.all(np.isfinite(payoffs)):
            raise ValueError("payoff tensor must be finite")
        if betas.shape != (N,) or np.any(betas < 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas must be N discount factors in [0, 1)")
        for arr in (s_values, T, payoffs, betas):
            arr.setflags(write=False)
        object.__setattr__(self, "s_values", s_values)
        object.__setattr__(self, "s_transition", T)
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "betas", betas)

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

    # ---- state and profile indexing -------------------------------------

    def lag_index(self, profile) -> int:
        K = self.n_actions
        return sum(int(a) * K ** i for i, a in enumerate(profile))

    def x_index(self, s: int, profile) -> int:
        return s * self.n_actions ** self.n_firms + self.lag_index(profile)

    def rivals(self, i: int) -> tuple:
        return tuple(j for j in range(self.n_firms) if j != i)

    def rival_index(self, i: int, actions) -> int:
        K = self.n_actions
        return sum(int(a) * K ** t for t, a in enumerate(actions))

    def rival_profiles(self, i: int):
        K, N = self.n_actions, self.n_firms
        for o in range(K ** (N - 1)):
            yield o, tuple((o // K ** t) % K for t in range(N - 1))

    def joint_from(self, i: int, a_i: int, rival_actions) -> tuple:
        prof = [0] * self.n_firms
        prof[i] = a_i
        for t, j in enumerate(self.rivals(i)):
            prof[j] = rival_actions[t]
        return tuple(prof)

    def pi_position(self, i: int, k: int, x: int, o: int) -> int:
        """Column of ``(action k, state x, rival profile o)`` in the stacked
        unknown payoff vector (actions ``0..K-2`` only, rival profile fastest)."""
        if not 0 <= k < self.n_actions - 1:
            raise IndexError("the last action's payoff is known, not stacked")
        return (k * self.m_x + x) * self.n_rival_profiles + o

    def pi_stack(self, i: int) -> np.ndarray:
        """True stacked payoff vector of firm ``i`` (for tests and diagnostics)."""
        K = self.n_actions
        out = np.empty(self.m_pi)
        for k in range(K - 1):
            for x in range(self.m_x):
                for o in range(self.n_rival_profiles):
                    out[self.pi_position(i, k, x, o)] = self.payoffs[i, k, o, x]
        return out


def game_to_dict(model: GameModel) -> dict:
    """JSON-ready form of the game primitives (see the CLI schema)."""
    return {
        "schema_version": 1,
        "mode": "game",
        "n_firms": model.n_firms,
        "n_actions": model.n_actions,
        "s_values": model.s_values.tolist(),
        "s_transition": model.s_transition.tolist(),
        "payoffs": model.payoffs.tolist(),
        "betas": model.betas.tolist(),
        "last_action_known": model.last_action_known,
    }


def game_from_dict(d: dict) -> GameModel:
    return GameModel(
        n_firms=int(d["n_firms"]),
        n_actions=int(d["n_actions"]),
        s_values=np.asarray(d["s_values"], dtype=float),
        s_transition=np.asarray(d["s_transition"], dtype=float),
        payoffs=np.asarray(d["payoffs"], dtype=float),
        betas=np.asarray(d["betas"], dtype=float),
        last_action_known=bool(d.get("last_action_known", False)),
    )


@dataclass(frozen=True)
class MpeSolution:
    """Equilibrium choice probabilities and values, one block per firm.

    ``P[i, k, x]`` is firm ``i``'s probability of action ``k`` in state ``x``;
    ``residual`` is the sup-norm distance between the final profile and every
    firm's exact best response to it.
    """

    P: np.ndarray
    V: np.ndarray
    v: np.ndarray
    psi: np.ndarray
    residual: float
    n_iter: int

    def to_json_dict(self) -> dict:
        return {"P": self.P.tolist(), "V": self.V.tolist(), "v": self.v.tolist(),
                "psi": self.psi.tolist(), "residual": self.residual, "n_iter": self.n_iter}


def rival_probabilities(model: GameModel, P, i: int) -> np.ndarray:
    """Joint probability of each rival action profile by state, shape
    ``(m_x, K**(N-1))``; rows sum to one."""
    out = np.ones((model.m_x, model.n_rival_profiles))
    rivals = model.rivals(i)
    for o, actions in model.rival_profiles(i):
        for t, j in enumerate(rivals):
            out[:, o] *= P[j, actions[t], :]
    return out


def expected_objects(model: GameModel, P, i: int):
    """Expected flow payoffs and transitions for firm ``i`` against rival play ``P``.

    Returns ``(pi_star, Q_star, P_minus)`` with shapes ``(K, m_x)``,
    ``(K, m_x, m_x)`` and ``(m_x, K**(N-1))``.
    """
    P_minus = rival_probabilities(model, P, i)
    pi_star = np.einsum("xo,kox->kx", P_minus, model.payoffs[i])
    K = model.n_actions
    base = K ** model.n_firms
    Q_star = np.zeros((K, model.m_x, model.m_x))
    s_of_x = np.arange(model.m_x) // base
    for k in range(K):
        for o, actions in model.rival_profiles(i):
            lag = model.lag_index(model.joint_from(i, k, actions))
            # next state = (s', joint action profile); lag part deterministic
            block = P_minus[:, o, None] * model.s_transition[s_of_x, :]
            cols = np.arange(model.m_s) * base + lag
            Q_star[k][:, cols] += block
    return pi_star, Q_star, P_minus


def solve_mpe(model: GameModel, damping: float = 0.5, start=None,
              tol: float = 1e-10, max_iter: int = 100_000) -> MpeSolution:
    """Equilibrium choice probabilities by damped best-response iteration.

    Firms are updated sequentially from a uniform start (or ``start``); each
    update mixes the exact logit best response into the current profile with
    weight ``damping``.  Deterministic given the model, start, and damping.
    The iteration order is part of the equilibrium selection: other equilibria
    may exist and are not searched for.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    N, K, m_x = model.n_firms, model.n_actions, model.m_x
    if start is None:
        P = np.full((N, K, m_x), 1.0 / K)
    else:
        P = np.array(start, dtype=float)
        if P.shape != (N, K, m_x):
            raise ValueError(f"start must have shape {(N, K, m_x)}, got {P.shape}")
        check_stochastic(P, "start choice distribution", ("firm", "state"), axis=1)
    V_cache = np.zeros((N, m_x))
    history = []
    for it in range(max_iter):
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
    # evaluate the profile: exact best responses and values at the fixed point
    v = np.zeros((N, K, m_x))
    V = np.zeros((N, m_x))
    residual = 0.0
    for i in range(N):
        pi_star, Q_star, _ = expected_objects(model, P, i)
        BR, V_i, v_i = solve_logit(pi_star, Q_star, model.betas[i], V0=V_cache[i])
        residual = max(residual, float(np.max(np.abs(BR - P[i]))))
        V[i], v[i] = V_i, v_i
    psi = EULER_GAMMA - np.log(P)
    for arr in (P, V, v, psi):
        arr.setflags(write=False)
    return MpeSolution(P=P, V=V, v=v, psi=psi, residual=residual, n_iter=len(history))


@dataclass(frozen=True)
class GameIdentSystem:
    """Stacked linear-in-payoff system of one firm, polynomial in its discount factor.

    The model equations read ``d(beta) * Pbar @ Pi = rhs(beta)`` where ``Pbar``
    is the block-diagonal expected-rival-probability matrix and each entry of
    ``rhs`` is a polynomial of degree ``m_x``.  ``R2`` stacks the
    lagged-action-irrelevance rows (``R2 @ Pi = 0``), completing a square
    system ``X_a``; additional equality rows test candidate discount factors
    and inequality rows bound them.  ``equilibrium_residual`` is the
    :class:`MpeSolution` residual the system was built from; it sets the noise
    level below which an identifying polynomial counts as zero.

    On construction the square system is inverted once: ``W`` holds the
    coefficient rows of the determinant-scaled payoffs ``X_a^{-1} Y_a``
    recovered from it and ``condition_estimate`` is ``cond(X_a)``.

    Raises
    ------
    RankDeficiencyError
        If ``X_a`` does not have full column rank.
    """

    firm: int
    Pbar: np.ndarray
    rhs_coeffs: np.ndarray  # (q1, m_x + 1)
    det: BetaPoly
    R2: np.ndarray
    psi: np.ndarray
    m_x: int
    m_pi: int
    equilibrium_residual: float
    W: np.ndarray = field(init=False, repr=False)  # (m_pi, m_x + 1)
    condition_estimate: float = field(init=False)

    def __post_init__(self):
        X = self.X_a
        n = X.shape[1]
        if np.linalg.matrix_rank(X, tol=1e-10 * max(1.0, np.linalg.norm(X, 2))) < n:
            raise RankDeficiencyError(
                "square model block of the stacked system is singular; "
                "the stacked matrix must have full column rank",
                rank=int(np.linalg.matrix_rank(X)), required=n,
            )
        Y = np.zeros((self.m_pi, self.rhs_coeffs.shape[1]))
        Y[: self.rhs_coeffs.shape[0]] = self.rhs_coeffs
        object.__setattr__(self, "W", np.linalg.solve(X, Y))
        object.__setattr__(self, "condition_estimate", float(np.linalg.cond(X)))

    @property
    def X_a(self) -> np.ndarray:
        return np.vstack([self.Pbar, self.R2])

    def solve_payoffs(self, beta: float) -> np.ndarray:
        """Stacked payoff vector implied by the system at a candidate discount
        factor in ``[0, 1)``."""
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        return self.W @ beta ** np.arange(self.W.shape[1]) / self.det(beta)

    def payoff_polys(self, R, c=0.0) -> list[BetaPoly]:
        """Rows ``R W(beta) - c det(beta)``: a row is ``>= 0`` where the payoffs
        recovered at beta satisfy ``R Pi >= c``.  A row at noise level relative
        to the right-hand side holds at every discount factor and is returned
        as the zero polynomial.  The noise is rounding or the equilibrium
        residual: a beta-free row's coefficients sit at a few times that
        residual, informative rows at 1e-4 or more."""
        R = np.atleast_2d(np.asarray(R, dtype=float))
        c = np.broadcast_to(np.asarray(c, dtype=float), (R.shape[0],))
        det = np.pad(self.det.coeffs, (0, self.W.shape[1] - len(self.det.coeffs)))
        rows = R @ self.W - np.outer(c, det)
        floor = max(1e-9, 100.0 * self.equilibrium_residual) * float(np.max(np.abs(self.rhs_coeffs)))
        noise = np.max(np.abs(rows), axis=1) <= floor
        return [BetaPoly.zero() if z else BetaPoly(row) for row, z in zip(rows, noise)]


def build_system(model: GameModel, mpe: MpeSolution, i: int) -> GameIdentSystem:
    """Assemble firm ``i``'s identification system from equilibrium objects.

    Requires the model to declare the last action's payoff as known; the known
    payoff enters the right-hand side through the expected-rival average.  The
    right-hand side is the single-agent system ``master_system(psi, Q_star)``
    with that payoff added to ``psi_last``: ``M(beta) psi_last - det(beta) Psi``.
    """
    if not model.last_action_known:
        raise ValueError("identification requires declaring the last action's payoff as known")
    K, m_x = model.n_actions, model.m_x
    pi_star, Q_star, P_minus = expected_objects(model, mpe.P, i)
    psi = mpe.psi[i].copy()
    psi[K - 1] += pi_star[K - 1]  # the known-action expected payoff joins psi_last
    ms = master_system(psi, Q_star)
    rhs = ms.m_psi - np.outer(ms.psi_stack, np.pad(ms.det.coeffs, (0, m_x + 1 - len(ms.det.coeffs))))
    q1 = (K - 1) * m_x
    n_o = model.n_rival_profiles
    Pbar = np.zeros((q1, model.m_pi))
    for k in range(K - 1):
        for x in range(m_x):
            cols = (k * m_x + x) * n_o + np.arange(n_o)
            Pbar[k * m_x + x, cols] = P_minus[x]
    R2 = r2_irrelevance(model, i)
    return GameIdentSystem(firm=i, Pbar=Pbar, rhs_coeffs=rhs, det=ms.det, R2=R2,
                           psi=mpe.psi[i].copy(), m_x=m_x, m_pi=model.m_pi,
                           equilibrium_residual=mpe.residual)


# ---- restriction rows on the stacked game payoff -------------------------


def r2_irrelevance(model: GameModel, i: int) -> np.ndarray:
    """Rows equating firm ``i``'s payoff across rivals' lagged actions.

    For every action, current rival profile, exogenous state, and own lagged
    action, the payoff at each rivals'-lag variant equals the payoff at the
    all-zeros rivals'-lag baseline: ``(K-1)(K^(N-1)-1)m_x`` rows.
    """
    K, N, m_s = model.n_actions, model.n_firms, model.m_s
    rivals = model.rivals(i)
    rows = []
    for k in range(K - 1):
        for o in range(model.n_rival_profiles):
            for s in range(m_s):
                for own in range(K):
                    base_x = model.x_index(s, model.joint_from(i, own, (0,) * (N - 1)))
                    for _, lag_actions in model.rival_profiles(i):
                        if all(a == 0 for a in lag_actions):
                            continue
                        var_x = model.x_index(s, model.joint_from(i, own, lag_actions))
                        row = np.zeros(model.m_pi)
                        row[model.pi_position(i, k, var_x, o)] = 1.0
                        row[model.pi_position(i, k, base_x, o)] = -1.0
                        rows.append(row)
    return np.array(rows)


def _baseline_x(model: GameModel, i: int, s: int, own: int) -> int:
    """State with the given exogenous index and own lag, rivals' lags zeroed."""
    return model.x_index(s, model.joint_from(i, own, (0,) * (model.n_firms - 1)))


def reduced_cells(model: GameModel, i: int, actions=None):
    """Payoff cells that remain free once rivals' lagged actions are irrelevant.

    Yields ``(position, k, o, s, own_lag)`` at the zero rivals'-lag baseline,
    enumerated own-lag fastest, then ``s``, then rival profile, then action.
    """
    acts = range(model.n_actions - 1) if actions is None else actions
    for k in acts:
        for o in range(model.n_rival_profiles):
            for s in range(model.m_s):
                for own in range(model.n_actions):
                    x = _baseline_x(model, i, s, own)
                    yield model.pi_position(i, k, x, o), k, o, s, own


def r3_exchangeability(model: GameModel, i: int, actions=(0,)) -> np.ndarray:
    """Rows equating payoffs across permutations of the current rival profile.

    For each restricted action, exogenous state, and own lagged action, rival
    profiles with the same action multiset are equated to a representative.
    """
    rows = []
    classes = {}
    for o, acts in model.rival_profiles(i):
        classes.setdefault(tuple(sorted(acts)), []).append(o)
    for k in actions:
        for s in range(model.m_s):
            for own in range(model.n_actions):
                x = _baseline_x(model, i, s, own)
                for members in classes.values():
                    for o in members[1:]:
                        row = np.zeros(model.m_pi)
                        row[model.pi_position(i, k, x, members[0])] = 1.0
                        row[model.pi_position(i, k, x, o)] = -1.0
                        rows.append(row)
    return np.array(rows)


def r3_adjustment_cost(model: GameModel, i: int, actions=(0,), lag_pair=(0,)) -> np.ndarray:
    """Rows asserting the own-lag payoff difference is the same for every rival profile.

    For each restricted action and exogenous state, the difference between own
    lagged actions ``l`` and ``l+1`` under rival profile ``o`` equals the same
    difference under the first profile.
    """
    rows = []
    for k in actions:
        for s in range(model.m_s):
            for lag in lag_pair:
                x_hi = _baseline_x(model, i, s, lag)
                x_lo = _baseline_x(model, i, s, lag + 1)
                for o in range(1, model.n_rival_profiles):
                    row = np.zeros(model.m_pi)
                    row[model.pi_position(i, k, x_hi, o)] += 1.0
                    row[model.pi_position(i, k, x_lo, o)] -= 1.0
                    row[model.pi_position(i, k, x_hi, 0)] -= 1.0
                    row[model.pi_position(i, k, x_lo, 0)] += 1.0
                    rows.append(row)
    return np.array(rows)


def r3_linear(model: GameModel, i: int, design: np.ndarray) -> np.ndarray:
    """Kernel rows for a payoff linear in parameters on the reduced cells.

    ``design`` has one row per cell from :func:`reduced_cells` (same order) and
    one column per parameter.  Returns an orthonormal basis of the left null
    space, scattered to the stacked payoff coordinates.
    """
    cells = list(reduced_cells(model, i))
    design = np.asarray(design, dtype=float)
    if design.shape[0] != len(cells):
        raise ValueError(f"design must have {len(cells)} rows (one per reduced cell)")
    Umat, sv, _ = np.linalg.svd(design, full_matrices=True)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    if rank < design.shape[1]:
        raise RankDeficiencyError("design matrix is rank deficient",
                                  rank=rank, required=design.shape[1])
    kernel = Umat[:, rank:].T
    rows = np.zeros((kernel.shape[0], model.m_pi))
    for c, (pos, *_rest) in enumerate(cells):
        rows[:, pos] = kernel[:, c]
    return rows


def r4_monotone_own_lag(model: GameModel, i: int, actions=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Inequality rows: payoff weakly falls as the own lagged action weakens.

    Lower action values denote stronger positions (e.g. operating), so for
    each rival profile, state, and restricted action the payoff at own lag
    ``l`` is at least the payoff at own lag ``l+1``.
    """
    rows = []
    for k in actions:
        for o in range(model.n_rival_profiles):
            for s in range(model.m_s):
                for lag in range(model.n_actions - 1):
                    row = np.zeros(model.m_pi)
                    row[model.pi_position(i, k, _baseline_x(model, i, s, lag), o)] += 1.0
                    row[model.pi_position(i, k, _baseline_x(model, i, s, lag + 1), o)] -= 1.0
                    rows.append(row)
    R = np.array(rows)
    return R, np.zeros(R.shape[0])


def r4_monotone_rivals(model: GameModel, i: int, actions=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Inequality rows: payoff weakly rises as rivals' actions weaken.

    For each pair of rival profiles ordered componentwise (every rival's action
    at least as large, one strictly), the weaker-rival payoff is at least the
    stronger-rival payoff.
    """
    rows = []
    profs = list(model.rival_profiles(i))
    for k in actions:
        for s in range(model.m_s):
            for own in range(model.n_actions):
                x = _baseline_x(model, i, s, own)
                for (oa, aa), (ob, ab) in itertools.combinations(profs, 2):
                    hi, lo = None, None
                    if all(p >= q for p, q in zip(aa, ab)) and aa != ab:
                        hi, lo = oa, ob
                    elif all(q >= p for p, q in zip(aa, ab)) and aa != ab:
                        hi, lo = ob, oa
                    if hi is None:
                        continue
                    row = np.zeros(model.m_pi)
                    row[model.pi_position(i, k, x, hi)] += 1.0
                    row[model.pi_position(i, k, x, lo)] -= 1.0
                    rows.append(row)
    R = np.array(rows)
    return R, np.zeros(R.shape[0])


# ---- identified sets ------------------------------------------------------


def identified_set_game(system: GameIdentSystem, R3, c3=0.0, *,
                        residual_tol: float = ROOT_RESIDUAL_TOL) -> IdentifiedSet:
    """Common roots on ``[0, 1)`` of the firm's equality identification system.

    Intersects the roots of the extra equality rows ``R3 Pi = c3``, each a
    polynomial of degree at most ``m_x`` in the payoffs recovered from the
    square block (see :meth:`GameIdentSystem.payoff_polys`).
    Identically-zero polynomials (redundant rows) are flagged and excluded.
    """
    polys = system.payoff_polys(R3, c3)
    diagnostics = {"firm": system.firm, "condition_estimate": system.condition_estimate}
    if any(not p.is_zero for p in polys):
        sv = np.linalg.svd(coeff_matrix(polys), compute_uv=False)
        diagnostics["independent_polynomials"] = int(np.sum(sv > 1e-10 * sv[0]))
    return identified_set(polys, "eq", diagnostics, residual_tol=residual_tol)


def inequality_region_game(system: GameIdentSystem, R4, c4=0.0) -> IdentifiedSet:
    """Subset of ``[0, 1)`` where the payoffs recovered from the firm's square
    system satisfy ``R4 @ Pi(beta) >= c4``."""
    return identified_set(system.payoff_polys(R4, c4), "ge", {"firm": system.firm})
