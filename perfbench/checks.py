"""Answer checks computed apart from the program under test.

Single-agent answers are checked by recovering payoffs with one
``numpy.linalg.solve`` on ``I - beta*Q`` per candidate discount factor (no
adjugate, determinant or polynomial of the program is used); this is
backward-stable here because ``cond(I - beta*Q) <= (1+beta)/(1-beta)`` for a
row-stochastic ``Q``.  Game answers are checked against expected payoffs and
transitions built here from the ``GameModel`` primitives and equilibrium play:
one linear solve per candidate discount factor gives each firm's payoffs.
Every check returns a list of failure messages; an empty list means the answer
passed.
"""

from __future__ import annotations

import json
import os

import numpy as np

EULER_GAMMA = float(np.euler_gamma)

PLANTED_TOL = 1e-6        # planted beta must sit this close to a reported root
GAME_PLANTED_TOL = 1e-3   # the same for games (the game acceptance tolerance)
ROOT_SLACK_TOL = 1e-6     # max |R u(root) - c| for a reported root to count as confirmed
HOLD_TOL = 1e-9           # a row holds when its slack is >= -HOLD_TOL
ENDPOINT_STEP = 1e-5      # "just inside" and "just outside" a region endpoint
BELLMAN_TOL = 1e-8        # recovered payoff at the planted beta vs the planted payoff
GAME_SLACK_TOL = 5e-8     # the same for games, and for their payoffs at the planted beta
LOGIT_FACTOR = 10.0       # logit consistency allowed: LOGIT_FACTOR * residual + LOGIT_FLOOR
LOGIT_FLOOR = 1e-9


# ---- single agent ----------------------------------------------------------


def recover_payoffs(psi, Q, beta: float) -> np.ndarray:
    """Stacked payoffs of actions ``0..K-2`` implied by ``psi`` at ``beta``."""
    psi, Q = np.asarray(psi, dtype=float), np.asarray(Q, dtype=float)
    K, J = psi.shape
    V = np.linalg.solve(np.eye(J) - beta * Q[K - 1], psi[K - 1])
    return np.concatenate([-psi[k] + V - beta * (Q[k] @ V) for k in range(K - 1)])


def slack_fn(R, c, psi, Q):
    """``beta -> R u(beta) - c`` for payoffs recovered at ``beta``."""
    R, c = np.asarray(R), np.asarray(c)
    return lambda beta: R @ recover_payoffs(psi, Q, beta) - c


def check_bellman(psi, Q, beta: float, u_true) -> list[str]:
    """The inversion must give back the planted payoff at the planted beta."""
    err = float(np.max(np.abs(recover_payoffs(psi, Q, beta) - np.asarray(u_true))))
    return [] if err <= BELLMAN_TOL else [f"bellman: payoff recovered at planted beta off by {err:.3g}"]


def has_point(points, x: float, tol: float) -> bool:
    return any(abs(p - x) <= tol for p in points or [])


def in_region(intervals, x: float, tol: float = PLANTED_TOL) -> bool:
    return any(lo - tol <= x <= hi + tol for lo, hi in intervals or [])


def confirmed_roots(roots, slack_at, root_tol: float = ROOT_SLACK_TOL) -> int:
    """Number of reported roots at which every restriction row holds by recovery."""
    return sum(float(np.max(np.abs(slack_at(r)))) <= root_tol for r in roots)


def check_equality(label, roots, slack_at, beta_true: float, planted_tol: float = PLANTED_TOL,
                   root_tol: float = ROOT_SLACK_TOL) -> list[str]:
    """Planted beta within ``planted_tol`` of a root; every root confirmed by recovery."""
    out = []
    if not has_point(roots, beta_true, planted_tol):
        out.append(f"{label}: planted beta {beta_true:.10f} not among roots {[float(r) for r in roots]}")
    for r in roots:
        gap = float(np.max(np.abs(slack_at(r))))
        if gap > root_tol:
            out.append(f"{label}: root {r:.10f} leaves row slack {gap:.3g} by recovery")
    return out


def check_region(label, intervals, slack_at, beta_true: float,
                 hold_tol: float = HOLD_TOL) -> list[str]:
    """Planted beta inside the region; every endpoint holds just inside and
    fails just outside (the edges 0 and the open edge 1 have no outside)."""
    out = []
    if not in_region(intervals, beta_true):
        out.append(f"{label}: planted beta {beta_true:.10f} outside region {list(intervals)}")
    h = ENDPOINT_STEP
    for lo, hi in intervals:
        probes = [(lo + min(h, (hi - lo) / 2), True), (hi - min(h, (hi - lo) / 2), True)]
        if lo > h:
            probes.append((lo - h, False))
        if hi < 1.0 - h:
            probes.append((hi + h, False))
        for x, should_hold in probes:
            if (float(np.min(slack_at(x))) >= -hold_tol) != should_hold:
                side = "inside" if should_hold else "outside"
                out.append(f"{label}: endpoint of [{lo:.10f}, {hi:.10f}] wrong, "
                           f"rows {'fail' if should_hold else 'hold'} just {side} at {x:.10f}")
    return out


def check_contains(label, points, beta_true: float, tol: float = PLANTED_TOL) -> list[str]:
    if has_point(points, beta_true, tol):
        return []
    return [f"{label}: planted beta {beta_true:.10f} dropped, kept {[float(p) for p in points or []]}"]


def log_diff_gap(x: float, r, c: float, psi, Q) -> float:
    """``|r @ log u(x) - c|`` for payoffs recovered at ``x`` (inf where a payoff is not positive)."""
    u = recover_payoffs(psi, Q, x)
    return abs(float(np.dot(r, np.log(u))) - c) if np.all(u > 0) else np.inf


def check_log_diff(roots, r, c: float, psi, Q, beta_true: float) -> list[str]:
    """Planted beta among the roots; ``r @ log u(root) = c`` by recovery at each root."""
    out = check_contains("log_diff", roots, beta_true)
    for x in roots:
        gap = log_diff_gap(x, r, c, psi, Q)
        if gap > ROOT_SLACK_TOL:
            out.append(f"log_diff: root {x:.10f} leaves log-difference gap {gap:.3g}")
    return out


# ---- games -----------------------------------------------------------------


def game_expected_objects(model, P, i: int):
    """Firm ``i``'s expected flow payoffs ``(K, m_x)`` and transitions
    ``(K, m_x, m_x)`` against rival play ``P``, from the model primitives."""
    N, K, m_s = model.n_firms, model.n_actions, model.m_s
    base = K ** N
    m_x = m_s * base
    rivals = [j for j in range(N) if j != i]
    s_of_x = np.arange(m_x) // base
    pi = np.zeros((K, m_x))
    Qs = np.zeros((K, m_x, m_x))
    for o in range(K ** (N - 1)):
        acts = [(o // K ** t) % K for t in range(N - 1)]
        prob = np.prod([P[j, a] for j, a in zip(rivals, acts)], axis=0)
        for k in range(K):
            pi[k] += prob * model.payoffs[i, k, o]
            profile = [0] * N
            profile[i] = k
            for j, a in zip(rivals, acts):
                profile[j] = a
            lag = sum(a * K ** f for f, a in enumerate(profile))
            Qs[k][:, np.arange(m_s) * base + lag] += prob[:, None] * model.s_transition[s_of_x]
    return pi, Qs


def logit_deviation(model, P, i: int) -> float:
    """Sup distance between firm ``i``'s policy and the logit response to the
    value of that policy, evaluated by one linear solve."""
    P = np.asarray(P, dtype=float)
    pi, Qs = game_expected_objects(model, P, i)
    Pi = P[i]
    F = np.einsum("kx,kxy->xy", Pi, Qs)
    flow = np.sum(Pi * (pi + EULER_GAMMA - np.log(Pi)), axis=0)
    V = np.linalg.solve(np.eye(F.shape[0]) - model.betas[i] * F, flow)
    v = pi + model.betas[i] * np.einsum("kxy,y->kx", Qs, V)
    br = np.exp(v - v.max(axis=0))
    br /= br.sum(axis=0)
    return float(np.max(np.abs(br - Pi)))


def game_recovery(model, P, i: int):
    """``beta -> `` firm ``i``'s stacked payoff vector implied by play ``P``.

    The value of the known last action comes from one linear solve on
    ``I - beta*Q_last``, which gives the expected flow payoff of every other
    action in every state.  Payoffs do not depend on the rivals' lagged
    actions, so for each action, exogenous state and own lag the expected
    flows over the rivals' lags form a square system in the payoffs of the
    current rival profiles.  The stacked layout is the one ``GameModel``
    documents: action, then state, then rival profile fastest.
    """
    P = np.asarray(P, dtype=float)
    N, K, m_s = model.n_firms, model.n_actions, model.m_s
    pi, Qs = game_expected_objects(model, P, i)
    psi = EULER_GAMMA - np.log(P[i])
    m_x, n_o, base = pi.shape[1], K ** (N - 1), K ** N
    rivals = [j for j in range(N) if j != i]
    rival_acts = [[(o // K ** t) % K for t in range(N - 1)] for o in range(n_o)]
    blocks = []  # (states sharing the payoffs, inverse of their rival-probability matrix)
    for s in range(m_s):
        for own in range(K):
            xs = []
            for acts in rival_acts:  # the rivals' lagged actions
                lag = own * K ** i + sum(a * K ** j for j, a in zip(rivals, acts))
                xs.append(s * base + lag)
            A = np.array([[np.prod([P[j, a, x] for j, a in zip(rivals, acts)])
                           for acts in rival_acts] for x in xs])
            blocks.append((xs, np.linalg.inv(A)))

    def payoffs(beta: float) -> np.ndarray:
        V = np.linalg.solve(np.eye(m_x) - beta * Qs[K - 1], psi[K - 1] + pi[K - 1])
        out = np.empty((K - 1, m_x, n_o))
        for k in range(K - 1):
            flow = -psi[k] + V - beta * (Qs[k] @ V)
            for xs, Ainv in blocks:
                out[k, xs] = Ainv @ flow[xs]
        return out.ravel()

    return payoffs


def game_true_payoffs(model, i: int) -> np.ndarray:
    """Firm ``i``'s planted payoffs in the stacked layout."""
    return np.asarray(model.payoffs[i, :-1]).transpose(0, 2, 1).ravel()


def check_game(model, P, residual: float, roots: dict, regions: dict) -> tuple[list[str], int]:
    """Logit consistency of every firm; the planted payoffs recovered at each
    planted beta; planted betas back from each equality restriction within
    GAME_PLANTED_TOL and every reported root confirmed by recovery; each
    monotone region holding the planted beta with endpoints that hold just
    inside and fail just outside.

    ``roots[(i, name)]`` is ``(points, R3)`` and ``regions[(i, name)]`` is
    ``(intervals, R4, c4)`` for firm ``i``.  Returns the failures and the
    number of reported roots confirmed."""
    out = []
    limit = LOGIT_FACTOR * residual + LOGIT_FLOOR
    recover = {}
    for i in range(model.n_firms):
        dev = logit_deviation(model, P, i)
        if dev > limit:
            out.append(f"game firm {i}: policy is {dev:.3g} from its logit response "
                       f"(solver residual {residual:.3g})")
        recover[i] = game_recovery(model, P, i)
        err = float(np.max(np.abs(recover[i](float(model.betas[i])) - game_true_payoffs(model, i))))
        if err > GAME_SLACK_TOL:
            out.append(f"game firm {i}: payoff recovered at planted beta off by {err:.3g}")
    confirmed = 0
    for (i, name), (pts, R3) in roots.items():
        def slack_at(b):
            return R3 @ recover[i](b)
        out += check_equality(f"game firm {i} {name}", pts, slack_at, float(model.betas[i]),
                              GAME_PLANTED_TOL, GAME_SLACK_TOL)
        confirmed += confirmed_roots(pts, slack_at, GAME_SLACK_TOL)
    for (i, name), (ivs, R4, c4) in regions.items():
        def slack_at(b):
            return R4 @ recover[i](b) - c4
        out += check_region(f"game firm {i} {name}", ivs, slack_at, float(model.betas[i]),
                            GAME_SLACK_TOL)
    return out, confirmed


# ---- command line ----------------------------------------------------------

ARTIFACTS = ("curves.csv", "identified_set.json", "run_manifest.json")


def read_artifacts(out_dir: str) -> dict:
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def check_cli_run(label: str, artifacts: dict, expected_combined, grid_rows: int,
                  reference: dict | None, root_tol: float) -> list[str]:
    """Combined roots as expected, one curve row per grid point, and bytes
    identical to the reference round."""
    out = []
    combined = json.loads(artifacts["identified_set.json"])["combined"].get("combined")
    if combined is None or len(combined) != len(expected_combined) or any(
            abs(a - b) > root_tol for a, b in zip(combined, expected_combined)):
        out.append(f"cli {label}: combined {combined}, expected {expected_combined}")
    rows = artifacts["curves.csv"].count(b"\n") - 1
    if rows != grid_rows:
        out.append(f"cli {label}: curves.csv has {rows} rows for {grid_rows} grid points")
    if reference is not None:
        for name in ARTIFACTS:
            if artifacts[name] != reference[name]:
                out.append(f"cli {label}: {name} differs from the reference round")
    return out
