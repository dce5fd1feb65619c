"""Single-agent dynamic discrete choice: model, logit solver, payoff recovery.

``solve_logit``, the package's one logit dynamic-program solver, takes Newton
steps for ``solve_bellman`` and for each firm's best response in ``games``.

Conventions: actions are 0-based (``k = 0, ..., K-1``); the last action
``K-1`` carries the payoff normalization ``u[K-1] = 0`` whenever the model is
used for identification.  Stacked payoff/inversion vectors are action-major:
all states of action 0 first, then action 1, and so on, covering actions
``0..K-2`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .betapoly import MatrixPoly, check_stochastic, det_coeffs, faddeev_adj_det, freeze, grid_split, horner_stack
from .betapoly import _numbers, require_finite, two_prod, two_sum
from .errors import ConvergenceError
from .restrictions import _targets

EULER_GAMMA = float(np.euler_gamma)

# A Newton step below this (relative to max(1, |V|_inf)) that does not shrink is
# rounding noise: under quadratic convergence the next step is at rounding level.
_NOISE_STEP = 1e-8


def _model_arrays(x, Q, name: str):
    """Payoffs or inversion vectors ``x`` and transitions ``Q`` as float
    arrays, the one check of the pair: ``x`` finite, ``(K, J)``, at least two
    actions and one state, and ``Q`` row-stochastic, ``(K, J, J)``, so that
    ``Q[K-1]`` is the normalized action's."""
    x = require_finite(x, name)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError(f"{name} must be (K, J): need at least two actions and one state, got {x.shape}")
    K, J = x.shape
    if np.shape(Q) != (K, J, J):
        raise ValueError(f"Q must have shape {(K, J, J)} to match {name}, got {np.shape(Q)}")
    return x, check_stochastic(Q, "transition row", ("action", "state"))


def _discount(beta, name: str) -> float:
    """``beta`` as a float, read by :func:`require_finite` and checked to lie in ``[0, 1)``."""
    beta = float(require_finite(beta, name))
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"{name} must lie in [0, 1)")
    return beta


def _check_max_iter(max_iter) -> None:
    """A ValueError unless ``max_iter`` is at least 1: an iteration that takes
    no step has no answer to return."""
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


@dataclass(frozen=True)
class SingleAgentModel:
    """Primitives of a stationary infinite-horizon discrete choice model.

    Attributes
    ----------
    u : ndarray, shape (K, J)
        Per-period payoffs by action and state (utils).
    Q : ndarray, shape (K, J, J)
        Row-stochastic transition matrices by action.
    beta : float
        Discount factor in ``[0, 1)``.

    ``u`` and ``Q`` are kept as read-only float copies, checked by
    :func:`_model_arrays`, and ``beta`` as a float, checked by :func:`_discount`.
    """

    u: np.ndarray
    Q: np.ndarray
    beta: float

    def __post_init__(self):
        freeze(self, u=self.u, Q=self.Q)
        _model_arrays(self.u, self.Q, "u")
        object.__setattr__(self, "beta", _discount(self.beta, "beta"))

    @property
    def n_actions(self) -> int:
        return self.u.shape[0]

    @property
    def n_states(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class CcpSolution:
    """Equilibrium objects of the solved model (all in utils).

    ``p`` and ``psi`` are (K, J); ``V`` is the integrated value (J,);
    ``v`` the choice-specific values (K, J).  ``residual`` is the sup-norm
    Bellman residual at ``V`` and ``residual_path`` the sup-norm size of each
    Newton step taken.  The solution unpacks as ``p, V, v``.
    """

    p: np.ndarray
    psi: np.ndarray
    V: np.ndarray
    v: np.ndarray
    residual: float
    residual_path: np.ndarray

    def __iter__(self):
        return iter((self.p, self.V, self.v))


def _logit(u, Q, beta, V):
    """Values ``v_k = u_k + beta Q_k V``, log choice probabilities and
    ``logsumexp(v)``; the log probabilities come from the max-shifted values,
    so they stay normalized however large ``V`` is."""
    v = u + beta * np.einsum("kij,j->ki", Q, V)
    m = v.max(axis=0)
    log_s = np.log(np.exp(v - m).sum(axis=0))
    return v, (v - m) - log_s, m + log_s


def _newton_step(u, Q, beta: float, V, history=()):
    """One Newton-Kantorovich step from ``V``: the value of the logit policy at
    ``V``, which solves ``(I - beta sum_k p_k Q_k) V' = gamma + sum_k p_k (u_k
    - log p_k)``, and the step's size ``|V' - V|_inf``.

    Raises
    ------
    ConvergenceError
        If the step cannot be solved or overflows; the exception carries the
        last ten entries of ``history``, the step sizes before it.
    """
    _, log_p, _ = _logit(u, Q, beta, V)
    p = np.exp(log_p)
    A = np.eye(len(V))
    A -= beta * np.einsum("ki,kij->ij", p, Q)
    try:
        V_new = np.linalg.solve(A, EULER_GAMMA + np.einsum("ki,ki->i", p, u - log_p))
    except np.linalg.LinAlgError as err:  # beta within rounding of 1
        raise ConvergenceError(f"Newton step has no solution: {err}", history=history[-10:]) from err
    step = float(np.max(np.abs(V_new - V)))
    if not np.isfinite(step):
        raise ConvergenceError("Newton step is not finite: the values overflow",
                               residual=step, history=history[-10:])
    return V_new, step


def solve_logit(u, Q, beta: float, V0=None, tol: float = 1e-12, max_iter: int = 100) -> CcpSolution:
    """Solve a logit dynamic program by Newton-Kantorovich steps (Rust 1987).

    Each step (:func:`_newton_step`) takes the logit choice probabilities
    ``p`` at the integrated value ``V`` (``u`` is (K, J), ``Q`` is (K, J, J),
    ``V0`` defaults to zero and is not written to; ``beta`` is checked by
    :func:`_discount`, ``u`` and ``Q`` are not) and solves the policy's Bellman
    equation ``(I - beta sum_k p_k Q_k) V = gamma + sum_k p_k (u_k - log p_k)``.
    It stops after a step of at most ``tol * max(1, |V|_inf)``, or before a
    step that is rounding noise (``_NOISE_STEP``), which it does not take.

    Raises
    ------
    ValueError
        If ``max_iter`` is below 1.
    ConvergenceError
        If neither happens within ``max_iter`` steps, or a step cannot be
        solved or overflows; the exception carries the last step sizes.
    """
    beta = _discount(beta, "beta")
    _check_max_iter(max_iter)
    V = np.zeros(u.shape[1]) if V0 is None else np.array(V0, dtype=float)
    steps = []
    for _ in range(max_iter):
        V_new, step = _newton_step(u, Q, beta, V, steps)
        scale = max(1.0, float(np.max(np.abs(V_new))))
        if steps and steps[-1] <= step <= _NOISE_STEP * scale:
            break
        V = V_new
        steps.append(step)
        if step <= tol * scale:
            break
    else:
        raise ConvergenceError(f"Newton iteration did not reach a relative step of {tol} "
                               f"in {max_iter} steps", residual=steps[-1], history=steps[-10:])
    v, log_p, lse = _logit(u, Q, beta, V)
    return CcpSolution(p=np.exp(log_p), psi=EULER_GAMMA - log_p, V=V, v=v,
                       residual=float(np.max(np.abs(EULER_GAMMA + lse - V))),
                       residual_path=np.asarray(steps))


def solve_bellman(model: SingleAgentModel, tol: float = 1e-12, max_iter: int = 100) -> CcpSolution:
    """Solve the model's logit dynamic program with :func:`solve_logit`."""
    return solve_logit(model.u, model.Q, model.beta, tol=tol, max_iter=max_iter)


def psi_from_ccps(p) -> np.ndarray:
    """Hotz-Miller inversion for type-I extreme value shocks: ``gamma - log(p)``.

    Accepts any array of numbers (:func:`betapoly._numbers`); every entry
    must lie strictly inside ``(0, 1)`` (a NaN does not).
    """
    p = _numbers(p, "p")
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("choice probabilities must lie strictly inside (0, 1)")
    return EULER_GAMMA - np.log(p)


def recover_payoffs(psi, Q, beta_hat: float) -> np.ndarray:
    """Per-period payoffs implied by the inversion vectors at a candidate discount factor.

    Computes ``u_k = -psi_k + (I - beta Q_k) (I - beta Q_{K-1})^{-1} psi_{K-1}``
    for ``k = 0..K-2`` via a linear solve (no explicit inverse) and returns the
    action-major stacked vector of length ``J*(K-1)``.  The last action's
    payoff is the zero vector by normalization.  ``psi`` and ``Q`` are checked
    by :func:`_model_arrays`, ``beta_hat`` by :func:`_discount`.
    """
    psi, Q = _model_arrays(psi, Q, "psi")
    beta_hat = _discount(beta_hat, "beta_hat")
    K, J = psi.shape
    V = np.linalg.solve(np.eye(J) - beta_hat * Q[K - 1], psi[K - 1])
    return (-psi[: K - 1] + V - beta_hat * (Q[: K - 1] @ V)).reshape(-1)


@dataclass(frozen=True)
class MasterSystem:
    """The stacked polynomial restriction system of the model.

    The determinant-scaled payoffs recovered at a discount factor are

        G_k(beta) = (I - beta*Q_k) adj(beta) psi_last - det(beta) psi_k

    for ``k = 0..K-2``, where ``det`` and ``adj`` are the determinant and
    adjugate of ``I - beta*Q[K-1]``; ``G(beta) = det(beta) * U`` at the true
    discount factor.  ``g`` holds the coefficient rows of ``G``, action-major,
    shape ``(J*(K-1), J+1)``; ``det`` holds the ``J + 1`` coefficients of the
    determinant, from :func:`betapoly.det_coeffs` (about ``3.5 sqrt(J)``
    matrix products and ``sqrt(J) J^2`` floats from 64 states on), and
    ``q_last`` is a read-only copy of ``Q[K-1]``.

    A game firm's system (``games.build_system``) is this system mapped
    through the firm's square blocks, one per exogenous state and own lag:
    its ``g`` holds the firm's payoff rows and ``q_last`` is that of the
    single-agent system it came from.
    ``noise`` is the coefficient size at or below which a row of unit weight
    is noise (see :meth:`payoff_polys`); ``info`` holds the diagnostics every
    set built from the system carries.
    """

    det: np.ndarray
    q_last: np.ndarray
    g: np.ndarray
    noise: float
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        freeze(self, q_last=self.q_last)

    @cached_property
    def m(self) -> MatrixPoly:
        """The adjugate of ``I - beta*q_last``, ``J`` coefficient matrices of
        ``J x J``, formed on first read; nothing in the package reads it."""
        return faddeev_adj_det(self.q_last)[0]

    @property
    def n_rows(self) -> int:
        return self.g.shape[0]

    def payoff_polys(self, R, c=0.0) -> np.ndarray:
        """Coefficient rows of ``R G(beta) - c det(beta)``, shape
        ``(rows, J + 1)``: since ``det > 0`` on ``[0, 1)``, a row is ``>= 0``
        where the payoffs recovered at beta satisfy ``R U >= c``.  ``c`` is
        one finite number per row, or one for every row, and ``R`` finite;
        anything else, or a row that overflows, is a ``ValueError``.  A row no
        larger than ``noise * max(1, max|R|)`` holds at every beta and is set to zero."""
        R = np.atleast_2d(require_finite(R, "R"))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing row is named below
            rows = R @ self.g - np.outer(_targets(c, R.shape[0]), self.det)
        if not np.isfinite(rows).all():
            raise ValueError(f"row {np.argwhere(~np.isfinite(rows))[0, 0]} of R G(beta) - c det(beta) overflows")
        rows[np.max(np.abs(rows), axis=1) <= self.noise * max(1.0, np.abs(R).max(initial=0.0))] = 0.0
        return rows


def master_system(psi, Q) -> MasterSystem:
    """Build the determinant/adjugate form of the model's restriction system.

    ``det`` is :func:`betapoly.det_coeffs` of ``Q[K-1]``, and ``a =
    adj(beta) psi_last`` comes from ``a_0 = psi_last``, ``a_j = Q_last
    a_{j-1} + d_j psi_last`` (:func:`betapoly.horner_stack`: ``J``
    matrix-vector products, the adjugate never formed) in double-double.  The
    coefficients of ``(I - beta*Q_k) a - det psi_k``, those of ``a`` minus
    those of ``Q_k a`` one degree up minus ``det psi_k``, cancel, so one
    kernel adds their three large terms exactly (:func:`betapoly.grid_split`
    parts) and rounds each coefficient once.  For ``k = K-1`` they vanish in
    exact arithmetic: the kernel's values there are minus the recursion's
    rounding errors, which run through it once more.

    ``psi`` holds the (K, J) inversion vectors (``gamma - log p`` under
    type-I extreme value, or any precomputed family) and ``Q`` the (K, J, J)
    transitions, both checked by :func:`_model_arrays`.
    """
    psi, Q = _model_arrays(psi, Q, "psi")
    K, J = psi.shape
    det = det_coeffs(Q[K - 1])
    ah = horner_stack(Q[K - 1], det[:J, None] * psi[K - 1])  # row j: coefficient j of adj psi_last, rounded
    X1, X2 = grid_split(ah, J, axis=1)

    def residual(k, al=None):
        """Coefficient rows of ``G_k``, ``a_j - Q_k a_(j-1) - d_j psi_k`` with
        ``a = ah + al`` (``al`` zero if ``None``), and the largest ``|ah_j -
        Q_k ah_(j-1)|``, the scale of the system's noise."""
        P1, P2 = (X1 @ H for H in grid_split(Q[k].T, J))  # row j of P1 + P2 is Q_k ah_j, P1 exact
        P2 += X2 @ Q[k].T
        top, lo = np.zeros((J + 1, J)), np.zeros((J + 1, J))
        top[:-1] = ah
        if al is not None:
            P2 += al @ Q[k].T
            lo[:-1] = al
        top[1:], e = two_sum(top[1:], -P1)
        lo[1:] += e - P2
        del P1, P2, e
        big = float(np.max(np.abs(top)))
        p, e = two_prod(det[:, None], psi[k])
        top, e2 = two_sum(top, -p)
        lo += e2 - e
        return (top + lo).T, big

    # the recursion's rounding errors, exact to first order, run through it
    al = horner_stack(Q[K - 1], -residual(K - 1)[0].T[:J])  # adj psi_last = ah + al
    g, noise = np.empty((K - 1, J, J + 1)), 1.0
    for k in range(K - 1):
        g[k], big = residual(k, al)
        noise = max(noise, big)
    noise *= 1e-12  # rows at rounding level of the system inputs
    return MasterSystem(det=det, q_last=Q[K - 1], g=g.reshape(-1, J + 1), noise=noise)
