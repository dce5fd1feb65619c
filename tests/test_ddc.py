import re
import tracemalloc

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ddcident import betapoly
from ddcident.betapoly import det_coeffs, faddeev_adj_det
from ddcident.ddc import (
    EULER_GAMMA,
    SingleAgentModel,
    master_system,
    psi_from_ccps,
    recover_payoffs,
    solve_bellman,
    solve_logit,
)
from ddcident.errors import ConvergenceError


def random_model(rng, K=2, J=4, beta=None):
    u = rng.normal(size=(K, J))
    u[-1] = 0.0
    Q = rng.random((K, J, J)) + 1e-3
    Q /= Q.sum(axis=2, keepdims=True)
    beta = rng.uniform(0.0, 0.97) if beta is None else beta
    return SingleAgentModel(u=u, Q=Q, beta=beta)


def master_residual(ms, U, beta):
    """Rows ``G(beta) - det(beta) U`` of the master system: zero where ``U`` is
    the payoff vector recovered at ``beta``."""
    return npoly.polyval(beta, ms.payoff_polys(np.eye(ms.n_rows), U).T)


def bellman_oracle(model, tol=1e-13, max_iter=400_000):
    """Independent successive-approximation solver on choice-specific values.

    Iterates v_k(x) <- u_k(x) + beta * sum_x' Q_k(x,x') [gamma + log sum_l exp v_l(x')]
    with plain per-state loops; shares no code with the production solver.
    """
    K, J = model.n_actions, model.n_states
    v = [[0.0] * J for _ in range(K)]
    for _ in range(max_iter):
        emax = []
        for x in range(J):
            m = max(v[k][x] for k in range(K))
            emax.append(EULER_GAMMA + m + np.log(sum(np.exp(v[k][x] - m) for k in range(K))))
        v_new = [[model.u[k, x] + model.beta * sum(model.Q[k, x, y] * emax[y] for y in range(J))
                  for x in range(J)] for k in range(K)]
        diff = max(abs(v_new[k][x] - v[k][x]) for k in range(K) for x in range(J))
        v = v_new
        if diff <= tol:
            break
    p = np.empty((K, J))
    for x in range(J):
        m = max(v[k][x] for k in range(K))
        denom = sum(np.exp(v[k][x] - m) for k in range(K))
        for k in range(K):
            p[k, x] = np.exp(v[k][x] - m) / denom
    return p


class TestSolveBellman:
    def test_myopic_agent_is_static_softmax(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, K=3, J=5, beta=0.0)
        sol = solve_bellman(m)
        ex = np.exp(m.u)
        assert sol.p == pytest.approx(ex / ex.sum(axis=0), abs=1e-12)
        assert sol.v == pytest.approx(m.u)

    def test_symmetric_payoffs_give_even_odds(self):
        rng = np.random.default_rng(1)
        Q = rng.random((2, 4, 4)) + 0.1
        Q /= Q.sum(axis=2, keepdims=True)
        Q[1] = Q[0]
        m = SingleAgentModel(u=np.zeros((2, 4)), Q=Q, beta=0.8)
        sol = solve_bellman(m)
        assert sol.p == pytest.approx(0.5, abs=1e-12)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            m = random_model(rng, K=2, J=4)
            sol = solve_bellman(m)
            assert sol.p == pytest.approx(bellman_oracle(m), abs=1e-10)

    def test_solution_invariants(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, K=3, J=6, beta=0.9)
        sol = solve_bellman(m)
        assert sol.residual <= 1e-12
        assert sol.p.sum(axis=0) == pytest.approx(1.0, abs=1e-10)
        assert np.all(sol.p > 0.0)
        assert sol.psi == pytest.approx(EULER_GAMMA - np.log(sol.p))
        assert sol.psi == pytest.approx(sol.V - sol.v, abs=1e-10)
        # the stacked equations hold at the fixed point
        for k in range(3):
            assert sol.v[k] == pytest.approx(m.u[k] + m.beta * (m.Q[k] @ sol.V), abs=1e-10)

    def test_residuals_decrease_monotonically(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, K=2, J=5, beta=0.93)
        sol = solve_bellman(m)
        path = sol.residual_path
        assert np.all(np.diff(path) <= 1e-15)

    def test_nonconvergence_reports_residual(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, K=2, J=4, beta=0.9)
        with pytest.raises(ConvergenceError) as err:
            solve_bellman(m, tol=1e-12, max_iter=3)
        assert err.value.residual is not None

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_step_allowed_is_named(self, max_iter):
        # with no step there is no answer: this ended in a bare IndexError
        rng = np.random.default_rng(5)
        m = random_model(rng, K=2, J=4, beta=0.9)
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            solve_logit(m.u, m.Q, m.beta, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter"):
            solve_bellman(m, max_iter=max_iter)

    def test_overflowing_values_raise(self):
        m = SingleAgentModel(u=np.array([[1e306], [0.0]]), Q=np.ones((2, 1, 1)), beta=0.999999)
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="not finite"):
            solve_bellman(m)

    def test_rejects_bad_primitives(self):
        with pytest.raises(ValueError, match="sum"):
            SingleAgentModel(u=np.zeros((2, 2)), Q=np.full((2, 2, 2), 0.4), beta=0.5)
        with pytest.raises(ValueError, match="beta"):
            SingleAgentModel(u=np.zeros((2, 2)), Q=np.full((2, 2, 2), 0.5), beta=1.0)

    def test_non_finite_payoff_named(self):
        # accepted once, and the solve then blamed "the values overflow"
        u = np.zeros((2, 3))
        u[0, 1] = np.nan
        with pytest.raises(ValueError, match=r"u\[0, 1\] = nan is not finite"):
            SingleAgentModel(u=u, Q=np.full((2, 3, 3), 1.0 / 3.0), beta=0.5)

    def test_callers_arrays_stay_writable(self):
        # the model once made the caller's own arrays read-only
        u, Q = np.zeros((2, 3)), np.full((2, 3, 3), 1.0 / 3.0)
        m = SingleAgentModel(u=u, Q=Q, beta=0.5)
        assert u.flags.writeable and Q.flags.writeable
        assert not (m.u.flags.writeable or m.Q.flags.writeable)
        u[0, 0] = 1.0
        assert m.u[0, 0] == 0.0

    @pytest.mark.parametrize("beta,message", [(False, "beta = False is not a number"),  # once stored
                                              ("0.5", "beta = '0.5' is not a number")])  # once a TypeError
    def test_beta_read_as_a_number(self, beta, message):
        with pytest.raises(ValueError, match=message):
            SingleAgentModel(u=np.zeros((2, 3)), Q=np.full((2, 3, 3), 1.0 / 3.0), beta=beta)

    def test_beta_stored_as_float(self):
        assert type(SingleAgentModel(u=np.zeros((2, 3)), Q=np.full((2, 3, 3), 1.0 / 3.0), beta=0).beta) is float

    def test_string_payoff_named(self):
        # once read as numbers
        with pytest.raises(ValueError, match=r"u\[0, 0\] = '1' is not a number"):
            SingleAgentModel(u=[["1", "2"], ["0", "0"]], Q=np.full((2, 2, 2), 0.5), beta=0.5)


class TestPsiInversion:
    def test_even_odds(self):
        assert psi_from_ccps(0.5) == pytest.approx(EULER_GAMMA + np.log(2.0))
        assert psi_from_ccps(0.5) == pytest.approx(1.270362845, abs=1e-9)

    def test_reciprocal_e(self):
        assert psi_from_ccps(1.0 / np.e) == pytest.approx(EULER_GAMMA + 1.0)

    def test_matches_value_difference(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, K=2, J=5)
        sol = solve_bellman(m)
        assert psi_from_ccps(sol.p[0]) == pytest.approx(sol.V - sol.v[0], abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            psi_from_ccps([0.2, 0.0])
        with pytest.raises(ValueError):
            psi_from_ccps(-0.1)
        with pytest.raises(ValueError):
            psi_from_ccps(1.0)
        # NaN fails both comparisons, so it once passed and gave a NaN psi
        with pytest.raises(ValueError, match="strictly inside"):
            psi_from_ccps([0.5, np.nan])


class TestRecoverPayoffs:
    @pytest.mark.parametrize("beta_hat", ["0.5", True])
    def test_beta_hat_read_as_a_number(self, beta_hat):
        # a string was once a bare TypeError, and True read as 1 and refused as out of range
        m = random_model(np.random.default_rng(9))
        with pytest.raises(ValueError, match=f"beta_hat = {beta_hat!r} is not a number"):
            recover_payoffs(solve_bellman(m).psi, m.Q, beta_hat)

    def test_static_logit_inversion_at_zero(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, K=3, J=4)
        sol = solve_bellman(m)
        U = recover_payoffs(sol.psi, m.Q, 0.0)
        expected = np.log(sol.p[:-1]) - np.log(sol.p[-1])
        assert U == pytest.approx(expected.reshape(-1), abs=1e-12)

    def test_round_trip_on_random_models(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            K = int(rng.integers(2, 4))
            J = int(rng.integers(2, 11))
            m = random_model(rng, K=K, J=J)
            sol = solve_bellman(m)
            U = recover_payoffs(sol.psi, m.Q, m.beta)
            assert np.max(np.abs(U - m.u[:-1].ravel())) <= 1e-8

    def test_rejects_bad_beta(self):
        rng = np.random.default_rng(9)
        m = random_model(rng)
        sol = solve_bellman(m)
        with pytest.raises(ValueError):
            recover_payoffs(sol.psi, m.Q, 1.0)

    @pytest.mark.parametrize("build", [lambda psi, Q: recover_payoffs(psi, Q, 0.5),
                                       lambda psi, Q: master_system(psi, Q)],
                             ids=["recover_payoffs", "master_system"])
    def test_non_finite_psi_named(self, build):
        # each once returned NaN payoffs or rows with no error
        m = random_model(np.random.default_rng(9))
        psi = solve_bellman(m).psi.copy()
        psi[1, 2] = np.inf
        with pytest.raises(ValueError, match=r"psi\[1, 2\] = inf is not finite"):
            build(psi, m.Q)


class TestMasterSystem:
    def test_degenerate_identity_transitions(self):
        u = np.array([[1.0, -0.5], [0.0, 0.0]])
        Q = np.stack([np.eye(2), np.eye(2)])
        m = SingleAgentModel(u=u, Q=Q, beta=0.7)
        sol = solve_bellman(m)
        ms = master_system(sol.psi, m.Q)
        assert ms.det == pytest.approx([1.0, -2.0, 1.0])
        assert np.max(np.abs(master_residual(ms, u[:-1].ravel(), 0.7))) < 1e-10

    def test_residual_vanishes_at_true_beta(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            m = random_model(rng, K=3, J=5)
            sol = solve_bellman(m)
            ms = master_system(sol.psi, m.Q)
            scale = max(1.0, np.max(np.abs(ms.g)))
            res = master_residual(ms, m.u[:-1].ravel(), m.beta)
            assert np.max(np.abs(res)) <= 1e-8 * scale

    def test_residual_vanishes_at_one_for_any_payoff(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, K=2, J=6)
        sol = solve_bellman(m)
        ms = master_system(sol.psi, m.Q)
        scale = max(1.0, np.max(np.abs(ms.g)))
        for _ in range(5):
            U = rng.normal(scale=10.0, size=ms.n_rows)
            assert np.max(np.abs(master_residual(ms, U, 1.0))) <= 1e-8 * scale

    def test_residual_polys_have_degree_at_most_j(self):
        rng = np.random.default_rng(12)
        m = random_model(rng, K=2, J=7)
        sol = solve_bellman(m)
        ms = master_system(sol.psi, m.Q)
        for p in ms.payoff_polys(np.eye(ms.n_rows)):
            assert np.flatnonzero(p).max(initial=0) <= 7

    @pytest.mark.parametrize("K", [2, 3])
    def test_recovered_payoff_matches_direct_recovery(self, K):
        rng = np.random.default_rng(13)
        m = random_model(rng, K=K, J=5)
        sol = solve_bellman(m)
        ms = master_system(sol.psi, m.Q)
        assert ms.g.shape == (5 * (K - 1), 6)
        for beta in (0.0, 0.3, 0.9):
            assert npoly.polyval(beta, ms.g.T) / npoly.polyval(beta, ms.det) == pytest.approx(
                recover_payoffs(sol.psi, m.Q, beta), abs=1e-9)

    @pytest.mark.parametrize("c,message", [
        ([0.5], r"c must be a number or one number per row \(3\), not float64 of shape \(1,\)"),  # once three rows
        ([0.5] * 4, r"one number per row \(3\), not float64 of shape \(4,\)"),
        ("3", r"one number per row \(3\), not <U1"),                          # once read as 3.0
        ([0.0, float("nan"), 0.0], r"c\[1\] = nan is not finite"),             # once NaN rows
        (float("inf"), r"c = inf is not finite"),
    ])
    def test_payoff_polys_rejects_bad_targets(self, c, message):
        rng = np.random.default_rng(15)
        m = random_model(rng, K=2, J=4)
        ms = master_system(solve_bellman(m).psi, m.Q)
        with pytest.raises(ValueError, match=message):
            ms.payoff_polys(np.eye(3, ms.n_rows), c)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(14)
        m = random_model(rng, K=2, J=4)
        sol = solve_bellman(m)
        with pytest.raises(ValueError):
            master_system(sol.psi, m.Q[:, :3, :3])


def banded_transitions(J, seed, band=3):
    """Two actions of banded random transitions, action 0 drifting up the
    state grid and action 1 down (the recipe of the benchmark's large models)."""
    rng = np.random.default_rng([seed, J, 3])
    Q = np.zeros((2, J, J))
    for a, drift in ((0, 1), (1, -1)):
        for i in range(J):
            lo, hi = max(0, i - band), min(J, i + band + 1)
            w = rng.uniform(0.5, 1.5, hi - lo)
            w[min(max(i + drift, lo), hi - 1) - lo] += 2.0
            Q[a, i, lo:hi] = w / w.sum()
    return Q


def mp_faddeev_error(d, Q, dps=50):
    """max|d - exact| / max|exact| for the coefficients ``d`` of det(I -
    beta*Q), the exact ones from the Faddeev-LeVerrier recursion in mpmath at
    ``dps`` digits, which shares no code or arithmetic with ``det_coeffs``.
    Its products skip the zeros of ``Q``, so a banded 72-state matrix takes
    seconds."""
    import mpmath as mp
    J = len(Q)
    with mp.workdps(dps):
        rows = [[(k, mp.mpf(x)) for k, x in enumerate(row) if x] for row in np.asarray(Q).tolist()]
        A = [[mp.mpf(int(i == j)) for j in range(J)] for i in range(J)]
        exact = [mp.mpf(1)]
        for j in range(1, J + 1):
            W = [[mp.fdot((q, A[k][c]) for k, q in row) for c in range(J)] for row in rows]
            exact.append(-mp.fsum(W[i][i] for i in range(J)) / j)
            A = [[W[i][c] + (exact[-1] if i == c else 0) for c in range(J)] for i in range(J)]
        return float(max(abs(x - e) for x, e in zip(np.asarray(d).tolist(), exact)) / max(map(abs, exact)))


def mp_rows_error(ms, psi, Q, beta, dps=40):
    """max|G(beta) - det(beta) u(beta)| / max|det(beta) u(beta)|: the rows'
    float coefficients evaluated exactly, against det and the payoffs
    ``u_k = -psi_k + (I - beta Q_k) V``, ``(I - beta Q_last) V = psi_last``,
    in mpmath at ``dps`` digits."""
    import mpmath as mp
    K, J = psi.shape
    with mp.workdps(dps):
        b = mp.mpf(beta)
        M = mp.matrix([[int(i == j) - b * mp.mpf(x) for j, x in enumerate(row)] for i, row in enumerate(Q[-1].tolist())])
        det, V = mp.det(M), mp.lu_solve(M, mp.matrix(psi[-1].tolist()))
        ref = [det * (-mp.mpf(psi[k, i]) + V[i] - b * mp.fdot(Q[k, i].tolist(), V))
               for k in range(K - 1) for i in range(J)]
        rows = [mp.polyval([mp.mpf(c) for c in row[::-1]], b) for row in ms.g.tolist()]
        return float(max(abs(r - e) for r, e in zip(rows, ref)) / max(abs(e) for e in ref))


def master_system_peak(psi, Q):
    """``master_system(psi, Q)`` and the tracemalloc peak of the call, bytes."""
    tracemalloc.start()
    try:
        ms = master_system(psi, Q)
        return ms, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def entry_inputs():
    from ddcident.scenarios import build_entry_model
    model = build_entry_model().model
    return solve_bellman(model).psi, model.Q


def seeded_three_action_inputs():
    m = random_model(np.random.default_rng(15), K=3, J=6)
    return solve_bellman(m).psi, m.Q


def banded_inputs(J=72):
    return np.random.default_rng(J).normal(size=(2, J)), banded_transitions(J, 0)


def game_source_inputs():
    from ddcident.games import expected_objects, solve_mpe
    from ddcident.scenarios import build_entry_game
    model = build_entry_game().model
    mpe = solve_mpe(model)
    pi_star, Q_star, _ = expected_objects(model, mpe.P, 1)
    psi = mpe.psi[1].copy()
    psi[-1] += pi_star[-1]
    return psi, Q_star


class TestStreamedAdjugate:
    @pytest.mark.parametrize("inputs, blocked, bound", [
        (entry_inputs, False, 1e-14),        # J = 18: 1.6e-16
        (game_source_inputs, False, 1e-14),  # J = 24: 2.6e-16
        (entry_inputs, True, 3e-16),         # 1.6e-16
        (game_source_inputs, True, 3e-16),   # 6.2e-17
    ])
    def test_det_coeffs_match_mpmath_faddeev(self, inputs, blocked, bound, monkeypatch):
        if blocked:  # the baby-step/giant-step path from the first state on
            monkeypatch.setattr(betapoly, "_BLOCKED_FROM", 1)
        Q_last = inputs()[1][-1]
        assert mp_faddeev_error(det_coeffs(Q_last), Q_last) <= bound

    def test_det_coeffs_at_72_states_as_accurate_as_the_recursion(self):
        # 1.3e-16 here and with the J-product recursion; Newton's identities
        # on float64 power traces give 1.5e-15 on this matrix
        Q_last = banded_transitions(72, 2)[-1]
        assert mp_faddeev_error(det_coeffs(Q_last), Q_last) <= 3e-16

    # mp_rows_error at beta = 0.3 and 0.6.  Each bound is, rounded down, the
    # figure of rows built in float64 throughout (the J-product recursion,
    # the adjugate's terms times psi_last, a float64 assembly); the figure of
    # master_system's double-double rows is in the comment.
    @pytest.mark.parametrize("inputs, bounds", [
        (entry_inputs, (1.67e-16, 9.95e-16)),                # 1.41e-16, 7.47e-16
        (seeded_three_action_inputs, (1.15e-16, 3.75e-16)),  # 3.50e-17, 1.10e-16
        (banded_inputs, (1.07e-14, 7.50e-12)),               # 7.88e-15, 5.79e-12
        (game_source_inputs, (6.96e-16, 9.36e-15)),          # 2.73e-16, 2.73e-15
    ])
    def test_rows_match_mpmath_det_times_payoffs(self, inputs, bounds):
        psi, Q = inputs()
        ms = master_system(psi, Q)
        for beta, bound in zip((0.3, 0.6), bounds):
            assert mp_rows_error(ms, psi, Q, beta) <= bound

    def test_zero_states_named(self):
        with pytest.raises(ValueError, match="need at least two actions and one state"):
            master_system(np.zeros((2, 0)), np.zeros((2, 0, 0)))
        with pytest.raises(ValueError, match="need at least two actions and one state"):
            master_system(np.zeros((1, 3)), np.full((1, 3, 3), 1 / 3))

    def test_memory_is_below_the_stack_and_the_adjugate_lazy(self):
        J = 144
        psi, Q = banded_inputs(J)
        ms, peak = master_system_peak(psi, Q)
        assert peak < 4e6  # 3.0 MB; the J x J x J adjugate alone is 23.9 MB
        assert "m" not in vars(ms)  # not formed until read
        adj = ms.m
        assert np.array_equal(adj.coeff_mats, faddeev_adj_det(Q[-1])[0].coeff_mats)
        assert ms.m is adj
        q_last = Q[-1].copy()
        Q[-1] = 0.0  # the system keeps its own copy of Q_last
        assert np.array_equal(ms.q_last, q_last)

    def test_banded_288_memory_and_det(self):
        J = 288
        psi, Q = banded_inputs(J)
        ms, peak = master_system_peak(psi, Q)
        assert peak < 16e6  # 13.9 MB, 8.0 MB of it the 12 baby steps; the J x J x J adjugate is 191 MB
        sign, logdet = np.linalg.slogdet(np.eye(J) - 0.3 * Q[-1])
        assert sign == 1.0
        # relative error 3.8e-10 here, 3.9e-9 with the J-product recursion
        assert npoly.polyval(0.3, ms.det) == pytest.approx(np.exp(logdet), rel=1e-8)

    def test_game_firm_keeps_its_source_q_last(self):
        from ddcident.games import build_system, expected_objects, solve_mpe
        from ddcident.scenarios import build_entry_game
        model = build_entry_game().model
        mpe = solve_mpe(model)
        Q_last = expected_objects(model, mpe.P, 1)[1][-1]
        system = build_system(model, mpe, 1)
        assert np.array_equal(system.q_last, Q_last)
        assert np.array_equal(system.m.coeff_mats, faddeev_adj_det(Q_last)[0].coeff_mats)

    def test_non_stochastic_last_action_named(self):
        psi, Q = banded_inputs(18)
        Q[-1, 3, 3] += 0.1
        with pytest.raises(ValueError, match=r"transition row \(action 1, state 3\) sums to 1.1"):
            master_system(psi, Q)


PSI = np.arange(8.0).reshape(2, 4) / 10  # two actions, four states
STRING_Q = np.full((2, 4, 4), "0.25")


class TestModelInputReaders:
    """The (psi, Q) pair, the discount factor and every number each have one reader."""

    def test_bool_payoffs_named(self):
        # once stored as 0/1 payoffs
        with pytest.raises(ValueError, match=r"u\[0, 0\] = True is not a number"):
            SingleAgentModel(u=np.array([[True, False], [False, False]]), Q=np.full((2, 2, 2), 0.5), beta=0.5)

    @pytest.mark.parametrize("beta,message", [
        (1.5, r"beta must lie in \[0, 1\)"),           # once returned choice probabilities
        ("0.5", r"beta = '0.5' is not a number"),      # once a numpy UFuncTypeError
        (True, r"beta = True is not a number"),
    ])
    def test_solve_logit_beta_read(self, beta, message):
        with pytest.raises(ValueError, match=message):
            solve_logit(np.zeros((2, 2)), np.full((2, 2, 2), 0.5), beta)

    def test_string_ccps_named(self):
        # once read as numbers
        with pytest.raises(ValueError, match=r"p\[0, 0\] = '0.5' is not a number"):
            psi_from_ccps([["0.5", "0.5"], ["0.5", "0.5"]])

    def test_string_restriction_rows_named(self):
        # once read as numbers
        ms = master_system(PSI, np.full((2, 4, 4), 0.25))
        with pytest.raises(ValueError, match=r"R\[0, 0\] = '1' is not a number"):
            ms.payoff_polys([["1", "0", "0", "0"]])

    @pytest.mark.parametrize("build", [
        lambda Q: master_system(PSI, Q),
        lambda Q: recover_payoffs(PSI, Q, 0.9),
        lambda Q: det_coeffs(Q[1]),
    ], ids=["master_system", "recover_payoffs", "det_coeffs"])
    def test_string_transitions_named(self, build):
        # each once read the strings as numbers
        with pytest.raises(ValueError, match=r"transition row\[0, 0(, 0)?\] = '0.25' is not a number"):
            build(STRING_Q)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (2, 3, 3)], ids=["actions", "states"])
    def test_recover_payoffs_mismatched_q_named(self, shape):
        # three actions once normalized Q[1]; three states were a bare broadcast error
        Q = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ValueError, match=r"Q must have shape \(2, 4, 4\) to match psi, got " + re.escape(str(shape))):
            recover_payoffs(PSI, Q, 0.9)


class TestEntryModelCrossChecks:
    def test_entry_ccps_match_brute_force_oracle(self):
        from ddcident.scenarios import build_entry_model
        bundle = build_entry_model()
        sol = solve_bellman(bundle.model)
        oracle = bellman_oracle(bundle.model, tol=1e-13)
        assert np.max(np.abs(sol.p - oracle)) <= 1e-10

    def test_entry_master_residual_at_true_beta(self):
        from ddcident.scenarios import build_entry_model
        bundle = build_entry_model()
        sol = solve_bellman(bundle.model)
        ms = master_system(sol.psi, bundle.model.Q)
        scale = max(1.0, np.max(np.abs(ms.g)))
        res = master_residual(ms, bundle.model.u[:-1].ravel(), 0.95)
        assert np.max(np.abs(res)) <= 1e-8 * scale
