import itertools
import time
from dataclasses import replace

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ddcident import ddc, games
from ddcident.ddc import EULER_GAMMA, SingleAgentModel, master_system, solve_bellman, solve_logit
from ddcident.errors import ConvergenceError, RankDeficiencyError
from ddcident.games import (
    GameModel,
    MpeSolution,
    build_system,
    expected_objects,
    identified_set_game,
    inequality_region_game,
    payoff_cells,
    r3_adjustment_cost,
    r3_exchangeability,
    r3_linear,
    r4_monotone_own_lag,
    r4_monotone_rivals,
    rival_probabilities,
    solve_mpe,
)
from ddcident.identify import combine, equality_identified_set, inequality_region
from ddcident.restrictions import RestrictionSet
from ddcident.scenarios import EntryGameConfig, build_entry_game


@pytest.fixture(scope="module")
def game():
    bundle = build_entry_game()
    # tighter than the 1e-10 contract so identities inherit little solver noise
    mpe = solve_mpe(bundle.model, tol=1e-12)
    return bundle, mpe


def small_game(rng, n_firms=2, betas=(0.6, 0.85), interaction=-0.4):
    """A small entry game with separable structure for planted-truth tests."""
    K = 2
    s_values = np.array([1.0, 3.0])
    T = np.array([[0.7, 0.3], [0.4, 0.6]])
    m_x = 2 * K ** n_firms
    n_o = K ** (n_firms - 1)
    payoffs = np.zeros((n_firms, K, n_o, m_x))
    for i in range(n_firms):
        for o in range(n_o):
            n_in = sum(1 for t in range(n_firms - 1) if (o // K ** t) % K == 0)
            for x in range(m_x):
                s_idx, lag = divmod(x, K ** n_firms)
                own_out = (lag // K ** i) % K
                payoffs[i, 0, o, x] = (0.8 * s_values[s_idx] + interaction * n_in
                                       - 0.5 - 0.7 * own_out)
    return GameModel(n_firms=n_firms, n_actions=K, s_values=s_values, s_transition=T,
                     payoffs=payoffs, betas=np.asarray(betas, dtype=float),
                     last_action_known=True)


def square_block(m, P, i):
    """Firm ``i``'s square block, built here: each expected-payoff row weighs
    its rival-profile cells by their probabilities, over the rows of rivals'
    lagged-action irrelevance."""
    return np.vstack([loop_pbar(m, rival_probabilities(m, P, i)), loop_r2(m, i)])


def play(P):
    """Choice probabilities ``P`` and their inversion as an ``MpeSolution``,
    for identification tests that need no equilibrium."""
    return MpeSolution(P=P, V=None, v=None, psi=EULER_GAMMA - np.log(P), residual=0.0, n_iter=0)


def padded_rhs(m, mpe, i):
    """Right-hand side ``[rhs; 0]`` of firm ``i``'s square block: the expected
    payoffs' coefficients over zeros for the rivals'-lag rows."""
    pi_star, Q_star, _ = expected_objects(m, mpe.P, i)
    psi = mpe.psi[i].copy()
    psi[-1] += pi_star[-1]
    ms = master_system(psi, Q_star)
    Y = np.zeros((m.m_pi, ms.det.size))
    Y[: ms.n_rows] = ms.g
    return Y


def recovered_payoffs(system, beta):
    """Stacked payoffs a system recovers at ``beta``, from its identifying
    polynomials of the unit rows."""
    rows = system.payoff_polys(np.eye(system.n_rows))
    return npoly.polyval(beta, rows.T) / npoly.polyval(beta, system.det)


class TestMpe:
    def test_single_firm_reduces_to_bellman(self):
        rng = np.random.default_rng(0)
        s_values = np.array([0.0, 1.0, 2.0])
        T = rng.random((3, 3)) + 0.2
        T /= T.sum(axis=1, keepdims=True)
        m_x = 3 * 2
        payoffs = np.zeros((1, 2, 1, m_x))
        payoffs[0, 0, 0] = rng.normal(size=m_x)
        gm = GameModel(n_firms=1, n_actions=2, s_values=s_values, s_transition=T,
                       payoffs=payoffs, betas=np.array([0.9]), last_action_known=True)
        mpe = solve_mpe(gm)
        # equivalent single-agent model on the same state space
        Q = np.zeros((2, m_x, m_x))
        for a in range(2):
            for x in range(m_x):
                s = x // 2
                Q[a, x, np.arange(3) * 2 + a] = T[s]
        sa = SingleAgentModel(u=np.stack([payoffs[0, 0, 0], np.zeros(m_x)]), Q=Q, beta=0.9)
        sol = solve_bellman(sa)
        assert mpe.P[0] == pytest.approx(sol.p, abs=1e-10)

    def test_symmetric_firms_choose_symmetrically(self):
        rng = np.random.default_rng(1)
        gm = small_game(rng, betas=(0.8, 0.8))
        mpe = solve_mpe(gm)
        # swap the two firms: firm 0 at state with lags (a,b) equals firm 1 at (b,a)
        for s in range(2):
            for la, lb in itertools.product(range(2), repeat=2):
                x = s * 4 + la + 2 * lb
                x_swap = s * 4 + lb + 2 * la
                assert mpe.P[0, 0, x] == pytest.approx(mpe.P[1, 0, x_swap], abs=1e-8)

    def test_reference_game_residual_and_determinism(self, game):
        bundle, mpe = game
        assert mpe.residual <= 1e-10
        again = solve_mpe(bundle.model, tol=1e-12)
        assert np.array_equal(again.P, mpe.P)

    def test_columns_sum_to_one_and_positive(self, game):
        _, mpe = game
        assert mpe.P.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
        assert np.all(mpe.P > 0.0)

    def test_logit_inversion_identity_at_equilibrium(self, game):
        _, mpe = game
        # inversion values equal value differences at every state and action
        assert mpe.psi == pytest.approx(mpe.V[:, None, :] - mpe.v, abs=1e-10)


def value_iteration_oracle(pi_star, Q_star, beta):
    """Successive approximation on the logit Bellman operator to rounding level."""
    V = np.zeros(pi_star.shape[1])
    for _ in range(100_000):
        v = pi_star + beta * np.einsum("kxy,y->kx", Q_star, V)
        m = v.max(axis=0)
        V_new = EULER_GAMMA + m + np.log(np.exp(v - m).sum(axis=0))
        done = np.max(np.abs(V_new - V)) <= 1e-15 * max(1.0, np.max(np.abs(V_new)))
        V = V_new
        if done:
            break
    v = pi_star + beta * np.einsum("kxy,y->kx", Q_star, V)
    P = np.exp(v - v.max(axis=0))
    return P / P.sum(axis=0), V, v


def random_firm_problem(rng):
    K = int(rng.integers(2, 4))
    m_x = int(rng.integers(4, 25))
    pi_star = rng.normal(scale=2.0, size=(K, m_x))
    Q_star = rng.random((K, m_x, m_x)) * (rng.random((K, m_x, m_x)) < 0.4)
    Q_star[:, :, 0] += 1e-3  # no empty rows
    Q_star /= Q_star.sum(axis=2, keepdims=True)
    return pi_star, Q_star, float(rng.uniform(0.5, 0.95))


class TestFirmDp:
    @pytest.mark.parametrize("seed", range(6))
    def test_newton_matches_value_iteration_cold_and_warm(self, seed):
        rng = np.random.default_rng(seed)
        pi_star, Q_star, beta = random_firm_problem(rng)
        P_ref, V_ref, v_ref = value_iteration_oracle(pi_star, Q_star, beta)
        starts = [None, V_ref + rng.normal(scale=0.5, size=V_ref.shape),
                  np.full_like(V_ref, 50.0)]
        for V0 in starts:
            kept = None if V0 is None else V0.copy()
            P, V, v = solve_logit(pi_star, Q_star, beta, V0=V0)
            assert np.max(np.abs(V - V_ref)) <= 1e-12
            assert np.max(np.abs(v - v_ref)) <= 1e-12
            assert np.max(np.abs(P - P_ref)) <= 1e-12
            if V0 is not None:
                assert np.array_equal(V0, kept)  # the warm start is not written to

    def test_stall_raises_convergence_error(self, monkeypatch):
        pi_star, Q_star, beta = random_firm_problem(np.random.default_rng(0))
        monkeypatch.setattr(ddc, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(ddc, "NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_logit(pi_star, Q_star, beta)
        assert err.value.residual > 0.0

    def test_reference_game_firm_does_not_spin(self, monkeypatch):
        # firm 2 (beta 0.95, |V| about 26) against uniform rivals from V0 = 0:
        # its steps level off near 1e-13, so an absolute stop at 1e-13 spun
        model = build_entry_game().model
        P = np.full((model.n_firms, model.n_actions, model.m_x), 1.0 / model.n_actions)
        pi_star, Q_star, _ = expected_objects(model, P, 2)
        beta = model.betas[2]
        P_ref, V_ref, v_ref = value_iteration_oracle(pi_star, Q_star, beta)
        for tol in (1e-12, 0.0):  # with tol = 0 only the noise rule can stop it
            monkeypatch.setattr(ddc, "NEWTON_TOL", tol)
            sol = solve_logit(pi_star, Q_star, beta, V0=np.zeros(model.m_x))
            assert len(sol.residual_path) <= 10
            assert np.max(np.abs(sol.V - V_ref)) <= 1e-12
            assert np.max(np.abs(sol.v - v_ref)) <= 1e-12
            assert np.max(np.abs(sol.p - P_ref)) <= 1e-12


class TestExpectedObjects:
    def test_uniform_rivals_make_uniform_profiles(self):
        rng = np.random.default_rng(2)
        gm = small_game(rng)
        P = np.full((2, 2, 8), 0.5)
        pm = rival_probabilities(gm, P, 0)
        assert pm == pytest.approx(0.5)

    def test_rows_sum_to_one(self, game):
        bundle, mpe = game
        for i in range(3):
            pi_star, Q_star, P_minus = expected_objects(bundle.model, mpe.P, i)
            assert Q_star.sum(axis=2) == pytest.approx(1.0, abs=1e-12)
            assert P_minus.sum(axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_expected_payoff_matches_brute_force(self, game):
        bundle, mpe = game
        m = bundle.model
        pi_star, _, _ = expected_objects(m, mpe.P, 1)
        rivals = (0, 2)
        for k in range(2):
            for x in range(m.m_x):
                total = 0.0
                for acts in itertools.product(range(2), repeat=2):
                    prob = np.prod([mpe.P[j, acts[t], x] for t, j in enumerate(rivals)])
                    o = sum(a * 2 ** t for t, a in enumerate(acts))  # lowest rival fastest
                    total += prob * m.payoffs[1, k, o, x]
                assert pi_star[k, x] == pytest.approx(total, abs=1e-12)

    def test_rival_profile_product_property(self, game):
        bundle, mpe = game
        m = bundle.model
        pm = rival_probabilities(m, mpe.P, 0)
        rivals = (1, 2)
        for o, acts in enumerate(itertools.product(range(2), repeat=2)):
            acts = acts[::-1]  # profile index o, lowest rival fastest
            expected = np.prod([mpe.P[j, acts[t], :] for t, j in enumerate(rivals)], axis=0)
            assert pm[:, o] == pytest.approx(expected, abs=1e-14)


class TestBuildSystem:
    def test_beta_zero_slice_is_static_inversion(self, game):
        bundle, mpe = game
        m = bundle.model
        sys0 = build_system(m, mpe, 0)
        pi_star, _, _ = expected_objects(m, mpe.P, 0)
        # at beta = 0 the equations reduce to Pbar pi = -psi_0 + psi_last + pi*_last
        X = square_block(m, mpe.P, 0)
        rhs = -mpe.psi[0, 0] + mpe.psi[0, 1] + pi_star[1]
        assert sys0.det[0] == 1.0
        assert X @ sys0.g[:, 0] == pytest.approx(np.r_[rhs, np.zeros(len(X) - len(rhs))], abs=1e-9)

    def test_residual_vanishes_at_true_beta_only(self, game):
        bundle, mpe = game
        m = bundle.model
        for i in range(3):
            sys_i = build_system(m, mpe, i)
            pi_true = m.pi_stack(i)
            X = square_block(m, mpe.P, i)
            scale = np.max(np.abs(X @ sys_i.g))  # the expected payoffs' coefficients
            # X (G(beta) - det(beta) pi) = [rhs(beta) - det(beta) Pbar pi; 0]
            rows = sys_i.payoff_polys(np.eye(m.m_pi), pi_true)
            good = np.max(np.abs(X @ npoly.polyval(m.betas[i], rows.T)))
            bad = np.max(np.abs(X @ npoly.polyval(0.5, rows.T)))
            assert good <= 1e-8 * scale
            assert bad > 1e-4 * scale

    def test_requires_known_last_action(self, game):
        bundle, mpe = game
        m = bundle.model
        undeclared = GameModel(n_firms=3, n_actions=2, s_values=m.s_values,
                               s_transition=m.s_transition, payoffs=m.payoffs,
                               betas=m.betas, last_action_known=False)
        with pytest.raises(ValueError, match="known"):
            build_system(undeclared, mpe, 0)

    def test_determinant_positive_on_unit_interval(self, game):
        bundle, mpe = game
        grid = np.linspace(0.0, 1.0, 1001, endpoint=False)
        for i in range(3):
            sys_i = build_system(bundle.model, mpe, i)
            assert np.all(npoly.polyval(grid, sys_i.det) > 0.0)


def repeat_group(m, P, s, own, delta):
    """Choice probabilities with every firm's play at the second rivals'-lag
    state of firm 0's group (``s``, ``own``) copied from the first, moved by
    ``delta``; two-action games."""
    xs = [_loop_x(m, 0, s, own, lags) for _, lags in _loop_profiles(m)]
    P = np.array(P)
    P[:, :, xs[1]] = P[:, :, xs[0]]
    P[:, 0, xs[1]] += delta
    P[:, 1, xs[1]] -= delta
    return play(P), xs


class TestSquareBlocks:
    def test_near_singular_block_is_named(self, game):
        bundle, mpe = game
        m = bundle.model
        assert build_system(m, mpe, 0).info["condition_block"] != [1, 0]
        near, xs = repeat_group(m, mpe.P, 1, 0, 1e-6)
        info = build_system(m, near, 0).info
        assert info["condition_block"] == [1, 0]
        block = rival_probabilities(m, near.P, 0)[xs]
        assert info["condition_estimate"] == pytest.approx(np.linalg.cond(block), rel=1e-8)
        assert info["condition_estimate"] > 1e5

    def test_singular_block_raises_naming_it(self, game):
        bundle, mpe = game
        m = bundle.model
        exact, _ = repeat_group(m, mpe.P, 1, 0, 0.0)
        with pytest.raises(RankDeficiencyError, match="exogenous state 1, own lag 0") as err:
            build_system(m, exact, 0)
        # one of the group's 4 rivals'-lag rows repeats another: rank 96 - 1
        assert err.value.rank == np.linalg.matrix_rank(square_block(m, exact.P, 0)) == 95
        assert err.value.required == m.m_pi


class TestRestrictionRows:
    def test_row_counts(self, game):
        bundle, _ = game
        m = bundle.model
        assert r3_exchangeability(m, 0).shape[0] == 6
        assert r3_adjustment_cost(m, 0).shape[0] == 9
        assert r3_linear(m, 0, bundle.designs[0]).shape[0] == 20

    def test_rows_annihilate_true_payoffs(self, game):
        bundle, _ = game
        m = bundle.model
        for i in range(3):
            pi = m.pi_stack(i)
            for rows in (r3_exchangeability(m, i), r3_adjustment_cost(m, i),
                         r3_linear(m, i, bundle.designs[i])):
                assert np.max(np.abs(rows @ pi)) < 1e-10

    def test_recovered_payoffs_ignore_rivals_lags(self, game):
        # rivals' lagged actions are irrelevant by construction: the g rows
        # of each (action, profile, state, own lag) repeat over the rivals' lags
        bundle, mpe = game
        m = bundle.model
        for i in range(3):
            rows = build_system(m, mpe, i).g[payoff_cells(m, i)]
            assert np.array_equal(rows, np.broadcast_to(rows[..., :1, :], rows.shape))

    def test_adjustment_cost_detects_interaction(self):
        # an entry cost that scales with rival entrants violates the restriction
        rng = np.random.default_rng(3)
        gm = small_game(rng)
        payoffs = gm.payoffs.copy()
        for o in range(2):
            n_in = 1 - o  # one rival: profile 0 means the rival operates
            for x in range(8):
                lag = x % 4
                own_out = lag % 2
                payoffs[0, 0, o, x] += 0.3 * n_in * own_out
        bent = GameModel(n_firms=2, n_actions=2, s_values=gm.s_values,
                         s_transition=gm.s_transition, payoffs=payoffs,
                         betas=gm.betas, last_action_known=True)
        rows = r3_adjustment_cost(bent, 0)
        assert np.max(np.abs(rows @ bent.pi_stack(0))) > 0.1

    def test_exchangeability_needs_three_firms(self):
        rng = np.random.default_rng(4)
        gm = small_game(rng)
        assert r3_exchangeability(gm, 0).shape == (0, gm.m_pi)

    def test_one_firm_game_identifies(self):
        # one firm: no rival lags and no rival profiles to permute, so the
        # exchangeability rows are empty but keep their (0, m_pi) shape
        bundle = build_entry_game(EntryGameConfig(n_firms=1, theta_fc=(1.0,), betas=(0.9,)))
        gm = bundle.model
        system = build_system(gm, solve_mpe(gm), 0)
        assert np.max(np.abs(recovered_payoffs(system, 0.9) - gm.pi_stack(0))) <= 1e-8
        ex = identified_set_game(system, r3_exchangeability(gm, 0))
        assert ex.diagnostics["no_identifying_content"] and ex.equality_roots == []
        region = inequality_region_game(system, *r4_monotone_own_lag(gm, 0))
        assert any(lo <= 0.9 <= hi for lo, hi in region.inequality_intervals)
        # with no rivals the design leaves out the rival-count column
        assert bundle.designs[0].shape[1] == 3
        R = r3_linear(gm, 0, bundle.designs[0])
        lin = identified_set_game(system, R)
        assert len(lin.equality_roots) == 1
        assert abs(lin.equality_roots[0] - 0.9) <= 1e-6
        assert np.max(np.abs(R @ recovered_payoffs(system, 0.9))) <= 1e-8

    def test_out_of_range_action_or_lag_raises(self, game):
        # own lag 2 of a two-action game used to wrap into firm 1's lag digit,
        # and lag -1 or action -1 into the last cell, giving rows on wrong
        # cells; a fraction is not truncated to a cell
        m = game[0].model
        for lag_pair in ((1,), (-1,), (0, 1), (0.5,)):
            with pytest.raises(IndexError, match="own lag"):
                r3_adjustment_cost(m, 0, lag_pair=lag_pair)
        for actions in ((1,), (-1,), (0, 5), (0.5,)):
            for build in (r3_exchangeability, r3_adjustment_cost, r4_monotone_own_lag,
                          r4_monotone_rivals):
                with pytest.raises(IndexError, match="action"):
                    build(m, 0, actions=actions)
        for i in (-1, 3):
            with pytest.raises(IndexError, match="firm"):
                payoff_cells(m, i)

    def test_single_index_reads_as_one_element_list(self, game):
        # the command line gives a single index as a scalar
        m = game[0].model
        assert np.array_equal(r3_exchangeability(m, 0, actions=0), r3_exchangeability(m, 0))
        for build in (r4_monotone_own_lag, r4_monotone_rivals):
            assert np.array_equal(build(m, 0, actions=0)[0], build(m, 0)[0])
        assert np.array_equal(r3_adjustment_cost(m, 0, actions=0, lag_pair=0),
                              r3_adjustment_cost(m, 0))
        for bad in (1, 0.5):
            with pytest.raises(IndexError):
                r3_exchangeability(m, 0, actions=bad)
        # with three actions, 1 is a valid action but a flag is not an index
        m3 = random_game(2, 3, 1)
        assert np.array_equal(r3_adjustment_cost(m3, 0, actions=1, lag_pair=1),
                              r3_adjustment_cost(m3, 0, actions=(1,), lag_pair=(1,)))
        for flag in (True, [1, True]):  # numpy reads [1, True] as ints
            with pytest.raises(IndexError, match="not an integer"):
                r3_exchangeability(m3, 0, actions=flag)

    def test_one_firm_lag_pair_checked(self):
        # one firm has no rival profiles, so there are no rows, but the lag is still checked
        gm = build_entry_game(EntryGameConfig(n_firms=1, theta_fc=(1.0,), betas=(0.9,))).model
        assert r3_adjustment_cost(gm, 0).shape == (0, gm.m_pi)
        with pytest.raises(IndexError):
            r3_adjustment_cost(gm, 0, lag_pair=(1,))

    def test_linear_design_rank_guard(self, game):
        # a design column that is zero in every cell cannot be identified
        bundle, _ = game
        design = bundle.designs[0].copy()
        design[:, 1] = 0.0
        with pytest.raises(RankDeficiencyError):
            r3_linear(bundle.model, 0, design)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_linear_design_non_finite_named(self, game, bad):
        # a NaN once gave "SVD did not converge", an inf "numeric rank is 0"
        bundle, _ = game
        design = np.array(bundle.designs[0], dtype=float)
        design[0, 1] = bad
        with pytest.raises(ValueError, match=rf"design\[0, 1\] = {bad} is not finite"):
            r3_linear(bundle.model, 0, design)

    def test_linear_design_shape_guard(self, game):
        bundle, _ = game
        with pytest.raises(ValueError):
            r3_linear(bundle.model, 0, bundle.designs[0][:-1])


class TestIdentifiedSets:
    def test_reference_game_roots(self, game):
        bundle, mpe = game
        m = bundle.model
        expected = {0: 0.8, 1: 0.9, 2: 0.95}
        for i in range(3):
            sys_i = build_system(m, mpe, i)
            for rows in (r3_exchangeability(m, i), r3_linear(m, i, bundle.designs[i])):
                s = identified_set_game(sys_i, rows)
                assert len(s.equality_roots) == 1
                assert s.equality_roots[0] == pytest.approx(expected[i], abs=1e-3)

    def test_polynomials_vanish_at_one(self, game):
        bundle, mpe = game
        sys0 = build_system(bundle.model, mpe, 0)
        polys = sys0.payoff_polys(r3_exchangeability(bundle.model, 0))
        for p in polys:
            if p.any():
                assert abs(npoly.polyval(1.0, p)) <= 1e-8 * np.max(np.abs(p))

    def test_planted_two_firm_game(self):
        rng = np.random.default_rng(5)
        gm = small_game(rng, betas=(0.55, 0.75))
        mpe = solve_mpe(gm)
        assert mpe.residual <= 1e-10
        for i in range(2):
            sys_i = build_system(gm, mpe, i)
            rows = r3_adjustment_cost(gm, i)
            s = identified_set_game(sys_i, rows)
            if s.equality_roots:
                # the true value is always recovered when content exists
                assert any(abs(r - gm.betas[i]) < 1e-6 for r in s.equality_roots)
            # linear-in-parameters content pins the truth for this game
            cells = 2 * 2 * 2  # o, s, own
            design = []
            cells = payoff_cells(gm, i)[..., 0]
            for _k, o, s_idx, own in zip(*(a.ravel() for a in np.indices(cells.shape))):
                n_in = 1 - o
                design.append([gm.s_values[s_idx], n_in, 1.0, float(own)])
            s2 = identified_set_game(sys_i, r3_linear(gm, i, np.asarray(design)))
            assert any(abs(r - gm.betas[i]) < 1e-6 for r in s2.equality_roots)

    def test_loose_equilibrium_flags_adjustment_cost(self):
        # beta-free adjustment-cost polynomials scale with the equilibrium
        # residual, so a loose solve must still flag them rather than report
        # informative rows without roots
        bundle = build_entry_game()
        m = bundle.model
        mpe = solve_mpe(m, tol=1e-7)
        assert mpe.residual > 1e-9
        for i, truth in enumerate((0.8, 0.9, 0.95)):
            sys_i = build_system(m, mpe, i)
            adj = r3_adjustment_cost(m, i)
            alone = identified_set_game(sys_i, adj)
            assert alone.equality_roots == []
            assert alone.diagnostics.get("no_identifying_content")
            both = identified_set_game(sys_i, np.vstack([adj, r3_exchangeability(m, i)]))
            assert both.equality_roots == pytest.approx([truth], abs=1e-3)

    def test_loose_equilibrium_is_flagged(self, game):
        # at tol 1e-6 exchangeability had emptied firms 0 and 1's sets with no flag
        bundle, tight = game
        m = bundle.model
        mpe = solve_mpe(m, tol=1e-6)
        assert mpe.residual > games.MPE_TOL
        for i in range(m.n_firms):
            s = identified_set_game(build_system(m, mpe, i), r3_exchangeability(m, i))
            assert s.diagnostics["loose_equilibrium"] == mpe.residual
            assert "loose_equilibrium" not in build_system(m, tight, i).info

    @pytest.mark.parametrize("k", [1.0, 10.0, 1e3])
    def test_scaled_adjustment_cost_stays_flagged(self, k):
        # the noise floor scales with the rows: scaled beta-free rows are
        # still noise, so they must not empty the set combined with
        # exchangeability
        m = build_entry_game().model
        mpe = solve_mpe(m)
        for i, truth in enumerate((0.8, 0.9, 0.95)):
            system = build_system(m, mpe, i)
            adj = identified_set_game(system, k * r3_adjustment_cost(m, i))
            assert adj.diagnostics.get("no_identifying_content") and adj.equality_roots == []
            both = combine(adj, identified_set_game(system, r3_exchangeability(m, i)))
            assert both.combined == pytest.approx([truth], abs=1e-3)

    def test_every_set_carries_the_system_diagnostics(self, game):
        bundle, mpe = game
        m = bundle.model
        for i in range(3):
            system = build_system(m, mpe, i)
            eq = RestrictionSet(r3_exchangeability(m, i), 0.0, "eq", "exchangeability")
            ge = RestrictionSet(*r4_monotone_rivals(m, i), "ge", "mono_rivals")
            sets = (identified_set_game(system, eq.R), inequality_region_game(system, ge.R, ge.c),
                    equality_identified_set(system, eq), inequality_region(system, ge))
            info = [{k: s.diagnostics.get(k) for k in ("firm", "condition_estimate")} for s in sets]
            assert info[0]["firm"] == i and info[0]["condition_estimate"] > 1.0
            assert all(d == info[0] for d in info)

    def test_pooled_mode_intersects(self, game):
        bundle, mpe = game
        m = bundle.model
        sets = []
        for i in range(2):
            sys_i = build_system(m, mpe, i)
            sets.append(identified_set_game(sys_i, r3_exchangeability(m, i)))
        pooled = combine(*sets)
        assert pooled.equality_roots == []  # betas differ across firms
        assert combine(sets[0], sets[0]).equality_roots == pytest.approx([0.8], abs=1e-3)

    def test_rank_deficiency_detected(self):
        # without an entry cost no payoff, and so no firm's play, depends on
        # lags: the rivals'-lag variants of a state repeat one equation, and
        # each of the 6 (state, own lag) groups loses 3 of its 4 (rank 78 of 96)
        m = build_entry_game(EntryGameConfig(theta_ec=0.0)).model
        mpe = solve_mpe(m)
        with pytest.raises(RankDeficiencyError) as err:
            build_system(m, mpe, 0)
        # the reported rank is numpy's at its default tolerance
        assert err.value.rank == np.linalg.matrix_rank(square_block(m, mpe.P, 0)) == 78
        assert err.value.required == m.m_pi == 96


class TestRecoveryAndInequalities:
    def test_recovery_at_true_beta(self, game):
        bundle, mpe = game
        m = bundle.model
        for i in range(3):
            sys_i = build_system(m, mpe, i)
            rec = recovered_payoffs(sys_i, m.betas[i])
            assert np.max(np.abs(rec - m.pi_stack(i))) <= 1e-7

    def test_recovery_at_zero_matches_static_slice(self, game):
        bundle, mpe = game
        m = bundle.model
        sys0 = build_system(m, mpe, 0)
        pi_star, _, _ = expected_objects(m, mpe.P, 0)
        X = square_block(m, mpe.P, 0)
        static = np.r_[-mpe.psi[0, 0] + mpe.psi[0, 1] + pi_star[1], np.zeros(len(X) - m.m_x)]
        assert X @ recovered_payoffs(sys0, 0.0) == pytest.approx(static, abs=1e-8)

    def test_wrong_beta_violates_held_out_row(self, game):
        bundle, mpe = game
        m = bundle.model
        sys0 = build_system(m, mpe, 0)
        rows = r3_exchangeability(m, 0)
        good = np.max(np.abs(rows @ recovered_payoffs(sys0, m.betas[0])))
        bad = np.max(np.abs(rows @ recovered_payoffs(sys0, 0.4)))
        assert good < 1e-6
        assert bad > 100.0 * good and bad > 1e-4

    def test_inequality_regions_cover_unit_interval(self, game):
        bundle, mpe = game
        m = bundle.model
        for i in range(3):
            sys_i = build_system(m, mpe, i)
            for rows, c in (r4_monotone_own_lag(m, i), r4_monotone_rivals(m, i)):
                region = inequality_region_game(sys_i, rows, c)
                (lo, hi), = region.inequality_intervals
                assert lo == 0.0
                assert hi >= 0.99

    def test_true_payoffs_satisfy_inequality_rows(self, game):
        bundle, _ = game
        m = bundle.model
        for i in range(3):
            pi = m.pi_stack(i)
            for rows, c in (r4_monotone_own_lag(m, i), r4_monotone_rivals(m, i)):
                assert np.min(rows @ pi - c) >= -1e-12

    def test_vacuous_inequality(self, game):
        bundle, mpe = game
        sys0 = build_system(bundle.model, mpe, 0)
        region = inequality_region_game(sys0, np.zeros((1, sys0.n_rows)))
        assert region.inequality_intervals == [(0.0, 1.0)]

    def test_no_recovery_at_one(self, game):
        # det(I - Q_last) = 0: no payoff is recovered at beta = 1
        bundle, mpe = game
        sys0 = build_system(bundle.model, mpe, 0)
        assert abs(npoly.polyval(1.0, sys0.det)) <= 1e-12 * np.max(np.abs(sys0.det))


class TestMpeSolution:
    def test_mpe_solution_residual_and_shape(self, game):
        _, mpe = game
        assert mpe.residual <= 1e-10
        assert mpe.P.shape == (3, 2, 24)


class TestGameModelInputs:
    def test_non_finite_beta_named(self):
        # NaN fails both range comparisons, so it was once accepted
        with pytest.raises(ValueError, match=r"betas\[1\] = nan is not finite"):
            small_game(np.random.default_rng(0), betas=(0.6, np.nan))

    def test_callers_payoffs_stay_writable(self):
        # the model once made the caller's own arrays read-only
        m = small_game(np.random.default_rng(0))
        payoffs = np.array(m.payoffs)
        kept = replace(m, payoffs=payoffs)
        assert payoffs.flags.writeable and not kept.payoffs.flags.writeable
        payoffs[0, 0, 0, 0] += 1.0
        assert kept.payoffs[0, 0, 0, 0] == m.payoffs[0, 0, 0, 0]


class TestGameModelSizes:
    @pytest.mark.parametrize("n_firms,n_actions", [(0, 2), (1, 1), (1, 0), (2, 1), (-1, 2)])
    def test_too_few_firms_or_actions(self, n_firms, n_actions):
        # one action used to give m_pi = 0; none a ZeroDivisionError in solve_mpe
        with pytest.raises(ValueError, match="at least one firm and two actions"):
            GameModel(n_firms=n_firms, n_actions=n_actions, s_values=[1.0], s_transition=[[1.0]],
                      payoffs=np.zeros((1, 1, 1, 1)), betas=[0.5])


class TestSolverEdges:
    def test_nonconvergence_carries_history(self, game, monkeypatch):
        bundle, _ = game
        monkeypatch.setattr(games, "MAX_SWEEPS", 2)
        with pytest.raises(ConvergenceError, match="did not reach 1e-14 in 2 sweeps") as err:
            solve_mpe(bundle.model, tol=1e-14)
        assert err.value.residual is not None
        assert len(err.value.history) == 2

    def test_custom_start_converges_to_same_equilibrium(self, game):
        bundle, mpe = game
        rng = np.random.default_rng(8)
        start = rng.uniform(0.3, 0.7, size=mpe.P.shape)
        start[:, 1, :] = 1.0 - start[:, 0, :]
        again = solve_mpe(bundle.model, start=start, tol=1e-12)
        assert np.max(np.abs(again.P - mpe.P)) < 1e-9

    def test_bad_start_rejected(self, game):
        bundle, mpe = game
        with pytest.raises(ValueError):
            solve_mpe(bundle.model, start=np.full_like(mpe.P, 0.4))

    def test_string_start_named(self, game):
        # once run for 16 sweeps
        bundle, mpe = game
        with pytest.raises(ValueError, match=r"start\[0, 0, 0\] = '0.5' is not a number"):
            solve_mpe(bundle.model, start=np.full(mpe.P.shape, "0.5"))

    def test_negative_start_rejected(self, game):
        bundle, mpe = game
        start = np.full_like(mpe.P, 0.5)
        start[0, 0, 0], start[0, 1, 0] = -0.5, 1.5
        with pytest.raises(ValueError, match="firm 0, state 0"):
            solve_mpe(bundle.model, start=start)

    def test_inequality_region_with_extra_equality_rows(self, game):
        # extra equality rows restrict a region by combining their root set with it
        bundle, mpe = game
        m = bundle.model
        sys0 = build_system(m, mpe, 0)
        region = inequality_region_game(sys0, *r4_monotone_rivals(m, 0))
        both = combine(identified_set_game(sys0, r3_exchangeability(m, 0)), region)
        (lo, hi), = both.inequality_intervals
        assert lo <= 1e-9 and hi >= 0.99
        assert both.combined == pytest.approx([0.8], abs=1e-3)


# ---- loop reference ---------------------------------------------------------
# The per-term loops the index-array builders replaced, kept as an oracle: one
# (position, weight) list per row, positions from the mixed-radix formulas.


def _loop_profiles(m):
    K = m.n_actions
    return [(o, tuple((o // K ** t) % K for t in range(m.n_firms - 1)))
            for o in range(m.n_rival_profiles)]


def _loop_x(m, i, s, own, rival_lags):
    prof = [0] * m.n_firms
    prof[i] = own
    for t, j in enumerate(j for j in range(m.n_firms) if j != i):
        prof[j] = rival_lags[t]
    return s * m.n_actions ** m.n_firms + sum(a * m.n_actions ** j for j, a in enumerate(prof))


def _loop_pos(m, k, x, o):
    return (k * m.m_x + x) * m.n_rival_profiles + o


def _loop_base(m, i, s, own):
    return _loop_x(m, i, s, own, (0,) * (m.n_firms - 1))


def _loop_rows(m, terms):
    terms = list(terms)
    R = np.zeros((len(terms), m.m_pi))
    for row, row_terms in zip(R, terms):
        for pos, w in row_terms:
            row[pos] += w
    return R


def loop_cells(m, i):
    return [[[[[_loop_pos(m, k, _loop_x(m, i, s, own, lags), o) for _, lags in _loop_profiles(m)]
               for own in range(m.n_actions)] for s in range(m.m_s)]
             for o in range(m.n_rival_profiles)] for k in range(m.n_actions - 1)]


def loop_pi_stack(m, i):
    out = np.empty(m.m_pi)
    for k in range(m.n_actions - 1):
        for x in range(m.m_x):
            for o in range(m.n_rival_profiles):
                out[_loop_pos(m, k, x, o)] = m.payoffs[i, k, o, x]
    return out


def loop_r2(m, i):
    K = m.n_actions
    return _loop_rows(m, (
        ((_loop_pos(m, k, _loop_x(m, i, s, own, lags), o), 1.0),
         (_loop_pos(m, k, _loop_base(m, i, s, own), o), -1.0))
        for k in range(K - 1) for o in range(m.n_rival_profiles)
        for s in range(m.m_s) for own in range(K)
        for _, lags in _loop_profiles(m) if any(lags)))


def loop_exchangeability(m, i, actions):
    classes = {}
    for o, acts in _loop_profiles(m):
        classes.setdefault(tuple(sorted(acts)), []).append(o)
    return _loop_rows(m, (
        ((_loop_pos(m, k, _loop_base(m, i, s, own), members[0]), 1.0),
         (_loop_pos(m, k, _loop_base(m, i, s, own), o), -1.0))
        for k in actions for s in range(m.m_s) for own in range(m.n_actions)
        for members in classes.values() for o in members[1:]))


def loop_adjustment_cost(m, i, actions, lag_pair):
    def terms():
        for k in actions:
            for s in range(m.m_s):
                for lag in lag_pair:
                    x_hi, x_lo = _loop_base(m, i, s, lag), _loop_base(m, i, s, lag + 1)
                    for o in range(1, m.n_rival_profiles):
                        yield ((_loop_pos(m, k, x_hi, o), 1.0), (_loop_pos(m, k, x_lo, o), -1.0),
                               (_loop_pos(m, k, x_hi, 0), -1.0), (_loop_pos(m, k, x_lo, 0), 1.0))
    return _loop_rows(m, terms())


def loop_monotone_own_lag(m, i, actions):
    return _loop_rows(m, (
        ((_loop_pos(m, k, _loop_base(m, i, s, lag), o), 1.0),
         (_loop_pos(m, k, _loop_base(m, i, s, lag + 1), o), -1.0))
        for k in actions for o in range(m.n_rival_profiles)
        for s in range(m.m_s) for lag in range(m.n_actions - 1)))


def loop_monotone_rivals(m, i, actions):
    ordered = []
    for (oa, aa), (ob, ab) in itertools.combinations(_loop_profiles(m), 2):
        if aa != ab and all(p >= q for p, q in zip(aa, ab)):
            ordered.append((oa, ob))
        elif aa != ab and all(q >= p for p, q in zip(aa, ab)):
            ordered.append((ob, oa))
    return _loop_rows(m, (
        ((_loop_pos(m, k, _loop_base(m, i, s, own), hi), 1.0),
         (_loop_pos(m, k, _loop_base(m, i, s, own), lo), -1.0))
        for k in actions for s in range(m.m_s) for own in range(m.n_actions)
        for hi, lo in ordered))


def loop_expected_objects(m, P, i):
    rivals = [j for j in range(m.n_firms) if j != i]
    P_minus = np.ones((m.m_x, m.n_rival_profiles))
    for o, acts in _loop_profiles(m):
        for t, j in enumerate(rivals):
            P_minus[:, o] *= P[j, acts[t], :]
    pi_star = np.einsum("xo,kox->kx", P_minus, m.payoffs[i])
    K, base = m.n_actions, m.n_actions ** m.n_firms
    Q_star = np.zeros((K, m.m_x, m.m_x))
    s_of_x = np.arange(m.m_x) // base
    for k in range(K):
        for o, acts in _loop_profiles(m):
            lag = _loop_x(m, i, 0, k, acts)
            cols = np.arange(m.m_s) * base + lag
            Q_star[k][:, cols] += P_minus[:, o, None] * m.s_transition[s_of_x, :]
    return pi_star, Q_star, P_minus


def loop_pbar(m, P_minus):
    Pbar = np.zeros(((m.n_actions - 1) * m.m_x, m.m_pi))
    for k in range(m.n_actions - 1):
        for x in range(m.m_x):
            Pbar[k * m.m_x + x, _loop_pos(m, k, x, np.arange(m.n_rival_profiles))] = P_minus[x]
    return Pbar


def random_game(n_firms, n_actions, m_s):
    rng = np.random.default_rng([n_firms, n_actions, m_s])
    T = rng.random((m_s, m_s)) + 0.1
    T /= T.sum(axis=1, keepdims=True)
    m_x = m_s * n_actions ** n_firms
    payoffs = rng.normal(size=(n_firms, n_actions, n_actions ** (n_firms - 1), m_x))
    payoffs[:, -1] = 0.0
    return GameModel(n_firms=n_firms, n_actions=n_actions, s_values=np.arange(1.0, m_s + 1.0),
                     s_transition=T, payoffs=payoffs, betas=rng.uniform(0.5, 0.9, n_firms),
                     last_action_known=True)


def random_play(m):
    rng = np.random.default_rng(0)
    P = rng.random((m.n_firms, m.n_actions, m.m_x)) + 0.05
    return P / P.sum(axis=1, keepdims=True)


# four three-action firms make r2 rows of 4,212 x 4,374 or more: left out
ORACLE_GAMES = [(N, K, m_s) for N in (1, 2, 3, 4) for K in (2, 3) for m_s in (1, 2, 3)
                if not (N == 4 and K == 3)]


class TestLoopOracle:
    """The index-array builders equal the per-term loops bit for bit, and the
    blocked solve of build_system agrees with the dense square block."""

    @pytest.mark.parametrize("N,K,m_s", ORACLE_GAMES)
    def test_builders_and_expected_objects(self, N, K, m_s):
        m = random_game(N, K, m_s)
        P = random_play(m)
        acts_all = tuple(range(K - 1))
        for i in range(N):
            cells = payoff_cells(m, i)
            assert np.array_equal(cells, loop_cells(m, i))
            assert np.array_equal(m.pi_stack(i), loop_pi_stack(m, i))
            for acts in ((0,), (), (0, 0), acts_all, acts_all[::-1]):
                assert np.array_equal(r3_exchangeability(m, i, acts), loop_exchangeability(m, i, acts))
                R, c = r4_monotone_own_lag(m, i, acts)
                assert np.array_equal(R, loop_monotone_own_lag(m, i, acts))
                assert np.array_equal(c, np.zeros(len(R)))
                R, c = r4_monotone_rivals(m, i, acts)
                assert np.array_equal(R, loop_monotone_rivals(m, i, acts))
                assert np.array_equal(c, np.zeros(len(R)))
                for lags in ((0,), acts_all, (0, 0), (K - 2, 0)):
                    assert np.array_equal(r3_adjustment_cost(m, i, acts, lags),
                                          loop_adjustment_cost(m, i, acts, lags))
            got = expected_objects(m, P, i)
            for new, old in zip(got, loop_expected_objects(m, P, i)):
                assert np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old))
            assert np.array_equal(rival_probabilities(m, P, i), got[2])
            if m.m_pi <= 1500:
                mpe = play(P)
                X = np.vstack([loop_pbar(m, got[2]), loop_r2(m, i)])
                dense = np.linalg.solve(X, padded_rhs(m, mpe, i))  # the one solve the blocks replaced
                gap = np.max(np.abs(build_system(m, mpe, i).g - dense))
                assert gap <= 1e-12 * np.max(np.abs(dense))

    def test_five_firm_blocks_solve_the_square_block(self):
        # m_pi = 1,536: the loop-built square block times the blocked solution
        # gives back the expected payoffs over zero rivals'-lag differences
        m = random_game(5, 2, 3)
        assert m.m_pi == 1536
        mpe = play(random_play(m))
        Y = padded_rhs(m, mpe, 0)
        resid = square_block(m, mpe.P, 0) @ build_system(m, mpe, 0).g - Y
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(Y))


# ---- equilibrium-selection oracle -------------------------------------------
# The damped sequential best-response sweeps the accelerated solver
# extrapolates, kept as an oracle: the accelerated solve must find the
# equilibrium these plain sweeps select, not just some equilibrium.


def loop_solve_mpe(m, damping=0.5, start=None, tol=1e-10, max_iter=10_000):
    N, K = m.n_firms, m.n_actions
    P = np.full((N, K, m.m_x), 1.0 / K) if start is None else np.array(start, dtype=float)
    V_cache = np.zeros((N, m.m_x))
    for _ in range(max_iter):
        worst = 0.0
        for i in range(N):
            pi_star, Q_star, _ = expected_objects(m, P, i)
            BR, V_cache[i], _ = solve_logit(pi_star, Q_star, m.betas[i], V0=V_cache[i])
            worst = max(worst, float(np.max(np.abs(BR - P[i]))))
            P[i] = damping * BR + (1.0 - damping) * P[i]
        if worst <= tol:
            return P
    raise AssertionError("oracle sweeps did not converge")


def draw_configs():
    """The recipe of perfbench.inputs.game_draws(0): betas and fixed costs drawn."""
    rng = np.random.default_rng([0, 4])
    out = []
    for _ in range(5):
        betas = tuple(float(b + rng.uniform(-0.01, 0.01)) for b in (0.8, 0.9, 0.95))
        fc = tuple(float(f) for f in rng.uniform(0.7, 1.1, 3))
        out.append(EntryGameConfig(betas=betas, theta_fc=fc))
    return out


# four firms on six market sizes (m_x = 96), a tridiagonal market-size chain
FOUR_FIRMS = EntryGameConfig(
    n_firms=4, theta_fc=(1.0, 0.9, 0.8, 0.85), betas=(0.8, 0.9, 0.95, 0.85),
    s_values=tuple(np.linspace(2.0, 10.0, 6)),
    s_transition=tuple(tuple(row / row.sum()) for row in
                       0.6 * np.eye(6) + 0.2 * np.eye(6, k=1) + 0.2 * np.eye(6, k=-1)))
# strong interactions (theta_rn 6 and 10) give games with several equilibria
SELECTION_CASES = (
    [pytest.param(EntryGameConfig(), tol, id=f"reference-tol{tol:g}") for tol in (1e-10, 1e-12)]
    + [pytest.param(cfg, 1e-10, id=f"draw{d}") for d, cfg in enumerate(draw_configs())]
    + [pytest.param(EntryGameConfig(theta_rn=r, theta_rs=s, theta_ec=e), 1e-10, id=f"rn{r}-rs{s}-ec{e}")
       for r in (1, 3, 6, 10) for s, e in ((1, 1), (3, 1), (3, 4), (6, 6))]
    + [pytest.param(FOUR_FIRMS, 1e-10, id="four-firms-mx96")])


def corner_start(m, p0):
    start = np.empty((m.n_firms, m.n_actions, m.m_x))
    start[:, 0], start[:, 1] = p0, 1.0 - p0
    return start


class TestEquilibriumSelection:
    @pytest.mark.parametrize("cfg,tol", SELECTION_CASES)
    def test_accelerated_solve_selects_the_sweep_equilibrium(self, cfg, tol):
        m = build_entry_game(cfg).model
        mpe = solve_mpe(m, tol=tol)
        assert np.max(np.abs(mpe.P - loop_solve_mpe(m, tol=tol))) <= 1e-8
        assert mpe.residual <= tol

    def test_reference_game_is_accelerated(self):
        # the plain sweeps take 39; a silent return to them fails here
        assert solve_mpe(build_entry_game().model).n_iter <= 20

    @pytest.mark.parametrize("rn", [1, 6])
    def test_fallback_games_from_near_a_corner(self, rn, monkeypatch):
        # extrapolation leaves (0, 1) on both games, and with theta_rn = 6 the
        # sweep change also rises: the plain sweep is taken there, so every
        # profile a sweep starts from is interior
        m = build_entry_game(EntryGameConfig(theta_rn=rn, theta_rs=6, theta_ec=6)).model
        P_ref = loop_solve_mpe(m)
        seen = []

        def spy(model, P, i):
            seen.append((float(np.min(P)), float(np.max(P))))
            return expected_objects(model, P, i)

        monkeypatch.setattr(games, "expected_objects", spy)
        assert np.max(np.abs(solve_mpe(m).P - P_ref)) <= 1e-8
        for p0 in (1e-3, 1.0 - 1e-3):
            mpe = solve_mpe(m, start=corner_start(m, p0))
            assert mpe.residual <= 1e-10
            assert np.max(np.abs(mpe.P - P_ref)) <= 1e-8
            assert np.max(np.abs(mpe.P - loop_solve_mpe(m, start=corner_start(m, p0)))) <= 1e-8
        lo, hi = np.array(seen).T
        assert np.all(lo > 0.0) and np.all(hi < 1.0)


# ---- local sweeps -----------------------------------------------------------
# Sweeps each selection game took when every best response was a full solve:
# the local phase may not add one.
FULL_SOLVE_SWEEPS = {
    "reference-tol1e-10": 16, "reference-tol1e-12": 19,
    "draw0": 16, "draw1": 16, "draw2": 16, "draw3": 16, "draw4": 16,
    "rn1-rs1-ec1": 16, "rn1-rs3-ec1": 14, "rn1-rs3-ec4": 16, "rn1-rs6-ec6": 12,
    "rn3-rs1-ec1": 27, "rn3-rs3-ec1": 26, "rn3-rs3-ec4": 28, "rn3-rs6-ec6": 24,
    "rn6-rs1-ec1": 52, "rn6-rs3-ec1": 48, "rn6-rs3-ec4": 37, "rn6-rs6-ec6": 34,
    "rn10-rs1-ec1": 52, "rn10-rs3-ec1": 57, "rn10-rs3-ec4": 48, "rn10-rs6-ec6": 86,
    "four-firms-mx96": 17,
}


class TestLocalSweeps:
    @pytest.mark.parametrize("cfg,tol,sweeps", [pytest.param(*p.values, FULL_SOLVE_SWEEPS[p.id], id=p.id)
                                                for p in SELECTION_CASES])
    def test_no_more_sweeps_than_full_solves(self, cfg, tol, sweeps):
        mpe = solve_mpe(build_entry_game(cfg).model, tol=tol)
        assert mpe.n_iter <= sweeps
        assert mpe.residual <= tol

    def test_reference_game_takes_single_steps(self, monkeypatch):
        # fewer than half the sweeps' best responses are full solves, the
        # confirmation's included: a silent return to full solves fails here
        m = build_entry_game().model
        calls = []
        monkeypatch.setattr(games, "solve_logit", lambda *a, **k: calls.append(1) or solve_logit(*a, **k))
        mpe = solve_mpe(m)
        assert len(calls) < m.n_firms * mpe.n_iter / 2

    def test_failed_confirmation_sweeps_on_with_full_solves(self, monkeypatch):
        m = build_entry_game().model
        plain = solve_mpe(m)
        events = []
        confirm, newton_step = games._confirm, games._newton_step

        def failing_once(*args):
            mpe = confirm(*args)
            events.append("confirm")
            return replace(mpe, residual=1.0) if events.count("confirm") == 1 else mpe

        monkeypatch.setattr(games, "_confirm", failing_once)
        monkeypatch.setattr(games, "_newton_step", lambda *a: events.append("step") or newton_step(*a))
        mpe = solve_mpe(m)
        first = events.index("confirm")
        assert "step" in events[:first] and "step" not in events[first:]
        assert events.count("confirm") == 2
        assert mpe.n_iter > plain.n_iter and mpe.residual <= 1e-10
        assert np.max(np.abs(mpe.P - plain.P)) <= 1e-9


# ---- the rounding floor ----------------------------------------------------------


class TestRoundingFloor:
    @pytest.mark.parametrize("cfg", [pytest.param(p.values[0], id=p.id) for p in SELECTION_CASES])
    def test_selection_games_reach_1e_14(self, cfg):
        # below FLOOR each game's sweep change falls on every sweep, so the
        # floor rule cannot stop a game that reaches its tol
        assert solve_mpe(build_entry_game(cfg).model, tol=1e-14).residual <= 1e-14

    @pytest.mark.parametrize("tol", [1e-16, 0.0])
    def test_tol_below_the_rounding_floor_is_named(self, game, tol):
        # the sweep change levels off near 1e-15: this ran 100,000 sweeps, about a minute
        bundle, _ = game
        start = time.perf_counter()
        floor = rf"rounding floor, a change of \S+e-15, and not tol={tol:g}"
        with pytest.raises(ConvergenceError, match=floor) as err:
            solve_mpe(bundle.model, tol=tol)
        assert time.perf_counter() - start < 1.0
        assert min(err.value.history) < games.FLOOR
        assert err.value.residual == err.value.history[-1]


# ---- index maps built once per game -------------------------------------------


def transpose_cells(m, i):
    """``payoff_cells`` as one transpose of an arange, the construction the
    cached maps replaced."""
    N, K, n_o = m.n_firms, m.n_actions, m.n_rival_profiles
    u = np.arange(m.m_pi).reshape((K - 1, m.m_s) + (K,) * N + (n_o,))
    own = 2 + N - 1 - i
    lags = [own] + [ax for ax in range(2, 2 + N) if ax != own]
    return u.transpose([0, 2 + N, 1] + lags).reshape(K - 1, n_o, m.m_s, K, n_o)


def uncached_expected_objects(m, P, i):
    """``expected_objects`` with every index map built from the model in the call."""
    N, K, m_x, n_o = m.n_firms, m.n_actions, m.m_x, m.n_rival_profiles
    base = K ** N
    P_minus = np.ones((m_x, n_o))
    acts = np.arange(n_o) // K ** np.arange(N - 1)[:, None] % K
    for t, j in enumerate(np.delete(np.arange(N), i)):
        P_minus *= P[j, acts[t]].T
    pi_star = np.einsum("xo,kox->kx", P_minus, m.payoffs[i])
    lag = transpose_cells(m, i)[0, 0, 0] // n_o
    block = (P_minus[:, :, None] * m.s_transition[np.arange(m_x) // base, None, :]).reshape(m_x, -1)
    Q_star = np.zeros((K, m_x, m_x))
    for k in range(K):
        Q_star[k][:, (lag[k][:, None] + np.arange(m.m_s) * base).ravel()] += block
    return pi_star, Q_star, P_minus


class TestFirmMaps:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_payoff_cells_read_only_and_unchanged(self, N):
        for K, m_s in ((2, 1), (2, 3), (3, 2)):
            m = random_game(N, K, m_s)
            for i in range(N):
                cells = payoff_cells(m, i)
                assert np.array_equal(cells, transpose_cells(m, i))
                assert cells is payoff_cells(m, i)  # built once per model
                with pytest.raises(ValueError, match="read-only"):
                    cells[(0,) * cells.ndim] = -1
            assert not any(a.flags.writeable for firm in m._firm_maps for a in firm)

    @pytest.mark.parametrize("cfg", [pytest.param(p.values[0], id=p.id) for p in SELECTION_CASES])
    def test_expected_objects_bit_equal(self, cfg):
        m = build_entry_game(cfg).model
        for P in (np.full((m.n_firms, m.n_actions, m.m_x), 1.0 / m.n_actions), random_play(m)):
            for i in range(m.n_firms):
                for new, old in zip(expected_objects(m, P, i), uncached_expected_objects(m, P, i)):
                    assert np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old))

    def test_firm_out_of_range(self):
        # rival_probabilities had read firm -1 as the last firm
        m = random_game(3, 2, 2)
        P = random_play(m)
        for i in (-1, 3):
            for f in (payoff_cells, lambda m, i: rival_probabilities(m, P, i),
                      lambda m, i: expected_objects(m, P, i)):
                with pytest.raises(IndexError, match=f"firm {i} out of range 0..2"):
                    f(m, i)
