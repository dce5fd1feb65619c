import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddcident.ddc import SingleAgentModel, master_system, recover_payoffs, solve_bellman
from ddcident.identify import (
    check_finite_dependence,
    combine,
    equality_identified_set,
    finite_equality_set,
    finite_inequality_region,
    finite_restriction_poly,
    inequality_region,
    solve_log_diff,
)
from ddcident.restrictions import FactoredStates, RestrictionSet, log_diff_restriction
from ddcident.scenarios import build_entry_model, build_entry_model_fd


@pytest.fixture(scope="module")
def entry():
    bundle = build_entry_model()
    sol = solve_bellman(bundle.model)
    ms = master_system(sol.psi, bundle.model.Q)
    return bundle, sol, ms


@pytest.fixture(scope="module")
def entry_fd():
    bundle = build_entry_model_fd()
    sol = solve_bellman(bundle.model)
    return bundle, sol


def grid_scan_roots(p, n=100_000):
    xs = np.linspace(0.0, 1.0, n, endpoint=False)
    vals = p(xs)
    out = []
    for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]:
        a, b = xs[i], xs[i + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            if np.sign(p(a)) * np.sign(p(m)) <= 0:
                b = m
            else:
                a = m
        out.append(0.5 * (a + b))
    return np.array(out)


class TestEqualitySets:
    def test_entry_homogeneity_pinpoints_beta(self, entry):
        bundle, _, ms = entry
        s = equality_identified_set(ms, bundle.restrictions["homogeneity"])
        assert len(s.equality_roots) == 1
        assert s.equality_roots[0] == pytest.approx(0.95, abs=1e-4)

    def test_entry_zero_cross_pinpoints_beta(self, entry):
        bundle, _, ms = entry
        s = equality_identified_set(ms, bundle.restrictions["zero_cross"])
        assert len(s.equality_roots) == 1
        assert s.equality_roots[0] == pytest.approx(0.95, abs=1e-4)

    def test_all_polynomials_vanish_at_one(self, entry):
        bundle, _, ms = entry
        for name in ("homogeneity", "zero_cross", "linearity"):
            rs = bundle.restrictions[name]
            for p in ms.payoff_polys(rs.R, rs.c):
                assert abs(p(1.0)) <= 1e-6 * p.max_abs_coeff

    def test_roots_match_grid_scan_oracle(self, entry):
        bundle, _, ms = entry
        rs = bundle.restrictions["homogeneity"]
        polys = ms.payoff_polys(rs.R, rs.c)
        from ddcident.betapoly import roots_in_interval
        for p in polys:
            found = roots_in_interval(p).points
            oracle = grid_scan_roots(p)
            assert len(found) == len(oracle)
            if len(found):
                assert found == pytest.approx(oracle, abs=1e-6)

    def test_uninformative_restriction_flagged(self, entry):
        bundle, _, ms = entry
        p = ms.n_rows
        rs = RestrictionSet(np.zeros((2, p)), 0.0, "eq", "vacuous")
        s = equality_identified_set(ms, rs)
        assert s.diagnostics.get("no_identifying_content")
        assert s.equality_roots == []

    def test_wrong_kind_rejected(self, entry):
        bundle, _, ms = entry
        with pytest.raises(ValueError):
            equality_identified_set(ms, bundle.restrictions["monotonicity"])


class TestInequalityRegions:
    def test_entry_monotonicity_region_ends_at_beta(self, entry):
        bundle, _, ms = entry
        s = inequality_region(ms, bundle.restrictions["monotonicity"])
        assert len(s.inequality_intervals) == 1
        lo, hi = s.inequality_intervals[0]
        assert hi == pytest.approx(0.95, abs=1e-3)

    def test_vacuous_inequality_covers_domain(self, entry):
        bundle, _, ms = entry
        rs = RestrictionSet(np.zeros((1, ms.n_rows)), 0.0, "ge", "vacuous")
        s = inequality_region(ms, rs)
        assert s.inequality_intervals == [(0.0, 1.0)]

    def test_combine_intersects(self, entry):
        bundle, _, ms = entry
        eq = equality_identified_set(ms, bundle.restrictions["homogeneity"])
        iq = inequality_region(ms, bundle.restrictions["monotonicity"])
        both = combine(eq, iq)
        assert both.combined == pytest.approx([0.95], abs=1e-4)

    def test_combine_set_arithmetic(self):
        from ddcident.identify import IdentifiedSet
        eq = IdentifiedSet(equality_roots=[0.3, 0.95])
        iq = IdentifiedSet(inequality_intervals=[(0.69, 0.95)])
        both = combine(eq, iq)
        assert both.combined == pytest.approx([0.95])
        empty = combine(IdentifiedSet(equality_roots=[]), iq)
        assert empty.combined == []

    def test_combine_uninformative_equality_set_constrains_nothing(self, entry_fd):
        # zero-cross holds at every discount factor in the one-dependent
        # variant; it must not empty the combination with a feasible region
        bundle, sol = entry_fd
        ms = master_system(sol.psi, bundle.model.Q)
        eq = equality_identified_set(ms, bundle.restrictions["zero_cross"])
        iq = inequality_region(ms, bundle.restrictions["monotonicity"])
        assert eq.diagnostics["no_identifying_content"]
        (lo, hi), = iq.inequality_intervals
        assert lo == pytest.approx(0.95, abs=1e-3) and hi == 1.0
        both = combine(eq, iq)
        assert both.combined is None and both.equality_roots is None
        assert both.diagnostics["no_identifying_content"]
        assert both.inequality_intervals == iq.inequality_intervals


@pytest.fixture(scope="module")
def planted():
    # exp of additively separable payoff with a degree-2 homogeneous ray part
    w_grid = np.array([1.0, 2.0, 4.0])
    fs = FactoredStates(axes=("w",), grids=(w_grid,), n_actions=2)
    rng = np.random.default_rng(17)
    u1 = np.exp(0.08 * w_grid ** 2 + 0.3)
    u = np.stack([u1, np.zeros(3)])
    Q = rng.random((2, 3, 3)) + 0.2
    Q /= Q.sum(axis=2, keepdims=True)
    m = SingleAgentModel(u=u, Q=Q, beta=0.6)
    sol = solve_bellman(m)
    ms = master_system(sol.psi, m.Q)
    r, c = log_diff_restriction(fs, 0, base=1.0, lambdas=[2.0, 4.0], nu=2.0)
    return ms, r, c


class TestLogDiff:
    def test_root_at_true_beta(self, planted):
        ms, r, c = planted
        rs = solve_log_diff(ms, r, c)
        assert any(abs(x - 0.6) < 1e-6 for x in rs.points)

    def test_shifted_constant_removes_root(self, planted):
        ms, r, c = planted
        rs = solve_log_diff(ms, r, c + 1.0)
        assert not any(abs(x - 0.6) < 1e-3 for x in rs.points)

    def test_identical_components_flagged_uninformative(self):
        # two exchangeable states make the recovered-payoff components equal,
        # so a (+1, -1) log-difference holds at every discount factor
        u = np.stack([np.array([1.3, 1.3]), np.zeros(2)])
        Q = np.stack([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        m = SingleAgentModel(u=u, Q=Q, beta=0.4)
        sol = solve_bellman(m)
        ms = master_system(sol.psi, m.Q)
        rs = solve_log_diff(ms, np.array([1.0, -1.0]), 0.0)
        assert rs.uninformative
        assert len(rs.points) == 0

    def test_zero_weights_rejected(self, planted):
        ms, r, _ = planted
        with pytest.raises(ValueError):
            solve_log_diff(ms, np.zeros_like(r), 0.0)

    def test_weights_must_sum_to_zero(self, planted):
        ms, r, _ = planted
        bad = r.copy()
        bad[0] += 0.5
        with pytest.raises(ValueError):
            solve_log_diff(ms, bad, 0.0)


class TestFiniteDependence:
    def test_renewal_model_is_one_dependent(self):
        rng = np.random.default_rng(21)
        J = 4
        Q0 = rng.random((J, J)) + 0.1
        Q0 /= Q0.sum(axis=1, keepdims=True)
        QK = np.tile(rng.dirichlet(np.ones(J)), (J, 1))  # renewal: every row identical
        Q = np.stack([Q0, QK])
        pairs = [((0, 0), (0, 2)), ((0, 1), (0, 3))]
        cert = check_finite_dependence(Q, pairs, rho_max=3)
        assert cert.rho == 1
        assert cert.max_violation <= 1e-10

    def test_entry_fd_variant_certifies(self, entry_fd):
        bundle, _ = entry_fd
        pairs = [((0, 0), (0, 9)), ((0, 3), (0, 4))]
        cert = check_finite_dependence(bundle.model.Q, pairs, rho_max=3)
        assert cert.rho == 1

    def test_full_entry_model_is_not_finitely_dependent(self, entry):
        bundle, _, _ = entry
        pairs = [((0, 0), (0, 9))]
        cert = check_finite_dependence(bundle.model.Q, pairs, rho_max=6)
        assert not cert.satisfied
        assert cert.max_violation > 1e-10

    def test_empty_pairs_rejected(self, entry_fd):
        bundle, _ = entry_fd
        with pytest.raises(ValueError, match="at least one pair"):
            check_finite_dependence(bundle.model.Q, [], rho_max=3)

    def test_pairs_cannot_use_last_action(self, entry):
        bundle, _, _ = entry
        with pytest.raises(ValueError):
            check_finite_dependence(bundle.model.Q, [((1, 0), (0, 1))], rho_max=2)


class TestFiniteDependencePolys:
    def test_pair_poly_matches_master_recovery(self, entry_fd):
        # the degree-rho payoff-difference polynomial agrees with the full
        # master-system recovery at every discount factor
        bundle, sol = entry_fd
        pairs = [((0, 0), (0, 9)), ((0, 2), (0, 11))]
        for pa, pb in pairs:
            row = np.zeros(18)
            row[pa[0] * 18 + pa[1]], row[pb[0] * 18 + pb[1]] = 1.0, -1.0
            D = finite_restriction_poly(sol.psi, bundle.model.Q, row, 0.0, rho=1)
            for beta in np.linspace(0.0, 0.99, 101):
                U = recover_payoffs(sol.psi, bundle.model.Q, beta)
                direct = U[pa[0] * 18 + pa[1]] - U[pb[0] * 18 + pb[1]]
                assert D(beta) == pytest.approx(direct, abs=1e-8)

    def test_two_period_renewal_cross_check(self):
        # last action funnels into {0, 1} and then to state 0, so the state
        # distribution washes out after exactly two steps
        rng = np.random.default_rng(23)
        J = 5
        Q0 = rng.random((J, J)) + 0.1
        Q0 /= Q0.sum(axis=1, keepdims=True)
        targets = [0, 0, 1, 0, 1]
        QK = np.zeros((J, J))
        QK[np.arange(J), targets] = 1.0
        Q = np.stack([Q0, QK])
        u = np.stack([rng.normal(size=J), np.zeros(J)])
        m = SingleAgentModel(u=u, Q=Q, beta=0.7)
        sol = solve_bellman(m)
        cert = check_finite_dependence(Q, [((0, 1), (0, 3))], rho_max=3)
        assert cert.rho == 2
        row = np.zeros(J)
        row[1], row[3] = 1.0, -1.0
        D = finite_restriction_poly(sol.psi, m.Q, row, 0.0, rho=2)
        assert D.degree <= 2
        for beta in np.linspace(0.0, 0.99, 101):
            U = recover_payoffs(sol.psi, m.Q, beta)
            assert D(beta) == pytest.approx(U[1] - U[3], abs=1e-8)

    def test_rho_one_linear_root_formula(self, entry_fd):
        bundle, sol = entry_fd
        rs = bundle.restrictions["zero_cross"]
        # a single payoff-difference exclusion: linear polynomial, closed-form root
        row = np.zeros(18)
        row[0], row[4] = 1.0, -1.0
        true_diff = bundle.u_true[0] - bundle.u_true[4]
        p = finite_restriction_poly(sol.psi, bundle.model.Q, row, true_diff, rho=1)
        assert p.degree == 1
        root = -p.coeffs[0] / p.coeffs[1]
        assert root == pytest.approx(0.95, abs=1e-8)

    def test_restriction_rows_match_full_degree_roots(self, entry_fd):
        # homogeneity restriction: degree-1 and degree-J systems agree on [0, 1)
        bundle, sol = entry_fd
        ms = master_system(sol.psi, bundle.model.Q)
        rs = bundle.restrictions["homogeneity"]
        polys_fd = [finite_restriction_poly(sol.psi, bundle.model.Q, rs.R[i], rs.c[i], 1)
                    for i in range(rs.n_rows)]
        s_fd = finite_equality_set(polys_fd)
        s_full = equality_identified_set(ms, rs)
        assert len(s_fd.equality_roots) == len(s_full.equality_roots) == 1
        assert s_fd.equality_roots[0] == pytest.approx(s_full.equality_roots[0], abs=1e-7)

    def test_inequality_region_right_of_true_beta(self, entry_fd):
        bundle, sol = entry_fd
        polys = []
        for name in ("monotonicity", "concavity", "complementarity"):
            rs = bundle.restrictions[name]
            polys += [finite_restriction_poly(sol.psi, bundle.model.Q, rs.R[i], rs.c[i], 1)
                      for i in range(rs.n_rows)]
        region = finite_inequality_region(polys)
        assert len(region.inequality_intervals) == 1
        lo, hi = region.inequality_intervals[0]
        assert lo == pytest.approx(0.95, abs=1e-3)
        assert hi == 1.0

    def test_cert_gate_rejects_undependent_pairs(self, entry):
        bundle, sol, _ = entry
        row = np.zeros(18)
        row[0], row[9] = 1.0, -1.0
        with pytest.raises(ValueError, match="dependence"):
            finite_restriction_poly(sol.psi, bundle.model.Q, row, 0.0, rho=1)

    def test_rho_below_one_rejected(self, entry_fd):
        bundle, sol = entry_fd
        row = np.zeros(18)
        row[0], row[4] = 1.0, -1.0
        with pytest.raises(ValueError, match="positive"):
            finite_restriction_poly(sol.psi, bundle.model.Q, row, 0.0, rho=0)

    def test_renewal_row_with_nonzero_weight_sum(self):
        # under renewal every row is 1-dependent, payoff differences or not:
        # u_0(x_1) + u_0(x_2) = c is a degree-1 polynomial in beta
        m = renewal_model(np.random.default_rng(29), K=2, J=4)
        sol = solve_bellman(m)
        row = np.zeros(4)
        row[1] = row[2] = 1.0
        c = 0.3
        p = finite_restriction_poly(sol.psi, m.Q, row, c, rho=1)
        assert p.degree == 1
        for beta in np.linspace(0.0, 0.99, 101):
            assert p(beta) == pytest.approx(row @ recover_payoffs(sol.psi, m.Q, beta) - c, abs=1e-8)


def renewal_model(rng, K, J):
    """Random model whose last action resets the state: every row of
    ``Q_last`` is the same distribution."""
    Q = rng.random((K, J, J)) + 0.1
    Q /= Q.sum(axis=2, keepdims=True)
    Q[K - 1] = rng.dirichlet(np.ones(J))
    u = np.vstack([rng.normal(size=(K - 1, J)), np.zeros((1, J))])
    return SingleAgentModel(u=u, Q=Q, beta=float(rng.uniform(0.3, 0.9)))


def funnel_model(rng, K, J):
    """Random model whose last action moves every state into {0, 1} and then
    to state 0, so ``Q_last^2`` has identical rows (2-dependence)."""
    Q = rng.random((K, J, J)) + 0.1
    Q /= Q.sum(axis=2, keepdims=True)
    targets = rng.integers(0, 2, size=J)
    targets[:2] = 0
    Q[K - 1] = np.eye(J)[targets]
    u = np.vstack([rng.normal(size=(K - 1, J)), np.zeros((1, J))])
    return SingleAgentModel(u=u, Q=Q, beta=float(rng.uniform(0.3, 0.9)))


class TestClosedFormRows:
    """Each finite-dependence row either fails its certificate or equals the
    row applied to the payoffs recovered at every discount factor."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), funnel=st.booleans(), K=st.integers(2, 3),
           J=st.integers(2, 6), rho=st.integers(1, 3),
           cells=st.lists(st.tuples(st.integers(0, 11), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
           c=st.floats(-1.0, 1.0))
    def test_row_matches_recovered_payoffs_or_is_rejected(self, seed, funnel, K, J, rho, cells, c):
        rng = np.random.default_rng(seed)
        m = (funnel_model if funnel else renewal_model)(rng, K, J)
        sol = solve_bellman(m)
        row = np.zeros((K - 1) * J)
        for i, w in cells:
            row[i % row.size] = w
        try:
            p = finite_restriction_poly(sol.psi, m.Q, row, c, rho)
        except ValueError as err:
            assert "dependence" in str(err)
            assert funnel and rho == 1
            return
        assert p.degree <= rho
        for beta in np.linspace(0.0, 0.99, 34):
            assert p(beta) == pytest.approx(row @ recover_payoffs(sol.psi, m.Q, beta) - c, abs=1e-8)


class TestLogDiffDomain:
    def test_undefined_everywhere_raises(self):
        # strictly negative payoffs keep the determinant-scaled components
        # negative across the whole interval, so the log form never exists
        rng = np.random.default_rng(40)
        u = np.stack([np.full(3, -5.0), np.zeros(3)])
        Q = rng.random((2, 3, 3)) + 0.3
        Q /= Q.sum(axis=2, keepdims=True)
        m = SingleAgentModel(u=u, Q=Q, beta=0.5)
        sol = solve_bellman(m)
        ms = master_system(sol.psi, m.Q)
        r = np.array([1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="undefined"):
            solve_log_diff(ms, r, 0.0)


class TestSerialization:
    def test_identified_set_round_trips_through_json(self, entry):
        import json
        bundle, _, ms = entry
        s = equality_identified_set(ms, bundle.restrictions["homogeneity"])
        doc = json.loads(json.dumps(s.to_json_dict()))
        assert doc["equality_roots"] == pytest.approx([0.95], abs=1e-4)
        assert doc["diagnostics"]["label"].startswith("additive_homogeneous")


class TestRowConvention:
    """Every source builds rows that are ``>= 0`` where ``R U >= c`` holds: an
    inequality the planted payoffs satisfy with slack has nonnegative rows at
    the planted discount factor."""

    def test_single_agent_rows(self, entry):
        bundle, _, ms = entry
        rs = bundle.restrictions["complementarity"]
        assert np.min(rs.R @ bundle.model.u[:-1].reshape(-1) - rs.c) > 0.1
        rows = [p(bundle.model.beta) for p in ms.payoff_polys(rs.R, rs.c)]
        assert min(rows) > 0.0

    def test_finite_dependence_rows(self, entry_fd):
        bundle, sol = entry_fd
        rs = bundle.restrictions["complementarity"]
        assert np.min(rs.R @ bundle.model.u[:-1].reshape(-1) - rs.c) > 0.1
        rows = [finite_restriction_poly(sol.psi, bundle.model.Q, r, c, 1)(bundle.model.beta)
                for r, c in zip(rs.R, rs.c)]
        assert min(rows) > 0.0

    def test_game_rows(self):
        from ddcident.games import build_system, r4_monotone_rivals, solve_mpe
        from ddcident.scenarios import build_entry_game
        model = build_entry_game().model
        system = build_system(model, solve_mpe(model), 0)
        R, c = r4_monotone_rivals(model, 0)
        assert np.min(R @ model.pi_stack(0) - c) > 0.1
        rows = [p(model.betas[0]) for p in system.payoff_polys(R, c)]
        assert min(rows) > 0.0
