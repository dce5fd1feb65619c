import json

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddcident.betapoly import polyval_rows, roots_in_interval
from ddcident.ddc import SingleAgentModel, master_system, recover_payoffs, solve_bellman
from ddcident.identify import (
    check_finite_dependence,
    combine,
    equality_identified_set,
    finite_equality_set,
    finite_inequality_region,
    finite_restriction_poly,
    identified_set,
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


def degree(coeffs):
    """Index of the last nonzero coefficient (0 for the zero row)."""
    return int(np.flatnonzero(coeffs).max(initial=0))


def grid_scan_roots(coeffs, n=100_000):
    p = npoly.Polynomial(coeffs)
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
                assert abs(npoly.polyval(1.0, p)) <= 1e-6 * np.max(np.abs(p))

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

    def test_zero_row_sets(self, entry):
        # what the game path returns for a system without rows
        _, _, ms = entry
        eq = equality_identified_set(ms, RestrictionSet(np.zeros((0, ms.n_rows)), 0.0, "eq"))
        assert eq.diagnostics.get("no_identifying_content")
        assert eq.equality_roots == []
        ge = inequality_region(ms, RestrictionSet(np.zeros((0, ms.n_rows)), 0.0, "ge"))
        assert ge.inequality_intervals == [(0.0, 1.0)]

    @pytest.mark.parametrize("kind", ["eq", "ge"])
    def test_non_finite_row_rejected(self, kind):
        with pytest.raises(ValueError, match="row 0 is not finite"):
            identified_set(np.array([[np.nan, 1.0]]), kind, {})

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

    @pytest.mark.parametrize("r", [[1.0, -1.0, 0.0], [1.0, -1.0, 0.0, 0.0, 0.0]])
    def test_weights_need_one_per_row(self, r):
        # a 4-row system: a short or long weight vector used to be read as if
        # it had one weight per row
        u = np.stack([np.array([1.0, 1.5, 2.0, 2.5]), np.zeros(4)])
        Q = np.random.default_rng(5).random((2, 4, 4)) + 0.2
        Q /= Q.sum(axis=2, keepdims=True)
        m = SingleAgentModel(u=u, Q=Q, beta=0.9)
        ms = master_system(solve_bellman(m).psi, m.Q)
        assert ms.n_rows == 4
        with pytest.raises(ValueError, match=f"length {len(r)}; the system has 4 rows"):
            solve_log_diff(ms, np.array(r), 0.0)


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

    @pytest.mark.parametrize("pair,error,message", [
        (((-1, 0), (0, 9)), ValueError, "other than the last"),  # action -1 is the last
        (((-2, 0), (0, 9)), ValueError, "other than the last"),  # would wrap to action 0
        (((0, -1), (0, 9)), IndexError, "'state' index -1 out of range"),  # would wrap to J-1
        (((0, 0), (0, 18)), IndexError, "'state' index 18 out of range"),
    ])
    def test_pair_indices_checked(self, entry_fd, pair, error, message):
        # negative indices used to wrap and return a rho = 1 certificate
        bundle, _ = entry_fd
        with pytest.raises(error, match=message):
            check_finite_dependence(bundle.model.Q, [pair], rho_max=3)

    @pytest.mark.parametrize("pair,same_as,message", [
        (((True, 0), (0, 1)), None, "index True on axes \\('action',\\)"),  # was a numpy mask
        (((0, True), (0, 1)), None, "index True on axes \\('state',\\)"),  # was read as 1
        (((0, 0), (0, np.True_)), None, "index True on axes \\('state',\\)"),
        (((0, 0.5), (0, 1)), None, "index 0.5 on axes \\('state',\\)"),
        (((0.5, 0), (0, 1)), None, "actions other than the last, 0..1"),
        (((1.0, 0), (0, 1)), ((1, 0), (0, 1)), None),  # integral floats index as ints
        (((0, 1.0), (0, 2)), ((0, 1), (0, 2)), None),
    ])
    def test_pair_index_types(self, pair, same_as, message):
        rng = np.random.default_rng(0)
        Q = rng.random((3, 4, 4))
        Q /= Q.sum(axis=2, keepdims=True)
        if same_as is None:
            with pytest.raises(IndexError if "axes" in message else ValueError, match=message):
                check_finite_dependence(Q, [pair])
        else:
            got = check_finite_dependence(Q, [pair]).max_violation
            assert got == check_finite_dependence(Q, [same_as]).max_violation


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
                assert npoly.polyval(beta, D) == pytest.approx(direct, abs=1e-8)

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
        assert degree(D) <= 2
        for beta in np.linspace(0.0, 0.99, 101):
            U = recover_payoffs(sol.psi, m.Q, beta)
            assert npoly.polyval(beta, D) == pytest.approx(U[1] - U[3], abs=1e-8)

    def test_rho_one_linear_root_formula(self, entry_fd):
        bundle, sol = entry_fd
        rs = bundle.restrictions["zero_cross"]
        # a single payoff-difference exclusion: linear polynomial, closed-form root
        row = np.zeros(18)
        row[0], row[4] = 1.0, -1.0
        true_diff = bundle.u_true[0] - bundle.u_true[4]
        p = finite_restriction_poly(sol.psi, bundle.model.Q, row, true_diff, rho=1)
        assert degree(p) == 1
        root = -p[0] / p[1]
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
        assert degree(p) == 1
        for beta in np.linspace(0.0, 0.99, 101):
            assert npoly.polyval(beta, p) == pytest.approx(row @ recover_payoffs(sol.psi, m.Q, beta) - c, abs=1e-8)


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
        assert degree(p) <= rho
        for beta in np.linspace(0.0, 0.99, 34):
            assert npoly.polyval(beta, p) == pytest.approx(row @ recover_payoffs(sol.psi, m.Q, beta) - c, abs=1e-8)


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


class TestLogDiffPlanted:
    """The grid scan finds the planted discount factor of a log-separable
    model, and every root it returns satisfies the restriction."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), a=st.floats(0.1, 0.5), b=st.floats(0.04, 0.12),
           beta=st.floats(0.4, 0.8))
    def test_planted_root_found_and_roots_hold(self, seed, a, b, beta):
        # the recipe of perfbench.inputs.log_diff_model: U = exp(a + b w^2) on
        # the ray (1, 2, 4) meets the degree-2 log-difference weights
        w = np.array([1.0, 2.0, 4.0])
        Q = np.random.default_rng(seed).random((2, 3, 3)) + 0.2
        Q /= Q.sum(axis=2, keepdims=True)
        m = SingleAgentModel(u=np.stack([np.exp(a + b * w ** 2), np.zeros(3)]), Q=Q, beta=beta)
        fs = FactoredStates(axes=("w",), grids=(w,), n_actions=2)
        r, c = log_diff_restriction(fs, 0, base=1.0, lambdas=[2.0, 4.0], nu=2.0)
        sol = solve_bellman(m)
        roots = solve_log_diff(master_system(sol.psi, m.Q), r, c)
        assert np.min(np.abs(roots.points - beta)) <= 1e-6
        for x in roots.points:
            assert abs(r @ np.log(recover_payoffs(sol.psi, m.Q, x)) - c) <= 1e-6


@st.composite
def coefficient_matrices(draw):
    """Rows of one width: zero rows, rows planted with a shared root in
    ``[0, 1)`` and others in ``[-0.2, 1.2]``, and random rows, each of the
    last two ending in exact zeros when its degree is below the width."""
    width = draw(st.integers(2, 8))
    shared = draw(st.floats(0.0, 0.99))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "planted", "random"]))
        if kind == "zero":
            c = np.zeros(1)
        elif kind == "planted":
            others = draw(st.lists(st.floats(-0.2, 1.2), max_size=width - 2))
            c = npoly.polyfromroots([shared] + others) * draw(st.floats(1e-3, 1e3))
        else:
            c = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=width)))
        rows.append(np.pad(c, (0, width - len(c))))
    return np.array(rows)


class TestPaddingInvariance:
    """Zero columns appended to a coefficient matrix change no bit of any
    result: Horner's rule turns a leading zero into +0.0, and the root finder
    drops it before it factors."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(C=coefficient_matrices(), k=st.integers(1, 4))
    def test_appended_zero_columns_change_nothing(self, C, k):
        padded = np.pad(C, ((0, 0), (0, k)))
        for kind in ("eq", "ge"):
            assert (json.dumps(identified_set(C, kind, {}).to_json_dict())
                    == json.dumps(identified_set(padded, kind, {}).to_json_dict()))
        for row, row_padded in zip(C, padded):
            if not row.any():
                for r in (row, row_padded):
                    assert roots_in_interval(r).uninformative
                continue
            a, b = roots_in_interval(row), roots_in_interval(row_padded)
            assert a.points.tobytes() == b.points.tobytes()
            assert a.residuals.tobytes() == b.residuals.tobytes()
        xs = np.linspace(-1.0, 1.0, 101)
        assert polyval_rows(C, xs).tobytes() == polyval_rows(padded, xs).tobytes()


class TestSerialization:
    def test_identified_set_round_trips_through_json(self, entry):
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
        rows = npoly.polyval(bundle.model.beta, ms.payoff_polys(rs.R, rs.c).T)
        assert min(rows) > 0.0

    def test_finite_dependence_rows(self, entry_fd):
        bundle, sol = entry_fd
        rs = bundle.restrictions["complementarity"]
        assert np.min(rs.R @ bundle.model.u[:-1].reshape(-1) - rs.c) > 0.1
        rows = [npoly.polyval(bundle.model.beta, finite_restriction_poly(sol.psi, bundle.model.Q, r, c, 1))
                for r, c in zip(rs.R, rs.c)]
        assert min(rows) > 0.0

    def test_game_rows(self):
        from ddcident.games import build_system, r4_monotone_rivals, solve_mpe
        from ddcident.scenarios import build_entry_game
        model = build_entry_game().model
        system = build_system(model, solve_mpe(model), 0)
        R, c = r4_monotone_rivals(model, 0)
        assert np.min(R @ model.pi_stack(0) - c) > 0.1
        rows = npoly.polyval(model.betas[0], system.payoff_polys(R, c).T)
        assert min(rows) > 0.0
