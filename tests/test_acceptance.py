"""Acceptance suite: every release criterion at its stated tolerance.

Each test is one criterion; the terminal summary prints one PASS/FAIL line per
criterion (see conftest).  Tolerances are pinned here and nowhere else.
"""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ddcident.betapoly import faddeev_adj_det, roots_in_interval
from ddcident.ddc import (
    SingleAgentModel,
    master_system,
    recover_payoffs,
    solve_bellman,
)
from ddcident.games import (
    build_system,
    expected_objects,
    identified_set_game,
    inequality_region_game,
    r3_adjustment_cost,
    r3_exchangeability,
    r3_linear,
    r4_monotone_own_lag,
    r4_monotone_rivals,
    rival_probabilities,
    solve_mpe,
)
from ddcident.identify import (
    check_finite_dependence,
    equality_identified_set,
    finite_equality_set,
    finite_inequality_region,
    finite_restriction_poly,
    inequality_region,
)
from ddcident.scenarios import build_entry_game, build_entry_model, build_entry_model_fd
from test_games import loop_r2


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


@pytest.fixture(scope="module")
def game():
    bundle = build_entry_game()
    mpe = solve_mpe(bundle.model)
    return bundle, mpe


def grid_scan_roots(coeffs, n=100_000):
    p = npoly.Polynomial(coeffs)
    xs = np.linspace(0.0, 1.0, n, endpoint=False)
    vals = p(xs)
    out = []
    for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = xs[i], xs[i + 1]
        for _ in range(60):
            m = 0.5 * (a + b)
            if np.sign(p(a)) * np.sign(p(m)) <= 0:
                b = m
            else:
                a = m
        out.append(0.5 * (a + b))
    return np.array(out)


def test_criterion_1_entry_equality_identification(entry):
    """Homogeneity (6 rows) and zero cross-difference (8 rows) each pin the
    discount factor at 0.95 within 1e-4, and every polynomial vanishes at 1."""
    bundle, _, ms = entry
    for name, rows in (("homogeneity", 6), ("zero_cross", 8)):
        rs = bundle.restrictions[name]
        assert rs.n_rows == rows
        ident = equality_identified_set(ms, rs)
        assert len(ident.equality_roots) == 1, f"{name}: {ident.equality_roots}"
        assert ident.equality_roots[0] == pytest.approx(0.95, abs=1e-4)
        for p in ms.payoff_polys(rs.R, rs.c):
            assert abs(npoly.polyval(1.0, p)) <= 1e-6 * np.max(np.abs(p))


def holds_at(rs, psi, Q, beta):
    """Whether payoffs recovered by a direct linear solve at ``beta`` satisfy
    the inequality rows ``R U >= c`` (no polynomial representation involved)."""
    U = recover_payoffs(psi, Q, beta)
    return bool(np.min(rs.R @ U - rs.c) >= 0.0)


def test_criterion_2_entry_inequality_bounds(entry):
    """Monotonicity, convexity (the ``concavity`` key), and complementarity
    regions match the reference intervals with endpoints within 0.01, and
    payoffs recovered directly on each side of each endpoint agree."""
    bundle, sol, ms = entry
    # The true operating payoff theta1 + exp(z)(theta2 + theta3 w) + (1-y) theta4
    # is increasing and convex in z and supermodular in (w, z); the scenario
    # therefore builds the ``concavity`` key as convexity(z).  Recovered
    # directly, the payoff is increasing in z for beta <= 0.95 (slack +0.014 at
    # beta = 0), convex in z only for beta >= 0.95 (slack -0.008 at 0.7), and
    # supermodular on all of [0, 1) (slack about 0.91 throughout), so the
    # regions are [0, 0.95], [0.95, 1) and [0, 1).
    expected = {"monotonicity": (0.0, 0.95), "concavity": (0.95, 1.0),
                "complementarity": (0.0, 1.0)}
    assert bundle.restrictions["concavity"].label == "convexity(z)"
    failures = []
    for name, (lo, hi) in expected.items():
        rs = bundle.restrictions[name]
        ivs = inequality_region(ms, rs).inequality_intervals
        if len(ivs) != 1 or abs(ivs[0][0] - lo) > 0.01 or abs(ivs[0][1] - hi) > 0.01:
            failures.append(f"{name}: expected [{lo}, {hi}], got {ivs}")
        # direct recovery: feasible just inside each endpoint, infeasible just
        # outside each endpoint interior to [0, 1)
        for inside in (lo + 0.01, hi - 0.01):
            if not holds_at(rs, sol.psi, bundle.model.Q, inside):
                failures.append(f"{name}: direct recovery infeasible at {inside}")
        for outside in (lo - 0.01, hi + 0.01):
            if 0.0 <= outside < 1.0 and holds_at(rs, sol.psi, bundle.model.Q, outside):
                failures.append(f"{name}: direct recovery feasible at {outside}")
    assert not failures, "; ".join(failures)


def test_criterion_3_linearity_in_parameters(entry):
    """The kernel of the 18x4 design matrix supplies 14 rows that pin the
    discount factor at 0.95 within 1e-4."""
    bundle, _, ms = entry
    rs = bundle.restrictions["linearity"]
    assert rs.n_rows == 14
    ident = equality_identified_set(ms, rs)
    assert len(ident.equality_roots) == 1
    assert ident.equality_roots[0] == pytest.approx(0.95, abs=1e-4)


def test_criterion_4_finite_dependence_variant(entry_fd):
    """Without action feedback the model is one-dependent: the identifying
    polynomials are linear, the homogeneity restriction roots at 0.95 within
    1e-6, the cross-difference restriction carries no identifying content, and
    the joint inequality region is [0.95, 1)."""
    bundle, sol = entry_fd
    model = bundle.model
    pairs = [((0, 0), (0, 9)), ((0, 3), (0, 12)), ((0, 1), (0, 5))]
    cert = check_finite_dependence(model.Q, pairs, rho_max=4)
    assert cert.rho == 1

    # linearity: built at order two, the quadratic coefficient must vanish
    for name in ("homogeneity", "zero_cross", "monotonicity", "concavity",
                 "complementarity"):
        rs = bundle.restrictions[name]
        for i in range(rs.n_rows):
            p = finite_restriction_poly(sol.psi, model.Q, rs.R[i], rs.c[i], rho=2)
            coeffs = p
            scale = max(np.max(np.abs(p)), 1e-300)
            assert np.all(np.abs(coeffs[2:]) <= 1e-10 * scale), f"{name} row {i}"

    def one_dependent_set(rs):
        return finite_equality_set([
            finite_restriction_poly(sol.psi, model.Q, rs.R[i], rs.c[i], rho=1)
            for i in range(rs.n_rows)])

    # With gamma_a_z = 0 no transition row depends on the lagged flag y, so
    # y-differences of the recovered payoff are the same at every discount
    # factor: zero-cross holds identically and identifies nothing.
    rs = bundle.restrictions["zero_cross"]
    direct = [np.max(np.abs(rs.R @ recover_payoffs(sol.psi, model.Q, b) - rs.c))
              for b in np.linspace(0.1, 0.99, 12)]
    assert max(direct) <= 1e-10
    assert one_dependent_set(rs).diagnostics.get("no_identifying_content")
    full = equality_identified_set(master_system(sol.psi, model.Q), rs)
    assert full.diagnostics.get("no_identifying_content")

    # homogeneity carries the content here; direct recovery holds it only at 0.95
    rs = bundle.restrictions["homogeneity"]
    ident = one_dependent_set(rs)
    assert ident.equality_roots == pytest.approx([0.95], abs=1e-6), \
        f"homogeneity roots {ident.equality_roots} ({ident.diagnostics})"
    gap = {b: np.max(np.abs(rs.R @ recover_payoffs(sol.psi, model.Q, b) - rs.c))
           for b in (0.94, 0.95, 0.96)}
    assert gap[0.95] <= 1e-10 and min(gap[0.94], gap[0.96]) >= 1e-6, gap

    ineq = []
    for name in ("monotonicity", "concavity", "complementarity"):
        rsi = bundle.restrictions[name]
        ineq += [finite_restriction_poly(sol.psi, model.Q, rsi.R[i], rsi.c[i], rho=1)
                 for i in range(rsi.n_rows)]
    region = finite_inequality_region(ineq)
    assert len(region.inequality_intervals) == 1
    lo, hi = region.inequality_intervals[0]
    assert lo == pytest.approx(0.95, abs=1e-3)
    assert hi == 1.0


def test_criterion_5_payoff_recovery(entry):
    """Recovery at the true discount factor reproduces the parametric entry
    payoff within 1e-8, and construct-solve-recover is the identity on 50
    random models."""
    bundle, sol, _ = entry
    U = recover_payoffs(sol.psi, bundle.model.Q, 0.95)
    assert np.max(np.abs(U - bundle.u_true)) <= 1e-8

    rng = np.random.default_rng(2024)
    for _ in range(50):
        K = int(rng.integers(2, 4))
        J = int(rng.integers(2, 11))
        u = rng.normal(size=(K, J))
        u[-1] = 0.0
        Q = rng.random((K, J, J)) + 1e-3
        Q /= Q.sum(axis=2, keepdims=True)
        m = SingleAgentModel(u=u, Q=Q, beta=float(rng.uniform(0.0, 0.97)))
        s = solve_bellman(m)
        rec = recover_payoffs(s.psi, m.Q, m.beta)
        assert np.max(np.abs(rec - u[:-1].ravel())) <= 1e-8


def direct_game_payoffs(model, mpe, i, beta):
    """Firm ``i``'s stacked payoff at ``beta`` by linear solves on the
    equilibrium objects (no adjugate or determinant polynomials).  The square
    block is built here: expected-payoff row ``k * m_x + x`` weighs the cells
    ``(k * m_x + x) * n_o + o`` by the rival-profile probabilities, over the
    rows of rivals' lagged-action irrelevance from the loop oracle."""
    K, q1 = model.n_actions, (model.n_actions - 1) * model.m_x
    pi_star, Q_star, _ = expected_objects(model, mpe.P, i)
    psi = mpe.psi[i]
    V = np.linalg.solve(np.eye(model.m_x) - beta * Q_star[K - 1],
                        psi[K - 1] + pi_star[K - 1])
    expected_payoff = np.concatenate([-psi[k] + V - beta * Q_star[k] @ V
                                      for k in range(K - 1)])
    Pbar = np.zeros((q1, model.m_pi))
    Pbar[np.arange(q1)[:, None], np.arange(model.m_pi).reshape(q1, -1)] = np.tile(
        rival_probabilities(model, mpe.P, i), (K - 1, 1))
    R2 = loop_r2(model, i)
    return np.linalg.solve(np.vstack([Pbar, R2]), np.r_[expected_payoff, np.zeros(len(R2))])


def test_criterion_6_game_identification(game):
    """Equilibrium residual at most 1e-10; exchangeability and linearity pin
    each firm's discount factor within 1e-3; adjustment cost alone carries no
    identifying content and, stacked with exchangeability, pins it too."""
    bundle, mpe = game
    model = bundle.model
    assert mpe.residual <= 1e-10
    truth = {0: 0.8, 1: 0.9, 2: 0.95}
    failures = []
    for i in range(3):
        system = build_system(model, mpe, i)
        linear_rows = r3_linear(model, i, bundle.designs[i])
        assert linear_rows.shape[0] == 20
        exch, adj = r3_exchangeability(model, i), r3_adjustment_cost(model, i)
        for name, rows in (("exchangeability", exch),
                           ("linearity", linear_rows),
                           ("adjustment_cost+exchangeability", np.vstack([adj, exch]))):
            ident = identified_set_game(system, rows)
            roots = ident.equality_roots
            if len(roots) != 1 or abs(roots[0] - truth[i]) > 1e-3:
                failures.append(f"firm {i} {name}: {np.round(roots, 5)}")

        # Adjustment-cost rows difference over the firm's own lag, which moves
        # the next state only through rivals' current play; inverting Pbar
        # removes that, so the rows hold at every discount factor.
        ident = identified_set_game(system, adj)
        if ident.equality_roots or not ident.diagnostics.get("no_identifying_content"):
            failures.append(f"firm {i} adjustment_cost not flagged: {ident.equality_roots}")
        grid = np.linspace(0.1, 0.99, 12)
        adj_gap = [np.max(np.abs(adj @ direct_game_payoffs(model, mpe, i, b)))
                   for b in grid]
        off_truth = [np.max(np.abs(exch @ direct_game_payoffs(model, mpe, i, b)))
                     for b in (truth[i] - 0.01, truth[i] + 0.01)]
        if max(adj_gap) > 1e-9 or min(off_truth) < 1e-6:
            failures.append(f"firm {i} direct recovery: adjustment-cost gap "
                            f"{max(adj_gap):.1e}, exchangeability off truth {min(off_truth):.1e}")
    assert not failures, "; ".join(failures)


def test_criterion_7_game_inequality_bounds(game):
    """Own-lag and rival monotonicity regions are uninformative: they cover at
    least [0, 0.99]."""
    bundle, mpe = game
    model = bundle.model
    for i in range(3):
        system = build_system(model, mpe, i)
        for rows, c in (r4_monotone_own_lag(model, i), r4_monotone_rivals(model, i)):
            region = inequality_region_game(system, rows, c)
            assert len(region.inequality_intervals) == 1
            lo, hi = region.inequality_intervals[0]
            assert lo <= 1e-9 and hi >= 0.99


def test_criterion_8_property_suites(entry, entry_fd, game):
    """Cross-cutting invariants: adjugate identity, determinant positivity,
    equilibrium stochasticity and inversion identity, root-finder agreement
    with a dense scan, and finite-dependence root consistency."""
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 1001, endpoint=False)
    for _ in range(25):
        J = int(rng.integers(2, 11))
        Q = rng.random((J, J)) + 1e-3
        Q /= Q.sum(axis=1, keepdims=True)
        adj, det = faddeev_adj_det(Q)
        for beta in rng.random(4):
            adj_beta = np.tensordot(beta ** np.arange(len(adj.coeff_mats)), adj.coeff_mats, axes=1)
            lhs = (np.eye(J) - beta * Q) @ adj_beta
            assert np.max(np.abs(lhs - det(beta) * np.eye(J))) <= 1e-8 * J
        assert np.all(det(grid) > 0.0)

    bundle_g, mpe = game
    assert mpe.P.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
    assert np.all(mpe.P > 0.0)
    assert mpe.psi == pytest.approx(mpe.V[:, None, :] - mpe.v, abs=1e-10)
    for i in range(3):
        _, Q_star, P_minus = expected_objects(bundle_g.model, mpe.P, i)
        assert Q_star.sum(axis=2) == pytest.approx(1.0, abs=1e-10)
        assert P_minus.sum(axis=1) == pytest.approx(1.0, abs=1e-10)

    # root finder against the dense-scan oracle on every scenario system
    bundle, _, ms = entry
    systems = [ms.payoff_polys(rs.R, rs.c)
               for rs in (bundle.restrictions["homogeneity"],
                          bundle.restrictions["zero_cross"],
                          bundle.restrictions["linearity"])]
    sys0 = build_system(bundle_g.model, mpe, 0)
    polys_g = sys0.payoff_polys(r3_exchangeability(bundle_g.model, 0))
    systems.append(polys_g[polys_g.any(axis=1)])
    for polys in systems:
        for p in polys:
            found = roots_in_interval(p).points
            oracle = grid_scan_roots(p)
            assert len(found) == len(oracle), (found, oracle)
            if len(found):
                assert found == pytest.approx(oracle, abs=1e-6)

    # reduced-degree and full-degree root sets agree under one-dependence
    bundle_fd, sol_fd = entry_fd
    ms_fd = master_system(sol_fd.psi, bundle_fd.model.Q)
    rs = bundle_fd.restrictions["homogeneity"]
    full = equality_identified_set(ms_fd, rs)
    low = finite_equality_set([
        finite_restriction_poly(sol_fd.psi, bundle_fd.model.Q, rs.R[i], rs.c[i], rho=1)
        for i in range(rs.n_rows)])
    assert len(full.equality_roots) == len(low.equality_roots) == 1
    assert full.equality_roots[0] == pytest.approx(low.equality_roots[0], abs=1e-7)
