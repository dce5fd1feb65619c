import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from ddcident.betapoly import (
    BetaPoly,
    MatrixPoly,
    faddeev_adj_det,
    roots_in_interval,
    sign_region,
)
from ddcident.errors import UninformativeRestrictionError


def random_stochastic(rng, J):
    Q = rng.random((J, J)) + 1e-3
    return Q / Q.sum(axis=1, keepdims=True)


def grid_scan_roots(p, lo=0.0, hi=1.0, n=100_000):
    """Sign-change scan oracle: brackets every root an eigenvalue method should find."""
    xs = np.linspace(lo, hi, n, endpoint=False)
    vals = p(xs)
    hits = []
    for i in np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]:
        if vals[i] == 0.0 and vals[i + 1] == 0.0:
            continue
        a, b = xs[i], xs[i + 1]
        for _ in range(80):
            m = 0.5 * (a + b)
            if np.sign(p(a)) * np.sign(p(m)) <= 0:
                b = m
            else:
                a = m
        hits.append(0.5 * (a + b))
    return np.array(hits)


class TestFaddeev:
    def test_identity_q_is_eye(self):
        adj, det = faddeev_adj_det(np.eye(2))
        assert np.allclose(det.coeffs, [1.0, -2.0, 1.0])
        assert np.allclose(adj(0.3), 0.7 * np.eye(2))

    def test_swap_matrix(self):
        adj, det = faddeev_adj_det([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(det.coeffs, [1.0, 0.0, -1.0])
        assert np.allclose(adj.coeff_mats[0], np.eye(2))
        assert np.allclose(adj.coeff_mats[1], [[0.0, 1.0], [1.0, 0.0]])

    def test_det_matches_lu_oracle(self):
        rng = np.random.default_rng(42)
        for J in (3, 7, 18):
            Q = random_stochastic(rng, J)
            _, det = faddeev_adj_det(Q)
            for beta in (0.1, 0.5, 0.95):
                assert det(beta) == pytest.approx(np.linalg.det(np.eye(J) - beta * Q), abs=1e-8)

    def test_adjugate_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            J = int(rng.integers(2, 11))
            Q = random_stochastic(rng, J)
            adj, det = faddeev_adj_det(Q)
            assert adj(0.0) == pytest.approx(np.eye(J))
            assert det(0.0) == pytest.approx(1.0)
            for beta in rng.random(10):
                lhs = (np.eye(J) - beta * Q) @ adj(beta)
                assert np.max(np.abs(lhs - det(beta) * np.eye(J))) <= 1e-8 * J

    def test_det_positive_on_unit_interval(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 1001, endpoint=False)
        for J in (2, 5, 10):
            _, det = faddeev_adj_det(random_stochastic(rng, J))
            assert np.all(det(grid) > 0.0)

    def test_det_vanishes_at_one(self):
        rng = np.random.default_rng(4)
        for J in (2, 6, 12):
            _, det = faddeev_adj_det(random_stochastic(rng, J))
            assert abs(det(1.0)) < 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            faddeev_adj_det(np.ones((2, 3)))
        with pytest.raises(ValueError, match="sum"):
            faddeev_adj_det(np.full((2, 2), 0.4))


class TestRoots:
    def test_simple_quadratic(self):
        rs = roots_in_interval(BetaPoly([-0.25, 0.0, 1.0]))
        assert rs.points == pytest.approx([0.5])

    def test_one_excluded_from_half_open_interval(self):
        p = BetaPoly(npoly.polymul([1.0, -1.0], [-0.95, 1.0]))  # (1-b)(b-0.95)
        rs = roots_in_interval(p)
        assert rs.points == pytest.approx([0.95])

    def test_known_factorization(self):
        roots = [0.1, 0.35, 0.6, 0.92]
        c = [1.0]
        for r in roots:
            c = npoly.polymul(c, [-r, 1.0])
        rs = roots_in_interval(BetaPoly(c))
        assert rs.points == pytest.approx(roots, abs=1e-9)
        assert np.all(rs.residuals <= 1e-8)

    def test_matches_grid_scan_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            roots = np.sort(rng.uniform(0.02, 0.98, size=rng.integers(1, 5)))
            if np.any(np.diff(roots) < 1e-3):
                continue
            c = [1.0]
            for r in roots:
                c = npoly.polymul(c, [-r, 1.0])
            p = BetaPoly(c)
            found = roots_in_interval(p).points
            oracle = grid_scan_roots(p)
            assert len(found) == len(oracle)
            assert found == pytest.approx(oracle, abs=1e-6)

    def test_zero_polynomial_signals_uninformative(self):
        with pytest.raises(UninformativeRestrictionError):
            roots_in_interval(BetaPoly([0.0, 0.0]))

    def test_no_roots(self):
        rs = roots_in_interval(BetaPoly([1.0, 0.0, 1.0]))
        assert len(rs) == 0


class TestSignRegion:
    def test_half_line(self):
        sr = sign_region([BetaPoly([-0.5, 1.0])])
        (lo, hi), = sr.intervals
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == 1.0

    def test_two_constraints(self):
        # b >= 0.2 and b <= 0.7
        sr = sign_region([BetaPoly([-0.2, 1.0]), BetaPoly([0.7, -1.0])])
        (lo, hi), = sr.intervals
        assert (lo, hi) == pytest.approx((0.2, 0.7), abs=1e-9)

    def test_empty_region(self):
        sr = sign_region([BetaPoly([-1.0])])
        assert len(sr) == 0

    def test_all_zero_polynomials_cover_domain(self):
        sr = sign_region([BetaPoly.zero()])
        assert sr.intervals == [(0.0, 1.0)]

    def test_disjoint_pieces(self):
        # -(b-0.2)(b-0.5)(b-0.8) >= 0 on [0, 0.2] and [0.5, 0.8]
        c = [-1.0]
        for r in (0.2, 0.5, 0.8):
            c = npoly.polymul(c, [-r, 1.0])
        sr = sign_region([BetaPoly(c)])
        assert len(sr.intervals) == 2
        assert sr.intervals[0] == pytest.approx((0.0, 0.2), abs=1e-8)
        assert sr.intervals[1] == pytest.approx((0.5, 0.8), abs=1e-8)


class TestPolyTypes:
    def test_trailing_zero_trim(self):
        p = BetaPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_matrix_poly_apply(self):
        mp = MatrixPoly([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
        rows = mp.apply([1.0, 2.0])
        assert np.allclose(rows, [[1.0, 2.0], [2.0, 1.0]])

    def test_premultiply_i_minus_beta(self):
        rng = np.random.default_rng(9)
        Q = random_stochastic(rng, 3)
        mp = MatrixPoly(rng.normal(size=(3, 3, 3)))
        out = mp.premultiply_i_minus_beta(Q)
        for beta in (0.0, 0.4, 0.9):
            assert np.allclose(out(beta), (np.eye(3) - beta * Q) @ mp(beta))


class TestScenarioDeterminant:
    def test_entry_transition_det_matches_lu(self):
        from ddcident.scenarios import build_entry_model
        Q2 = build_entry_model().model.Q[1]
        _, det = faddeev_adj_det(Q2)
        assert abs(det(0.5) - np.linalg.det(np.eye(18) - 0.5 * Q2)) <= 1e-8
