from unittest import mock

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ddcident.betapoly import (
    LEADING_COEFF_TOL,
    ROOT_CLUSTER_TOL,
    ROOT_IMAG_TOL,
    ROOT_RESIDUAL_TOL,
    SIGN_GRID_POINTS,
    SIGN_REFINE_TOL,
    MatrixPoly,
    crossing,
    faddeev_adj_det,
    polyval_rows,
    roots_in_interval,
    sign_region,
)
from ddcident import identify
from ddcident.ddc import MasterSystem
from ddcident.identify import solve_log_diff


def at(mp, beta):
    """Value of a MatrixPoly at one discount factor."""
    return np.tensordot(beta ** np.arange(len(mp.coeff_mats)), mp.coeff_mats, axes=1)


def random_stochastic(rng, J):
    Q = rng.random((J, J)) + 1e-3
    return Q / Q.sum(axis=1, keepdims=True)


def grid_scan_roots(coeffs, lo=0.0, hi=1.0, n=100_000):
    """Sign-change scan oracle: brackets every root an eigenvalue method should find."""
    p = npoly.Polynomial(coeffs)
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
        assert np.allclose(det.coef, [1.0, -2.0, 1.0])
        assert np.allclose(at(adj, 0.3), 0.7 * np.eye(2))

    def test_swap_matrix(self):
        adj, det = faddeev_adj_det([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(det.coef, [1.0, 0.0, -1.0])
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
            assert at(adj, 0.0) == pytest.approx(np.eye(J))
            assert det(0.0) == pytest.approx(1.0)
            for beta in rng.random(10):
                lhs = (np.eye(J) - beta * Q) @ at(adj, beta)
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
        rs = roots_in_interval([-0.25, 0.0, 1.0])
        assert rs.points == pytest.approx([0.5])

    def test_one_excluded_from_half_open_interval(self):
        p = npoly.polymul([1.0, -1.0], [-0.95, 1.0])  # (1-b)(b-0.95)
        rs = roots_in_interval(p)
        assert rs.points == pytest.approx([0.95])

    def test_known_factorization(self):
        roots = [0.1, 0.35, 0.6, 0.92]
        c = [1.0]
        for r in roots:
            c = npoly.polymul(c, [-r, 1.0])
        rs = roots_in_interval(c)
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
            p = c
            found = roots_in_interval(p).points
            oracle = grid_scan_roots(p)
            assert len(found) == len(oracle)
            assert found == pytest.approx(oracle, abs=1e-6)

    def test_zero_polynomial_signals_uninformative(self):
        rs = roots_in_interval([0.0, 0.0])
        assert rs.uninformative and len(rs) == 0

    def test_no_roots(self):
        rs = roots_in_interval([1.0, 0.0, 1.0])
        assert len(rs) == 0

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.8, 0.91, 0.95, 0.96, 0.98])
    def test_exact_double_root_is_kept(self, r):
        # the companion root is exact, and p and p' there are rounding noise:
        # a Newton step divides one by the other and throws the root off
        rs = roots_in_interval(npoly.polyfromroots([r, r]))
        assert rs.points == pytest.approx([r], abs=1e-15)

    def test_double_root_lifted_off_the_axis_has_no_root(self):
        assert len(roots_in_interval(npoly.polyfromroots([0.5, 0.5]) + [1e-6, 0.0, 0.0])) == 0

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="row 0 is not finite: nan"):
            roots_in_interval([np.nan, 1.0])


class TestSignRegion:
    def test_half_line(self):
        sr = sign_region([[-0.5, 1.0]])
        (lo, hi), = sr
        assert lo == pytest.approx(0.5, abs=1e-9)
        assert hi == 1.0

    def test_two_constraints(self):
        # b >= 0.2 and b <= 0.7
        sr = sign_region([[-0.2, 1.0], [0.7, -1.0]])
        (lo, hi), = sr
        assert (lo, hi) == pytest.approx((0.2, 0.7), abs=1e-9)

    def test_empty_region(self):
        sr = sign_region([[-1.0]])
        assert len(sr) == 0

    def test_no_polynomials_cover_domain(self):
        assert sign_region(np.zeros((0, 1))) == [(0.0, 1.0)]

    def test_all_zero_polynomials_cover_domain(self):
        sr = sign_region([[0.0]])
        assert sr == [(0.0, 1.0)]

    @pytest.mark.parametrize("C", [[[np.nan, 1.0]], [[1.0, np.inf]]])
    def test_non_finite_coefficient_rejected(self, C):
        with pytest.raises(ValueError, match="row 0 is not finite"):
            sign_region(C)

    def test_non_finite_row_is_named(self):
        with pytest.raises(ValueError, match="row 1 is not finite: -inf multiplies beta\\*\\*2"):
            sign_region([[1.0, 0.0, 0.0], [1.0, 0.0, -np.inf]])

    def test_disjoint_pieces(self):
        # -(b-0.2)(b-0.5)(b-0.8) >= 0 on [0, 0.2] and [0.5, 0.8]
        c = [-1.0]
        for r in (0.2, 0.5, 0.8):
            c = npoly.polymul(c, [-r, 1.0])
        sr = sign_region([c])
        assert len(sr) == 2
        assert sr[0] == pytest.approx((0.0, 0.2), abs=1e-8)
        assert sr[1] == pytest.approx((0.5, 0.8), abs=1e-8)


class TestPolyTypes:
    @pytest.mark.parametrize("degree", [0, 3, 144])
    def test_polyval_rows_matches_polyval_bitwise(self, degree):
        C = np.random.default_rng(degree).normal(size=(5, degree + 1))
        xs = np.arange(2001) / 2001
        assert np.array_equal(polyval_rows(C, xs), np.stack([npoly.polyval(xs, c) for c in C]))
        assert np.array_equal(polyval_rows(C, xs[7]), [npoly.polyval(xs[7], c) for c in C])

    def test_matrix_poly_apply(self):
        mp = MatrixPoly([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
        rows = mp.apply([1.0, 2.0])
        assert np.allclose(rows, [[1.0, 2.0], [2.0, 1.0]])


class TestScenarioDeterminant:
    def test_entry_transition_det_matches_lu(self):
        from ddcident.scenarios import build_entry_model
        Q2 = build_entry_model().model.Q[1]
        _, det = faddeev_adj_det(Q2)
        assert abs(det(0.5) - np.linalg.det(np.eye(18) - 0.5 * Q2)) <= 1e-8


def bisect_oracle(f, a, b):
    """Sequential bisection, one call of ``f`` per level."""
    fa = f(a) >= 0.0
    for _ in range(200):
        if b - a <= SIGN_REFINE_TOL:
            break
        m = 0.5 * (a + b)
        if (f(m) >= 0.0) == fa:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def horner_sign_region_oracle(C):
    """The sign-region scan with the grid's mask from Horner's rule and each
    flip refined by sequential bisection, and whether a row is within the
    rounding bound of its evaluation at a grid point."""
    C = np.asarray(C, dtype=float)
    scale = np.max(np.abs(C), axis=1)
    keep = scale != 0.0
    C = C[keep] / scale[keep, None]
    if not C.size:
        return [(0.0, 1.0)], False

    def slack(x):
        return np.min(polyval_rows(C, x), axis=0)

    xs = np.arange(SIGN_GRID_POINTS) / SIGN_GRID_POINTS
    vals = polyval_rows(C, xs)
    noisy = bool(np.any(np.abs(vals) < 4 * C.shape[1] * np.finfo(float).eps * polyval_rows(np.abs(C), xs)))
    feas = np.min(vals, axis=0) >= 0.0
    ends = [bisect_oracle(slack, xs[i], xs[i + 1]) for i in np.flatnonzero(feas[1:] != feas[:-1])]
    if feas[0]:
        ends.insert(0, 0.0)
    if feas[-1]:
        ends.append(1.0)
    return [(float(lo), float(hi)) for lo, hi in zip(ends[::2], ends[1::2])], noisy


def two_polyval_roots_oracle(p):
    """Roots on [0, 1) with Newton steps that evaluate p and p' in two
    ``polyval`` calls and always step, and whether any step met a derivative
    within the rounding bound of its evaluation."""
    p = np.asarray(p, dtype=float)
    c = p / np.max(np.abs(p))
    c = c[: np.flatnonzero(np.abs(c) > LEADING_COEFF_TOL)[-1] + 1]
    if len(c) == 1:
        return np.empty(0), np.empty(0), False
    cand = npoly.polyroots(c)
    dc = npoly.polyder(c)
    noisy = False
    for _ in range(8):
        val = npoly.polyval(cand, c)
        der = npoly.polyval(cand, dc)
        bound = 4 * len(c) * np.finfo(float).eps * npoly.polyval(np.abs(cand), np.abs(dc))
        noisy |= bool(np.any(np.abs(der) <= bound))
        cand = cand - np.where(der != 0.0, val / np.where(der == 0.0, 1.0, der), 0.0)
    real = cand[np.abs(cand.imag) <= ROOT_IMAG_TOL].real
    real = real[(real >= -ROOT_CLUSTER_TOL) & (real < 1.0 - ROOT_CLUSTER_TOL)]
    real = np.clip(real, 0.0, None)
    real = real[np.abs(npoly.polyval(real, c)) <= ROOT_RESIDUAL_TOL]
    if real.size == 0:
        return np.empty(0), np.empty(0), noisy
    real.sort()
    clusters = [[real[0]]]
    for r in real[1:]:
        if r - clusters[-1][-1] <= ROOT_CLUSTER_TOL:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    pts = np.array([np.mean(cl) for cl in clusters])
    return pts, np.abs(npoly.polyval(pts, c)), noisy


@st.composite
def coefficient_rows(draw):
    """A nonzero row: planted roots in ``[-0.2, 1.2]`` times a scale, or
    random coefficients."""
    if draw(st.booleans()):
        roots = draw(st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=7))
        return npoly.polyfromroots(roots) * draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    c = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8)))
    assume(c.any())
    return c


@st.composite
def stacked_rows(draw, max_rows=4):
    """One to ``max_rows`` rows of ``coefficient_rows``, padded to one width."""
    rows = draw(st.lists(coefficient_rows(), min_size=1, max_size=max_rows))
    width = max(len(r) for r in rows)
    return np.array([np.pad(r, (0, width - len(r))) for r in rows])


class TestReplacedArithmetic:
    """The batched kernels return the bits of the per-point arithmetic they
    replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(C=stacked_rows())
    def test_crossing_matches_sequential_bisection_on_slack(self, C):
        C = C / np.max(np.abs(C), axis=1)[:, None]

        def slack(x):
            return np.min(polyval_rows(C, x), axis=0)

        xs = np.arange(101) / 101  # wider brackets than the sign scan's: more levels
        above = slack(xs) >= 0.0
        for i in np.flatnonzero(above[1:] != above[:-1]):
            assert crossing(slack, xs[i], xs[i + 1]) == bisect_oracle(slack, xs[i], xs[i + 1])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(G=stacked_rows().filter(lambda G: len(G) > 1),
           w=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3), c=st.floats(-2.0, 2.0))
    @example(G=np.array([[0.0, 2.0], [1.0, 0.0]]), w=[0.21875, 0.0, 0.0], c=0.0)  # a root on a midpoint
    def test_log_diff_matches_sequential_bisection(self, G, w, c):
        # the log objective solve_log_diff bisects, NaN where a component is
        # nonpositive, on G's rows as the determinant-scaled payoffs
        r = np.append(w[: len(G) - 1], -sum(w[: len(G) - 1]))
        ms = MasterSystem(det=np.zeros(G.shape[1]), m=MatrixPoly(np.zeros((1, 1, 1))), g=G, noise=0.0)

        def run():
            try:
                rs = solve_log_diff(ms, r, c)
            except ValueError as err:
                return str(err)
            return rs.points.tobytes(), rs.residuals.tobytes(), rs.uninformative

        got = run()
        with mock.patch.object(identify, "crossing", bisect_oracle):
            assert run() == got

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(C=stacked_rows())
    def test_sign_region_matches_horner_scan(self, C):
        # where a row is rounding noise on the grid, as along a multiple
        # root, explicit powers and Horner's rule may read different signs
        intervals, noisy = horner_sign_region_oracle(C)
        assume(not noisy)
        assert sign_region(C) == intervals

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=coefficient_rows())
    def test_roots_match_two_polyval_newton(self, p):
        pts, res, noisy = two_polyval_roots_oracle(p)
        assume(not noisy)
        rs = roots_in_interval(p)
        assert rs.points.tobytes() == pts.tobytes()
        assert rs.residuals.tobytes() == res.tobytes()
