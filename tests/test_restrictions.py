import itertools
import json

import numpy as np
import pytest

from ddcident.ddc import master_system
from ddcident.errors import RankDeficiencyError
from ddcident.identify import inequality_region
from ddcident.restrictions import (
    FactoredStates,
    RestrictionSet,
    additive_homogeneous,
    complementarity,
    concavity,
    exclusion,
    homogeneity_known_nu,
    linear_in_parameters,
    log_diff_restriction,
    log_homogeneity,
    monotonicity,
    zero_cross_difference,
)


@pytest.fixture
def ray_states():
    # w grid forms a geometric ray 1, 2, 4 so multiplicative builders apply
    return FactoredStates(axes=("w", "z"), grids=(np.array([1.0, 2.0, 4.0]),
                                                  np.array([0.5, 1.5])), n_actions=2)


@pytest.fixture
def entry_states():
    return FactoredStates(axes=("w", "z", "y"),
                          grids=(np.array([-0.5, 0.0, 0.5]),
                                 np.array([-0.1, 1.0, 2.1]),
                                 np.array([0.0, 1.0])), n_actions=2)


def payoff_on(fs, fn):
    """Evaluate fn over the grid in stacked order for action 0."""
    out = np.zeros(fs.n_columns)
    out[fs.cells(0)] = fn(**dict(zip(fs.axes, np.meshgrid(*fs.grids, indexing="ij"))))
    return out


class TestIndexing:
    def test_first_axis_fastest(self, entry_states):
        fs = entry_states
        assert fs.state_index({"w": 1, "z": 0, "y": 0}) == 1
        assert fs.state_index({"w": 0, "z": 1, "y": 0}) == 3
        assert fs.state_index({"w": 0, "z": 0, "y": 1}) == 9
        assert fs.n_states == 18

    @pytest.mark.parametrize("coords", [{"w": 0.7, "z": 0, "y": 0}, {"w": 0, "z": 2.5, "y": 0},
                                        {"w": -1, "z": 0, "y": 0}, {"w": 0, "z": 0, "y": 2}])
    def test_fractional_or_off_axis_index_rejected(self, entry_states, coords):
        with pytest.raises(IndexError):
            entry_states.state_index(coords)
        with pytest.raises(IndexError):  # not the row of the truncated index
            exclusion(entry_states, (0, coords), (0, {"w": 1, "z": 1, "y": 1}))

    def test_integral_float_index_accepted(self, entry_states):
        assert entry_states.state_index({"w": 1.0, "z": 2.0, "y": np.int64(1)}) == 16

    def test_column_bounds(self, entry_states):
        with pytest.raises(IndexError):
            entry_states.column(1, {"w": 0, "z": 0, "y": 0})  # normalized action

    def test_missing_grid_point(self, entry_states):
        with pytest.raises(ValueError, match="not on the"):
            entry_states.find_on_grid("w", 0.25)


class TestHomogeneity:
    def test_single_ray_row_weights(self, ray_states):
        rs = homogeneity_known_nu(ray_states, 0, base=1.0, lambdas=[2.0], nu=1.0)
        assert rs.n_rows == 2  # one per z point
        row = rs.R[0]
        cols = np.nonzero(row)[0]
        assert len(cols) == 2
        assert sorted(row[cols]) == pytest.approx([-2.0, 1.0])

    def test_annihilates_homogeneous_payoff(self, ray_states):
        u = payoff_on(ray_states, lambda w, z: z * w ** 2)
        rs = homogeneity_known_nu(ray_states, 0, base=1.0, lambdas=[2.0, 4.0], nu=2.0)
        assert rs.n_rows == 4  # J_z * (L-1)
        assert np.max(np.abs(rs.R @ u - rs.c)) < 1e-12

    def test_ray_point_missing(self, ray_states):
        with pytest.raises(ValueError):
            homogeneity_known_nu(ray_states, 0, base=1.0, lambdas=[3.0], nu=1.0)


class TestLogHomogeneity:
    def test_row_count_and_weights(self, ray_states):
        rs = log_homogeneity(ray_states, 0, base=1.0, lambdas=[2.0, 4.0])
        assert rs.n_rows == 2  # J_z * (L-2)
        row = rs.R[0]
        i4 = ray_states.column(0, {"w": 2, "z": 0})
        i2 = ray_states.column(0, {"w": 1, "z": 0})
        i1 = ray_states.column(0, {"w": 0, "z": 0})
        assert row[i4] == pytest.approx(1.0 / np.log(4.0))
        assert row[i2] == pytest.approx(-1.0 / np.log(2.0))
        assert row[i1] == pytest.approx(1.0 / np.log(2.0) - 1.0 / np.log(4.0))

    def test_annihilates_log_of_homogeneous(self, ray_states):
        u = payoff_on(ray_states, lambda w, z: np.log(z * w ** 1.7))
        rs = log_homogeneity(ray_states, 0, base=1.0, lambdas=[2.0, 4.0])
        assert np.max(np.abs(rs.R @ u)) < 1e-12

    def test_negative_control(self, ray_states):
        u = payoff_on(ray_states, lambda w, z: np.exp(w) + z)
        rs = log_homogeneity(ray_states, 0, base=1.0, lambdas=[2.0, 4.0])
        assert np.max(np.abs(rs.R @ u)) > 1e-3

    def test_needs_three_ray_points(self, ray_states):
        with pytest.raises(ValueError, match="insufficient"):
            log_homogeneity(ray_states, 0, base=1.0, lambdas=[2.0])


class TestRayMultipliers:
    """A multiplier of 1 (or one that is not positive) has no ray increment:
    the log weights divide by zero.  Every ray builder rejects it by name."""

    @pytest.mark.parametrize("lambdas", [[1.0, 2.0], [2.0, 1.0], [-1.0, 2.0], [0.0, 2.0]])
    def test_builders_reject(self, ray_states, lambdas):
        bad = next(lam for lam in lambdas if lam <= 0.0 or lam == 1.0)
        for build in (lambda: log_homogeneity(ray_states, 0, 1.0, lambdas),
                      lambda: log_diff_restriction(ray_states, 0, 1.0, lambdas),
                      lambda: log_diff_restriction(ray_states, 0, 1.0, lambdas, nu=2.0),
                      lambda: homogeneity_known_nu(ray_states, 0, 1.0, lambdas, nu=2.0)):
            with pytest.raises(ValueError, match=f"ray multiplier {bad}"):
                build()

    def test_known_degree_with_unit_power(self, ray_states):
        # lam**nu == 1 leaves the weight 1/(lam**nu - 1) undefined
        with pytest.raises(ValueError, match=r"ray multiplier 2.0 has lam\*\*nu == 1"):
            log_diff_restriction(ray_states, 0, 1.0, [2.0, 4.0], nu=0.0)

    def test_valid_multipliers_unchanged(self, ray_states):
        r, _ = log_diff_restriction(ray_states, 0, 1.0, [2.0, 4.0], nu=2.0)
        assert np.all(np.isfinite(r)) and abs(r.sum()) <= 1e-12


class TestAdditiveHomogeneous:
    def test_entry_model_row_count(self, entry_states):
        rs = additive_homogeneous(entry_states, 0, nu=1.0)
        assert rs.n_rows == 6  # (J_w - 2) * J_z * |y|

    def test_annihilates_linear_in_w(self, entry_states):
        u = payoff_on(entry_states,
                      lambda w, z, y: 1.0 + np.exp(z) * (0.5 + w) + (1.0 - y))
        rs = additive_homogeneous(entry_states, 0, nu=1.0)
        assert np.max(np.abs(rs.R @ u)) < 1e-12

    def test_detects_quadratic_term(self, entry_states):
        u = payoff_on(entry_states,
                      lambda w, z, y: 1.0 + np.exp(z) * (0.5 + w) + w ** 2)
        rs = additive_homogeneous(entry_states, 0, nu=1.0)
        assert np.max(np.abs(rs.R @ u)) > 1e-3

    def test_general_degree_on_ray(self, ray_states):
        u = payoff_on(ray_states, lambda w, z: w ** 3 + np.sin(z))
        rs = additive_homogeneous(ray_states, 0, nu=3.0)
        assert np.max(np.abs(rs.R @ u)) < 1e-12

    def test_general_degree_requires_signed_grid(self, entry_states):
        with pytest.raises(ValueError, match="ray"):
            additive_homogeneous(entry_states, 0, nu=2.0)

    def test_needs_three_points(self):
        fs = FactoredStates(axes=("w",), grids=(np.array([0.0, 1.0]),), n_actions=2)
        with pytest.raises(ValueError):
            additive_homogeneous(fs, 0, nu=1.0)


class TestZeroCross:
    def test_entry_model_row_count(self, entry_states):
        rs = zero_cross_difference(entry_states, 0, diff_axis="y", invariant_axes=("w", "z"))
        assert rs.n_rows == 8  # (2-1) * (9-1)

    def test_annihilates_separable_payoff(self, entry_states):
        u = payoff_on(entry_states, lambda w, z, y: np.exp(z) * (0.5 + w) + (1 - y) * 2.0)
        rs = zero_cross_difference(entry_states, 0, diff_axis="y", invariant_axes=("w", "z"))
        assert np.max(np.abs(rs.R @ u)) < 1e-12

    def test_sign_indicator_negative_control(self):
        # exp(w) * 1{z >= 0} has zero cross-differences only when the z points share a sign
        fs = FactoredStates(axes=("w", "z"), grids=(np.array([0.0, 1.0]),
                                                    np.array([-1.0, 1.0])), n_actions=2)
        u = payoff_on(fs, lambda w, z: np.exp(w) * (z >= 0.0))
        rs = zero_cross_difference(fs, 0, diff_axis="w", invariant_axes=("z",))
        assert np.max(np.abs(rs.R @ u)) > 0.5

    def test_requires_two_points_each(self, entry_states):
        with pytest.raises(ValueError):
            zero_cross_difference(entry_states, 0, diff_axis="y", invariant_axes=("w",),
                                  invariant_points=[(0,)])


class TestExclusion:
    def test_degenerate_pair_rejected(self, entry_states):
        pair = (0, {"w": 0, "z": 0, "y": 0})
        with pytest.raises(ValueError):
            exclusion(entry_states, pair, pair)

    def test_normalized_action_drops_term(self, entry_states):
        rs = exclusion(entry_states, (0, {"w": 0, "z": 0, "y": 0}),
                       (1, {"w": 1, "z": 1, "y": 1}))
        assert rs.n_rows == 1
        assert np.count_nonzero(rs.R) == 1

    def test_planted_equality(self, entry_states):
        # a payoff depending only on y takes equal values at two states sharing y
        u = payoff_on(entry_states, lambda w, z, y: 2.0 * y - 1.0)
        rs = exclusion(entry_states, (0, {"w": 0, "z": 0, "y": 1}),
                       (0, {"w": 2, "z": 2, "y": 1}))
        assert abs(rs.R @ u - rs.c) < 1e-12


class TestInequalities:
    def test_monotonicity_counts_and_sign(self, entry_states):
        rs = monotonicity(entry_states, 0, "z")
        assert rs.n_rows == 12  # (J_z-1) * J_w * |y|
        u = payoff_on(entry_states, lambda w, z, y: 3.0 * z)
        assert np.all(rs.R @ u >= 0.0)
        u_dec = payoff_on(entry_states, lambda w, z, y: -z)
        assert np.min(rs.R @ u_dec) < 0.0

    def test_single_gap_axis(self):
        fs = FactoredStates(axes=("w", "z"), grids=(np.array([0.0]),
                                                    np.array([0.0, 1.0])), n_actions=2)
        rs = monotonicity(fs, 0, "z")
        assert rs.n_rows == 1

    def test_concavity_orientation(self, entry_states):
        rs = concavity(entry_states, 0, "z")
        assert rs.n_rows == 6  # (J_z-2) * J_w * |y|
        u_conc = payoff_on(entry_states, lambda w, z, y: -z ** 2)
        assert np.all(rs.R @ u_conc >= -1e-12)
        u_lin = payoff_on(entry_states, lambda w, z, y: 2.0 * z + w)
        assert rs.R @ u_lin == pytest.approx(0.0, abs=1e-12)
        # convex orientation flips
        rs_cvx = concavity(entry_states, 0, "z", convex=True)
        u_cvx = payoff_on(entry_states, lambda w, z, y: np.exp(z))
        assert np.all(rs_cvx.R @ u_cvx >= -1e-12)
        assert np.min(rs.R @ u_cvx) < 0.0

    def test_complementarity_counts_and_flip(self, entry_states):
        rs = complementarity(entry_states, 0, ("w", "z"))
        assert rs.n_rows == 8  # (J_w-1) * (J_z-1) * |y|
        u_comp = payoff_on(entry_states, lambda w, z, y: np.exp(z) * w)
        assert np.all(rs.R @ u_comp >= -1e-12)
        u_sep = payoff_on(entry_states, lambda w, z, y: np.exp(z) + w)
        assert rs.R @ u_sep == pytest.approx(0.0, abs=1e-12)
        rs_sub = complementarity(entry_states, 0, ("w", "z"), direction="substitutes")
        assert np.allclose(rs_sub.R, -rs.R)


class TestLinearInParameters:
    def test_identity_design_has_empty_kernel(self):
        rs = linear_in_parameters(np.eye(4))
        assert rs.n_rows == 0

    def test_kernel_properties(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(18, 4))
        rs = linear_in_parameters(H)
        assert rs.n_rows == 14
        assert np.max(np.abs(rs.R @ H)) <= 1e-10
        assert rs.R @ rs.R.T == pytest.approx(np.eye(14), abs=1e-10)
        theta = rng.normal(size=4)
        assert np.max(np.abs(rs.R @ (H @ theta))) < 1e-10

    def test_rank_deficient_design(self):
        H = np.ones((6, 2))
        with pytest.raises(RankDeficiencyError) as err:
            linear_in_parameters(H)
        assert err.value.rank == 1


class TestLogDiff:
    def test_example_weights(self, ray_states):
        r, c = log_diff_restriction(ray_states, 0, base=1.0, lambdas=[2.0, 4.0])
        assert c == 0.0
        assert abs(r.sum()) < 1e-12
        i1 = ray_states.column(0, {"w": 0, "z": 0})
        i2 = ray_states.column(0, {"w": 1, "z": 0})
        i4 = ray_states.column(0, {"w": 2, "z": 0})
        assert r[i4] == pytest.approx(1.0 / np.log(4.0))
        assert r[i2] == pytest.approx(-1.0 / np.log(2.0))
        assert r[i1] == pytest.approx(1.0 / np.log(2.0) - 1.0 / np.log(4.0))

    def test_homogeneous_payoff_satisfies(self, ray_states):
        u = payoff_on(ray_states, lambda w, z: 2.0 * w ** 1.3)
        u = np.where(u > 0, u, 1.0)
        r, c = log_diff_restriction(ray_states, 0, base=1.0, lambdas=[2.0, 4.0])
        assert abs(r @ np.log(u) - c) < 1e-12

    def test_constant_payoff_is_degenerate_but_consistent(self, ray_states):
        u = np.full(ray_states.n_columns, 3.0)
        r, c = log_diff_restriction(ray_states, 0, base=1.0, lambdas=[2.0, 4.0])
        assert abs(r @ np.log(u) - c) < 1e-12

    def test_known_degree_variant(self, ray_states):
        u = payoff_on(ray_states, lambda w, z: np.exp(0.3 * w ** 2 + z))
        r, c = log_diff_restriction(ray_states, 0, base=1.0, lambdas=[2.0, 4.0], nu=2.0)
        assert abs(r @ np.log(u) - c) < 1e-12


class TestSetPlumbing:
    def test_json_round_trip(self, entry_states):
        rs = monotonicity(entry_states, 0, "z")
        back = RestrictionSet.from_json_dict(json.loads(json.dumps(rs.to_json_dict())))
        assert np.allclose(back.R, rs.R)
        assert np.allclose(back.c, rs.c)
        assert back.kind == rs.kind and back.label == rs.label

    @pytest.mark.parametrize("col,message", [
        (-1, "column -1 out of range for 18"),   # numpy would set column 17
        (18, "column 18 out of range for 18"),
        (True, "cols must be a list of integers"),
        (1.5, "cols must be a list of integers"),
    ])
    def test_decoder_rejects_bad_columns(self, entry_states, col, message):
        d = monotonicity(entry_states, 0, "z").to_json_dict()
        d["rows"][0]["cols"][0] = col
        with pytest.raises(IndexError, match=f"rows\\[0\\]: {message}"):
            RestrictionSet.from_json_dict(d)

    def test_full_row_rank_of_builders(self, entry_states):
        for rs in (additive_homogeneous(entry_states, 0),
                   zero_cross_difference(entry_states, 0, "y", ("w", "z")),
                   monotonicity(entry_states, 0, "z"),
                   concavity(entry_states, 0, "z"),
                   complementarity(entry_states, 0, ("w", "z"))):
            s0 = np.linalg.norm(rs.R, 2)
            assert np.linalg.matrix_rank(rs.R, tol=1e-10 * s0) == rs.n_rows


class TestGridAudits:
    def test_ray_homogeneity_rejected_on_grid_through_zero(self):
        from ddcident.scenarios import build_entry_model
        fs = build_entry_model().states
        # the w grid passes through zero, so no multiplicative ray exists
        with pytest.raises(ValueError, match="not on the"):
            homogeneity_known_nu(fs, 0, base=-0.5, lambdas=[2.0], nu=1.0)


# Three actions (the last normalized) on four axes with uneven spacing; the d
# axis is also a geometric ray from 0.5, so the multiplicative builders apply.
GRID4 = FactoredStates(axes=("a", "b", "c", "d"),
                       grids=(np.array([-1.0, -0.2, 0.5, 2.0]), np.array([0.1, 0.35, 1.2]),
                              np.array([-3.0, 1.5]), np.array([0.5, 1.0, 2.0, 4.0])), n_actions=3)
PAIRS4 = list(itertools.permutations(GRID4.axes, 2))


def payoff_along(fs, action, axes, fn):
    """Stacked payoffs: ``fn(*x, o)`` on ``action``'s cells, where ``x`` are
    the grid values on ``axes`` and ``o`` is a positive function of the other
    axes; seeded noise on every other action's cells."""
    u = np.random.default_rng(7).normal(size=fs.n_columns)
    vals = dict(zip(fs.axes, np.meshgrid(*fs.grids, indexing="ij")))
    o = 1.5 + np.sin(sum((i + 1.3) * vals[a] for i, a in enumerate(fs.axes) if a not in axes))
    u[fs.cells(action)] = fn(*(vals[a] for a in axes), o)
    return u


def holds(rs, u, tol=1e-12):
    g = rs.R @ u - rs.c
    return bool(np.max(np.abs(g)) <= tol) if rs.kind == "eq" else bool(np.min(g) >= -tol)


# one-axis builders: (build, a payoff with the property, one without it)
ONE_AXIS = {
    "increasing": (lambda fs, k, ax: monotonicity(fs, k, ax),
                   lambda x, o: o * np.exp(x) + o ** 2, lambda x, o: -o * x),
    "decreasing": (lambda fs, k, ax: monotonicity(fs, k, ax, direction="decreasing"),
                   lambda x, o: o ** 2 - o * x, lambda x, o: o * x),
    "concave": (lambda fs, k, ax: concavity(fs, k, ax),
                lambda x, o: o ** 3 - o * x ** 2, lambda x, o: o * x ** 2),
    "convex": (lambda fs, k, ax: concavity(fs, k, ax, convex=True),
               lambda x, o: o * np.exp(x), lambda x, o: -o * x ** 2),
    "additive_hom": (lambda fs, k, ax: additive_homogeneous(fs, k, axis=ax),
                     lambda x, o: o + o ** 2 * x, lambda x, o: o * x ** 2),
    "zero_cross_rest": (lambda fs, k, ax: zero_cross_difference(fs, k, ax),
                        lambda x, o: np.exp(x) + o, lambda x, o: o * x),
}

# two-axis builders on an ordered pair (p, q)
TWO_AXES = {
    "complements": (lambda fs, k, p, q: complementarity(fs, k, (p, q)),
                    lambda xp, xq, o: o * xp * xq + np.sin(xp), lambda xp, xq, o: -o * xp * xq),
    "substitutes": (lambda fs, k, p, q: complementarity(fs, k, (p, q), direction="substitutes"),
                    lambda xp, xq, o: np.cos(xq) - o * xp * xq, lambda xp, xq, o: o * xp * xq),
    "zero_cross": (lambda fs, k, p, q: zero_cross_difference(fs, k, p, invariant_axes=(q,)),
                   lambda xp, xq, o: o * np.exp(xp) + o ** 2 * np.sin(xq),
                   lambda xp, xq, o: o * xp * xq),
}

# builders along the ray axis d
RAY = {
    "homogeneity_nu2": (lambda fs, k: homogeneity_known_nu(fs, k, 0.5, [2.0, 4.0, 8.0], 2.0, axis="d"),
                        lambda x, o: o * x ** 2, lambda x, o: o * x ** 2 + 1.0),
    "log_homogeneity": (lambda fs, k: log_homogeneity(fs, k, 0.5, [2.0, 4.0, 8.0], axis="d"),
                        lambda x, o: np.log(o * x ** 1.7), lambda x, o: o * x),
    "additive_hom_nu2": (lambda fs, k: additive_homogeneous(fs, k, nu=2.0, axis="d"),
                         lambda x, o: o + o ** 2 * x ** 2, lambda x, o: o * x ** 3),
}


class TestBuildersOnFourAxes:
    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("axes", [(), ("b",), ("d", "a"), ("c", "a", "d"), ("d", "c", "b", "a")])
    def test_cells_order_is_the_row_order(self, action, axes):
        fs = GRID4
        rest = [a for a in fs.axes if a not in axes]
        expected = [fs.column(action, dict(zip(rest + list(axes), combo)))
                    for combo in itertools.product(*(range(len(fs.grid(a))) for a in rest + list(axes)))]
        assert fs.cells(action, *axes).ravel().tolist() == expected

    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("axis", GRID4.axes)
    @pytest.mark.parametrize("name", sorted(ONE_AXIS))
    def test_one_axis_rows(self, action, axis, name):
        build, good, bad = ONE_AXIS[name]
        fs = GRID4
        if name in ("concave", "convex", "additive_hom") and len(fs.grid(axis)) < 3:
            with pytest.raises(ValueError, match="at least 3"):
                build(fs, action, axis)
            return
        rs = build(fs, action, axis)
        assert rs.R.shape[1] == fs.n_columns and rs.n_rows > 0
        assert holds(rs, payoff_along(fs, action, (axis,), good))
        assert not holds(rs, payoff_along(fs, action, (axis,), bad))
        # rows only touch the requested action's columns
        assert not rs.R[:, np.setdiff1d(np.arange(fs.n_columns), fs.cells(action))].any()

    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("pair", PAIRS4)
    @pytest.mark.parametrize("name", sorted(TWO_AXES))
    def test_two_axis_rows(self, action, pair, name):
        build, good, bad = TWO_AXES[name]
        fs = GRID4
        rs = build(fs, action, *pair)
        assert rs.n_rows > 0
        assert holds(rs, payoff_along(fs, action, pair, good))
        assert not holds(rs, payoff_along(fs, action, pair, bad))

    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("name", sorted(RAY))
    def test_ray_rows(self, action, name):
        build, good, bad = RAY[name]
        rs = build(GRID4, action)
        assert rs.n_rows > 0
        assert holds(rs, payoff_along(GRID4, action, ("d",), good))
        assert not holds(rs, payoff_along(GRID4, action, ("d",), bad))

    @pytest.mark.parametrize("action", [0, 1])
    def test_log_diff_weights(self, action):
        r, c = log_diff_restriction(GRID4, action, 0.5, [4.0, 8.0], axis="d")
        # squared, so the noise on the other cells has a logarithm too
        assert abs(r @ np.log(payoff_along(GRID4, action, ("d",), lambda x, o: o * x ** 1.3) ** 2) - c) \
            < 1e-12
        assert abs(r @ np.log(payoff_along(GRID4, action, ("d",), lambda x, o: o * np.exp(x)) ** 2) - c) \
            > 1e-3
        # every ray point is checked, the third and later ones included
        with pytest.raises(ValueError, match="not on the"):
            log_diff_restriction(GRID4, action, 0.5, [4.0, 8.0, 16.0], axis="d")

    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("pair", PAIRS4)
    def test_bad_coordinates_raise_index_error(self, action, pair):
        fs = GRID4
        p, q = pair
        n_p, n_q = len(fs.grid(p)), len(fs.grid(q))
        for pts in ([0, -1], [0, n_p], [-n_p, 0], [0, 0.5]):
            with pytest.raises(IndexError):
                zero_cross_difference(fs, action, p, invariant_axes=(q,), diff_points=pts)
        for pts in ([(0,), (-1,)], [(0,), (n_q,)], [(n_q,), (0,)], [(0,), (0.5,)]):
            with pytest.raises(IndexError):
                zero_cross_difference(fs, action, p, invariant_axes=(q,), invariant_points=pts)
        # a flat list over two axes is not regrouped into index pairs
        with pytest.raises(ValueError):
            zero_cross_difference(fs, action, p, invariant_axes=tuple(a for a in fs.axes if a != p),
                                  invariant_points=[0, 0, 1, 0, 0, 1])
        corner = {a: 0 for a in fs.axes}
        for i in (-1, n_p):
            with pytest.raises(IndexError):
                exclusion(fs, (action, {**corner, p: i}), (action, corner))
            with pytest.raises(IndexError):
                exclusion(fs, (action, corner), (1 - action, {**corner, p: i}))


class TestEmptyAndRepeatedAxes:
    def test_one_point_axis_gives_zero_rows(self):
        fs = FactoredStates(axes=("w", "z"), grids=(np.array([0.0]), np.array([0.0, 1.0])),
                            n_actions=2)
        Q = np.array([[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]])
        ms = master_system(np.array([[0.3, -0.2], [0.1, 0.4]]), Q)
        for rs in (monotonicity(fs, 0, "w"), complementarity(fs, 0, ("w", "z")),
                   complementarity(fs, 0, ("z", "w"))):
            assert rs.R.shape == (0, fs.n_columns)
            assert inequality_region(ms, rs).inequality_intervals == [(0.0, 1.0)]

    def test_repeated_axis_is_named(self, entry_states):
        with pytest.raises(ValueError, match="'w'"):
            complementarity(entry_states, 0, ("w", "w"))
        with pytest.raises(ValueError, match="'y'"):
            zero_cross_difference(entry_states, 0, "y", invariant_axes=("y", "w"))
        with pytest.raises(ValueError, match="'z'"):
            zero_cross_difference(entry_states, 0, "y", invariant_axes=("z", "w", "z"))
