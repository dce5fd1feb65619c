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


def exclusion_column(fs, action, coords):
    """The one column of the exclusion row of ``(action, coords)`` against
    the normalized action."""
    (col,) = np.flatnonzero(exclusion(fs, (action, coords), (fs.n_actions - 1, coords)).R[0])
    return int(col)


class TestIndexing:
    """Payoff columns, as ``exclusion`` and ``cells`` index them."""

    def test_first_axis_fastest(self, entry_states):
        fs = entry_states
        for coords, col in (({"w": 1, "z": 0, "y": 0}, 1), ({"w": 0, "z": 1, "y": 0}, 3),
                            ({"w": 0, "z": 0, "y": 1}, 9)):
            assert exclusion_column(fs, 0, coords) == col
            assert fs.cells(0)[coords["w"], coords["z"], coords["y"]] == col
        assert fs.n_states == 18

    @pytest.mark.parametrize("coords", [{"w": 0.7, "z": 0, "y": 0}, {"w": 0, "z": 2.5, "y": 0},
                                        {"w": -1, "z": 0, "y": 0}, {"w": 0, "z": 0, "y": 2},
                                        {"w": 0, "z": True, "y": 0}, {"w": 0, "z": "1", "y": 0}])
    def test_fractional_or_off_axis_index_rejected(self, entry_states, coords):
        other = {"w": 1, "z": 1, "y": 1}
        with pytest.raises(IndexError):  # not the row of the truncated index
            exclusion(entry_states, (0, coords), (0, other))
        with pytest.raises(IndexError):
            exclusion(entry_states, (0, other), (0, coords))

    def test_integral_float_index_accepted(self, entry_states):
        assert exclusion_column(entry_states, 0, {"w": 1.0, "z": 2.0, "y": np.int64(1)}) == 16
        assert exclusion_column(entry_states, 0.0, {"w": 1, "z": 2, "y": 1}) == 16  # a float column once

    def test_column_bounds(self, entry_states):
        coords = {"w": 0, "z": 0, "y": 0}
        with pytest.raises(IndexError):  # normalized action
            exclusion(entry_states, (1, coords), (0, {"w": 1, "z": 0, "y": 0}))
        with pytest.raises(IndexError):
            entry_states.cells(1)

    @pytest.mark.parametrize("action", [True, False, 0.5, "1", -1, 2])
    def test_action_that_is_not_an_index_rejected(self, action):
        # K = 3: a bool read as 0 or 1, a fraction shifted every column, a
        # string read as its digits
        fs = FactoredStates(axes=("w",), grids=(np.array([0.0, 1.0]),), n_actions=3)
        with pytest.raises(IndexError):
            fs.cells(action)
        with pytest.raises(IndexError):  # not action 1's rows
            monotonicity(fs, action, "w")

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
        i1, i2, i4 = ray_states.cells(0)[:, 0]
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


class TestDegreeAndDirection:
    """A degree that is not finite, or a direction off the list, is named."""

    @pytest.mark.parametrize("nu", [np.nan, np.inf])
    def test_non_finite_degree_named(self, ray_states, nu):
        # a NaN degree once gave rows of NaN on a ray grid (the CLI test covers
        # a grid through zero, which was blamed instead)
        for build in (lambda: additive_homogeneous(ray_states, 0, nu=nu),
                      lambda: homogeneity_known_nu(ray_states, 0, 1.0, [2.0, 4.0], nu=nu),
                      lambda: log_diff_restriction(ray_states, 0, 1.0, [2.0, 4.0], nu=nu)):
            with pytest.raises(ValueError, match=f"homogeneity degree nu = {nu} is not finite"):
                build()

    def test_bool_degree_named(self, ray_states):
        # a parsed "true" once ran as degree 1, labelled nu=True
        for build in (lambda: additive_homogeneous(ray_states, 0, nu=True),
                      lambda: homogeneity_known_nu(ray_states, 0, 1.0, [2.0, 4.0], nu=True),
                      lambda: log_diff_restriction(ray_states, 0, 1.0, [2.0, 4.0], nu=False)):
            with pytest.raises(ValueError, match="homogeneity degree nu = (True|False) is not a number"):
                build()

    @pytest.mark.parametrize("convex", ["no", 0, 1.0, None])
    def test_non_bool_convex_named(self, entry_states, convex):
        # any truthy value once ran as convexity
        with pytest.raises(ValueError, match=f"convex must be true or false, not {convex!r}"):
            concavity(entry_states, 0, "z", convex=convex)

    @pytest.mark.parametrize("build,accepted", [
        (lambda fs, d: monotonicity(fs, 0, "z", direction=d), "'increasing' or 'decreasing'"),
        (lambda fs, d: complementarity(fs, 0, ("w", "z"), direction=d), "'complements' or 'substitutes'"),
    ])
    @pytest.mark.parametrize("direction", ["x", "Increasing", None])
    def test_bad_direction_lists_the_accepted_values(self, entry_states, build, accepted, direction):
        # a KeyError naming only the bad value once
        with pytest.raises(ValueError, match=f"direction must be {accepted}, not {direction!r}"):
            build(entry_states, direction)


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

    @pytest.mark.parametrize("points", [{"diff_points": 0}, {"invariant_points": 0}])
    def test_a_scalar_is_one_point(self, entry_states, points):
        # "'int' object is not iterable" once
        with pytest.raises(ValueError, match="need at least two points"):
            zero_cross_difference(entry_states, 0, diff_axis="y", invariant_axes=("w",), **points)


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
        i1, i2, i4 = ray_states.cells(0)[:, 0]
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

    @pytest.mark.parametrize("lambdas", [[2.0], [2.0, 4.0, 8.0]])
    def test_exactly_two_multipliers(self, lambdas):
        # a third multiplier was checked against the grid, then left out of r
        fs = FactoredStates(axes=("w",), grids=(np.array([1.0, 2.0, 4.0, 8.0]),), n_actions=2)
        with pytest.raises(ValueError, match=f"exactly two ray multipliers, got {len(lambdas)}"):
            log_diff_restriction(fs, 0, 1.0, lambdas)

    @pytest.mark.parametrize("axis", ["w", "z"])
    def test_unknown_degree_is_the_first_log_homogeneity_row(self, axis):
        fs = FactoredStates(axes=("w", "z"), grids=(np.array([1.0, 2.0, 4.0]), np.array([0.5, 1.0, 2.0])),
                            n_actions=3)
        for action in (0, 1):
            base, lambdas = (1.0, [2.0, 4.0]) if axis == "w" else (0.5, [4.0, 2.0])
            r, _ = log_diff_restriction(fs, action, base, lambdas, axis=axis)
            assert r.tobytes() == log_homogeneity(fs, action, base, lambdas, axis=axis).R[0].tobytes()


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

    @pytest.mark.parametrize("cols,vals,message", [
        ([0, 1], [2.0], "1 vals for 2 cols"),                 # numpy would set both columns
        ([0, 0], [1.0, -1.0], "column 0 is given more than once"),  # the last write would win
        ([0], ["3"], "vals must be a list of numbers"),       # numpy would read 3.0
        ([0], [True], "vals must be a list of numbers"),      # and 1.0
        ([0], 2.0, "vals must be a list of numbers"),
        ([0], [float("nan")], "vals must be a list of numbers, all finite"),  # once read as NaN
        ([0], [float("inf")], "vals must be a list of numbers, all finite"),
        ([0], [-float("inf")], "vals must be a list of numbers, all finite"),
        ([0], [10 ** 400], "vals must be a list of numbers, all finite"),     # an OverflowError once
    ])
    def test_decoder_rejects_bad_values(self, entry_states, cols, vals, message):
        d = monotonicity(entry_states, 0, "z").to_json_dict()
        d["rows"][0].update(cols=cols, vals=vals)
        with pytest.raises(ValueError, match=f"rows\\[0\\]: {message}"):
            RestrictionSet.from_json_dict(d)

    @pytest.mark.parametrize("c", [
        [0.5],             # once broadcast to every row
        "3",               # once read as 3.0
        True,              # and as 1.0
        ["1", "2", "3"],
        [True, 1, 2],
        [0.0, float("nan"), 0.0],
        [0.0, 0.0, float("inf")],
        [0.0, 0.0, 0.0, 0.0],
    ])
    def test_decoder_rejects_bad_targets(self, c):
        d = RestrictionSet(np.eye(3, 18), 0.0, "ge", "r").to_json_dict()
        d["c"] = c
        with pytest.raises(ValueError, match=r"c must be a list of numbers, all finite, one per row \(3\)"):
            RestrictionSet.from_json_dict(d)

    @pytest.mark.parametrize("c,message", [
        ([0.5], r"c must be a number or one number per row \(3\), not float64 of shape \(1,\)"),  # once broadcast
        ([0.0] * 4, r"one number per row \(3\), not float64 of shape \(4,\)"),
        ([[0.0] * 3], r"one number per row \(3\), not float64 of shape \(1, 3\)"),
        ("3", r"one number per row \(3\), not <U1 of shape \(\)"),            # once read as 3.0
        ([True, False, True], r"one number per row \(3\), not bool"),           # once 1.0 and 0.0
        (float("nan"), r"c = nan is not finite"),                              # once accepted
        ([0.0, float("nan"), 0.0], r"c\[1\] = nan is not finite"),
        ([0.0, 0.0, -float("inf")], r"c\[2\] = -inf is not finite"),
    ])
    def test_constructor_rejects_bad_targets(self, c, message):
        with pytest.raises(ValueError, match=message):
            RestrictionSet(np.eye(3), c, "ge")

    def test_callers_arrays_stay_writable(self):
        # the set once made the caller's own R read-only
        R, c = np.eye(3), np.zeros(3)
        rs = RestrictionSet(R, c, "ge")
        assert R.flags.writeable and c.flags.writeable
        assert not (rs.R.flags.writeable or rs.c.flags.writeable)
        R[0, 0] = 2.0
        assert rs.R[0, 0] == 1.0

    def test_constructor_rejects_a_bool_among_numbers(self):
        # numpy once read the list as [[1.0, 0.5]]
        with pytest.raises(ValueError, match=r"R\[0, 0\] = True is not a number"):
            RestrictionSet([[True, 0.5]], 0.0, "ge")
        with pytest.raises(ValueError, match=r"c\[1\] = False is not a number"):
            RestrictionSet(np.eye(2), [0.5, False], "ge")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite_rows(self, bad):
        R = np.eye(3)
        R[1, 2] = bad  # once accepted
        with pytest.raises(ValueError, match=rf"R\[1, 2\] = {bad} is not finite"):
            RestrictionSet(R, 0.0, "ge")

    @pytest.mark.parametrize("c,expected", [(0.5, [0.5] * 3), (0, [0.0] * 3), ([1, 2, 3], [1.0, 2.0, 3.0])])
    def test_constructor_keeps_a_scalar_or_one_target_per_row(self, c, expected):
        rs = RestrictionSet(np.eye(3), c, "ge")
        assert rs.c.dtype == float and rs.c.tolist() == expected

    @pytest.mark.parametrize("edit", [
        {"kind": "inequality"}, {"kind": None}, {"kind": ["equality"]},  # a KeyError or TypeError once
        {"n_columns": 18.0}, {"n_columns": True}, {"rows": {}}, {"label": 5}, None,
    ])
    def test_decoder_rejects_bad_layout(self, entry_states, edit):
        d = {**monotonicity(entry_states, 0, "z").to_json_dict(), **edit} if edit else []
        with pytest.raises(ValueError, match="a restriction must be an object|n_columns must be an integer"):
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
        stride = dict(zip(fs.axes, np.cumprod((1,) + fs.shape[:-1])))  # first axis fastest
        expected = [action * fs.n_states + sum(i * stride[a] for a, i in zip(rest + list(axes), combo))
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
        # every ray point is checked, and the weights take exactly two multipliers
        with pytest.raises(ValueError, match="not on the"):
            log_diff_restriction(GRID4, action, 0.5, [4.0, 16.0], axis="d")
        with pytest.raises(ValueError, match="exactly two ray multipliers, got 3"):
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


class TestGridOwner:
    """``FactoredStates`` keeps read-only, checked, ascending grids under distinct names."""

    def test_grid_is_a_read_only_copy(self):
        # the caller's array was once kept: w[1] = 3.0 moved fs.grid("w") to [1, 3, 4]
        w = np.array([1.0, 2.0, 4.0])
        fs = FactoredStates(("w",), (w,), 2)
        w[1] = 3.0
        assert fs.grid("w").tolist() == [1.0, 2.0, 4.0]
        assert w.flags.writeable and not fs.grid("w").flags.writeable

    @pytest.mark.parametrize("axes,grids", [
        # concavity's rows of the concave -x**2 here once read -2, -2: the convexity rows
        (("x",), ([2.0, 1.0, 0.0, -1.0],)),
        # complementarity's row of the complements w*z here once read -1: the substitutes row
        (("w", "z"), ([1.0, 0.0], [0.0, 1.0])),
        (("x",), ([0.0, 1.0, 1.0],)),
    ])
    def test_grid_that_does_not_ascend_named(self, axes, grids):
        with pytest.raises(ValueError, match=f"grid for axis '{axes[0]}' must be a nonempty, strictly ascending"):
            FactoredStates(axes, tuple(np.array(g) for g in grids), 2)

    def test_repeated_axis_name_named(self):
        # once accepted, every lookup of "w" finding the first grid
        with pytest.raises(ValueError, match=r"axes \('w', 'z', 'w'\) must be distinct"):
            FactoredStates(("w", "z", "w"), (np.array([0.0, 1.0]),) * 3, 2)

    @pytest.mark.parametrize("grid,message", [
        ([0.0, np.nan, 1.0], r"axis 'z' grid\[1\] = nan is not finite"),  # once accepted
        ([], r"grid for axis 'z' must be a nonempty, strictly ascending vector"),
        ([[0.0, 1.0]], r"grid for axis 'z' must be a nonempty, strictly ascending vector"),
        (["0", "1"], r"axis 'z' grid\[0\] = '0' is not a number"),  # once read as 0.0 and 1.0
    ])
    def test_bad_grid_named(self, grid, message):
        with pytest.raises(ValueError, match=message):
            FactoredStates(("w", "z"), (np.array([0.0, 1.0]), grid), 2)

    @pytest.mark.parametrize("action", [0, 1])
    @pytest.mark.parametrize("axis", [a for a in GRID4.axes if len(GRID4.grid(a)) >= 3])
    def test_degree_one_homogeneity_is_the_convexity_stencil(self, axis, action):
        eq = additive_homogeneous(GRID4, action, nu=1.0, axis=axis).R
        ge = concavity(GRID4, action, axis, convex=True).R
        assert eq.shape == ge.shape and eq.tobytes() == ge.tobytes()


class TestInputsThatAreNotFiniteNumbers:
    def test_string_rows_named(self):
        # once read as 1.0 and -1.0
        with pytest.raises(ValueError, match=r"R\[0, 0\] = '1' is not a number"):
            RestrictionSet([["1", "-1"]], 0.0, "eq")

    def test_string_degree_named(self, ray_states):
        # a TypeError from the ray powers once, or a degree-1 set labelled nu=1
        for build in (lambda: additive_homogeneous(ray_states, 0, nu="1"),
                      lambda: homogeneity_known_nu(ray_states, 0, 1.0, [2.0, 4.0], nu="2"),
                      lambda: log_diff_restriction(ray_states, 0, 1.0, [2.0, 4.0], nu="2")):
            with pytest.raises(ValueError, match="homogeneity degree nu = '[12]' is not a number"):
                build()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_design_named(self, bad):
        # a NaN once gave "SVD did not converge", an inf "numeric rank is 0"
        H = np.ones((4, 2))
        H[:, 1] = np.arange(4.0)
        H[0, 1] = bad
        with pytest.raises(ValueError, match=rf"design\[0, 1\] = {bad} is not finite"):
            linear_in_parameters(H)


class TestRayAndExclusionInputs:
    """The ray builders read the base and the multipliers, and ``exclusion``
    both pairs, by the package's number and index rules."""

    FS = FactoredStates(("w", "z"), ([1.0, 2.0, 4.0], [0.0, 1.0]), 2)

    def ray_builders(self, base, lambdas):
        fs = self.FS
        return [lambda: homogeneity_known_nu(fs, 0, base, lambdas[:1], nu=1.0),
                lambda: homogeneity_known_nu(fs, 0, base, lambdas, nu=2.0),
                lambda: log_homogeneity(fs, 0, base, lambdas),
                lambda: log_diff_restriction(fs, 0, base, lambdas),
                lambda: log_diff_restriction(fs, 0, base, lambdas, nu=2.0)]

    def test_string_multipliers_named(self):
        # once read as 2.0 and 4.0, so every builder returned rows or weights
        for build in self.ray_builders(1.0, ["2", "4"]):
            with pytest.raises(ValueError, match=r"ray multipliers\[0\] = '2' is not a number"):
                build()

    @pytest.mark.parametrize("base,message", [
        (True, "ray base = True is not a number"),  # once read as 1.0
        ("1", "ray base = '1' is not a number"),    # once a numpy UFuncTypeError
    ], ids=["bool", "string"])
    def test_base_that_is_not_a_number_named(self, base, message):
        for build in self.ray_builders(base, [2.0, 4.0]):
            with pytest.raises(ValueError, match=message):
                build()

    def test_bool_multiplier_named(self):
        # once blamed as "ray multiplier 1.0"
        with pytest.raises(ValueError, match=r"ray multipliers\[0\] = True is not a number"):
            log_homogeneity(self.FS, 0, 1.0, [True, 2.0, 4.0])
        for build in self.ray_builders(1.0, [True, 2.0]):
            with pytest.raises(ValueError, match=r"ray multipliers\[0\] = True is not a number"):
                build()

    def test_zero_degree_on_a_ray_grid_named(self):
        # once a division by zero, then "R[0, 0] = nan is not finite"
        with pytest.raises(ValueError, match=r"ray multiplier 2.0 has lam\*\*nu == 1 at nu=0.0"):
            additive_homogeneous(self.FS, 0, nu=0.0)

    def test_overflowing_degree_raises(self):
        # lam**nu = inf once gave the weight 1/(lam**nu - 1) = 0, an all-zero row
        with pytest.raises(OverflowError):
            additive_homogeneous(self.FS, 0, nu=2000.0)

    @pytest.mark.parametrize("pair_b,message", [
        # the normalized action's term is dropped, but its point is still read
        ((1, {"w": 99, "z": 0}), "axis 'w' index 99 out of range"),  # once a one-term row
        ((1, {"w": 0.5, "z": 0}), r"index 0.5 on axes \('z', 'w'\) is not an integer"),
        ((True, {"w": 1, "z": 0}), r"index True on axes \('action',\) is not an integer"),  # once the normalized one
        ((np.True_, {"w": 1, "z": 0}), r"index True on axes \('action',\) is not an integer"),
    ], ids=["off-grid", "fraction", "bool-action", "numpy-bool-action"])
    def test_second_pair_read(self, pair_b, message):
        with pytest.raises(IndexError, match=message):
            exclusion(self.FS, (0, {"w": 0, "z": 0}), pair_b)

    @pytest.mark.parametrize("nu", [0.5, 2.0, 3.0, -1.0, 1.7])
    def test_degree_nu_homogeneity_is_the_log_difference_stencil(self, nu):
        fs = FactoredStates(("w",), ([1.0, 2.0, 4.0],), 2)
        eq = additive_homogeneous(fs, 0, nu=nu).R[0]
        r, _ = log_diff_restriction(fs, 0, 1.0, [2.0, 4.0], nu=nu)
        assert eq.tobytes() == r.tobytes()
