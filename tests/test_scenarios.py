import numpy as np
import pytest
from scipy.stats import norm

from ddcident.ddc import solve_bellman
from ddcident.identify import check_finite_dependence
from ddcident.restrictions import zero_cross_difference
from ddcident.scenarios import (
    EntryGameConfig,
    EntryModelConfig,
    ar1_transition,
    build_entry_game,
    build_entry_model,
    build_entry_model_fd,
    entry_restrictions,
    tauchen,
)


class TestTauchen:
    def test_single_point(self):
        grid, T = tauchen(0.5, 1.0, 1, center=2.0)
        assert grid == pytest.approx([2.0])
        assert np.allclose(T, [[1.0]])

    def test_quantile_endpoints_closed_form(self):
        grid, T = tauchen(0.5, 1.0, 3, center=0.0)
        half = norm.ppf(5.0 / 6.0) / np.sqrt(1.0 - 0.25)
        assert grid == pytest.approx([-half, 0.0, half])
        assert T.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(grid) > 0)

    def test_rows_stochastic_larger_grid(self):
        grid, T = tauchen(0.8, 0.3, 9, center=-1.0)
        assert T.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
        assert np.all(T >= 0.0)

    @pytest.mark.parametrize("gamma1,sigma,J,center", [
        (0.5, 1.0, 3, 0.0), (0.8, 0.3, 9, -1.0), (0.95, 0.5, 51, 2.0), (0.99, 0.1, 144, 0.0)])
    def test_matches_scipy_reference(self, gamma1, sigma, J, center):
        # the package computes the normal cdf by erfc and the quantile by
        # statistics.NormalDist; rebuild the same grid and rows with scipy
        half = norm.ppf(1.0 - 0.5 / J) * sigma / np.sqrt(1.0 - gamma1 ** 2)
        ref_grid = center + np.linspace(-half, half, J)
        mid = 0.5 * (ref_grid[1:] + ref_grid[:-1])
        ref_T = np.empty((J, J))
        for i in range(J):
            cdf = norm.cdf((mid - center * (1.0 - gamma1) - gamma1 * ref_grid[i]) / sigma)
            ref_T[i] = np.concatenate([[cdf[0]], np.diff(cdf), [1.0 - cdf[-1]]])
        grid, T = tauchen(gamma1, sigma, J, center=center)
        assert np.max(np.abs(grid - ref_grid)) <= 1e-14
        assert np.max(np.abs(T - ref_T)) <= 1e-14
        assert np.max(np.abs(ar1_transition(ref_grid, gamma1, sigma, center * (1.0 - gamma1))
                             - ref_T)) <= 1e-14

    def test_lower_tail_keeps_relative_accuracy(self):
        # far below the mean, 1 + erf cancels; the erfc form keeps the tail mass
        # (gamma1 = 1 centres row i on grid[i])
        T = ar1_transition(np.array([-10.0, 0.0, 10.0]), 1.0, 1.0)
        assert T[1, 0] == pytest.approx(norm.cdf(-5.0), rel=1e-12)
        assert T[2, 0] == pytest.approx(norm.cdf(-15.0), rel=1e-12)

    def test_small_noise_concentrates_mass(self):
        grid, _ = tauchen(0.9, 1.0, 7)
        T_tiny = ar1_transition(grid, 0.9, 1e-4)
        # with tiny innovations each row piles onto the cell nearest its mean
        assert np.all(T_tiny.max(axis=1) > 0.999)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            tauchen(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            tauchen(0.5, 0.0, 3)
        with pytest.raises(ValueError):
            tauchen(0.5, 1.0, 0)


@pytest.fixture(scope="module")
def entry_bundle():
    return build_entry_model()


@pytest.fixture(scope="module")
def fd_bundle():
    return build_entry_model_fd()


@pytest.fixture(scope="module")
def game_bundle():
    return build_entry_game()


class TestEntryModel:
    @pytest.fixture
    def bundle(self, entry_bundle):
        return entry_bundle

    def test_state_count(self, bundle):
        assert bundle.model.n_states == 18

    def test_z_grid_centered_at_long_run_mean(self, bundle):
        assert bundle.states.grid("z")[1] == pytest.approx(1.0)

    def test_w_grid_binds_marginal_profit(self, bundle):
        th = bundle.config.theta
        assert th[1] + th[2] * bundle.states.grid("w")[0] == pytest.approx(0.0, abs=1e-12)

    def test_transitions_are_stochastic(self, bundle):
        assert bundle.model.Q.sum(axis=2) == pytest.approx(1.0, abs=1e-12)

    def test_lag_flag_tracks_action(self, bundle):
        Q = bundle.model.Q
        # operating (action 0) moves to y=1 states (the top half of the index)
        assert Q[0][:, :9].sum() == pytest.approx(0.0)
        assert Q[1][:, 9:].sum() == pytest.approx(0.0)

    def test_entry_cost_structure(self, bundle):
        u1 = bundle.u_true
        # y=1 states (index 9..17) differ from y=0 twins by exactly theta4
        assert u1[9:] - u1[:9] == pytest.approx(-bundle.config.theta[3])

    def test_design_matrix_rank(self, bundle):
        assert bundle.H.shape == (18, 4)
        assert np.linalg.matrix_rank(bundle.H) == 4

    def test_restriction_row_counts(self, bundle):
        counts = {name: rs.n_rows for name, rs in bundle.restrictions.items()}
        assert counts == {"homogeneity": 6, "zero_cross": 8, "monotonicity": 12,
                          "concavity": 6, "complementarity": 8, "linearity": 14}

    def test_restrictions_are_the_catalogue_called_bare(self, bundle):
        catalogue = entry_restrictions(bundle.states, bundle.H)
        assert list(catalogue) == list(bundle.restrictions)
        for key, build in catalogue.items():
            rs, prebuilt = build(), bundle.restrictions[key]
            assert (rs.label, rs.kind) == (prebuilt.label, prebuilt.kind)
            assert rs.R.tobytes() == prebuilt.R.tobytes() and rs.c.tobytes() == prebuilt.c.tobytes()
        # zero_cross binds only its difference axis: the invariant axes default to (w, z)
        explicit = zero_cross_difference(bundle.states, 0, diff_axis="y", invariant_axes=("w", "z"))
        assert catalogue["zero_cross"]().R.tobytes() == explicit.R.tobytes()

    def test_equalities_annihilate_truth(self, bundle):
        for name in ("homogeneity", "zero_cross", "linearity"):
            rs = bundle.restrictions[name]
            assert np.max(np.abs(rs.R @ bundle.u_true - rs.c)) < 1e-10

    def test_inequalities_hold_at_truth(self, bundle):
        for name in ("monotonicity", "concavity", "complementarity"):
            rs = bundle.restrictions[name]
            assert np.min(rs.R @ bundle.u_true - rs.c) >= -1e-10

    def test_not_finitely_dependent(self, bundle):
        cert = check_finite_dependence(bundle.model.Q, [((0, 0), (0, 9))], rho_max=6)
        assert not cert.satisfied

    def test_solver_reaches_tolerance(self, bundle):
        sol = solve_bellman(bundle.model)
        assert sol.residual <= 1e-12


class TestAr1TransitionRows:
    # each once returned rows with negative entries; sigma = 0 (a NaN row) is
    # left out, since it divides by zero before the check
    @pytest.mark.parametrize("grid,sigma", [([0.0, 1.0, 2.0], -1.0), ([2.0, 1.0, 0.0], 1.0)],
                             ids=["negative-sigma", "descending-grid"])
    def test_bad_rows_named(self, grid, sigma):
        with pytest.raises(ValueError, match=r"AR\(1\) transition row \(state 0\) has a negative entry"):
            ar1_transition(grid, 0.5, sigma)


class TestEntryGameFixedCosts:
    @pytest.mark.parametrize("cfg,message", [
        (EntryGameConfig(n_firms=2, betas=(0.8, 0.9)), r"2 firms, got shape \(3,\)"),  # once dropped the third
        (EntryGameConfig(theta_fc=(1.0,)), r"3 firms, got shape \(1,\)"),              # once an IndexError
    ])
    def test_one_entry_per_firm(self, cfg, message):
        with pytest.raises(ValueError, match=r"theta_fc must hold one entry per firm: " + message):
            build_entry_game(cfg)

    def test_string_fixed_cost_named(self):
        with pytest.raises(ValueError, match=r"theta_fc\[1\] = '0.9' is not a number"):
            build_entry_game(EntryGameConfig(theta_fc=(1.0, "0.9", 0.8)))


class TestEntryModelFd:
    @pytest.fixture
    def bundle(self, fd_bundle):
        return fd_bundle

    def test_one_dependence_certificate(self, bundle):
        pairs = [((0, 0), (0, 9)), ((0, 4), (0, 13)), ((0, 1), (0, 2))]
        cert = check_finite_dependence(bundle.model.Q, pairs, rho_max=3)
        assert cert.rho == 1
        assert cert.max_violation <= 1e-10

    def test_z_grid_centered_at_zero(self, bundle):
        assert bundle.states.grid("z")[1] == pytest.approx(0.0)

    def test_config_override_possible(self):
        fd = build_entry_model_fd(EntryModelConfig(beta=0.9))
        assert fd.model.beta == 0.9
        assert fd.config.gamma_a_z == 0.0


class TestEntryGame:
    @pytest.fixture
    def bundle(self, game_bundle):
        return game_bundle

    def test_dimensions(self, bundle):
        assert bundle.model.m_x == 24
        assert bundle.model.m_pi == 96

    def test_reference_parameters(self, bundle):
        cfg = bundle.config
        assert cfg.betas == (0.8, 0.9, 0.95)
        assert cfg.theta_fc == (1.0, 0.9, 0.8)
        assert cfg.theta_rs == 1.0 and cfg.theta_ec == 1.0

    def test_payoff_exchangeable_in_rivals(self, bundle):
        m = bundle.model
        # profiles (operate, out) and (out, operate) give identical payoffs
        assert np.allclose(m.payoffs[0, 0, 1, :], m.payoffs[0, 0, 2, :])

    def test_payoff_ignores_rival_lags(self, bundle):
        m = bundle.model
        x_a = 1 * 8 + 4  # s = 1, lags (0, 0, 1), firm 0 fastest
        x_b = 1 * 8 + 2  # s = 1, lags (0, 1, 0)
        assert np.allclose(m.payoffs[0, 0, :, x_a], m.payoffs[0, 0, :, x_b])

    def test_entry_cost_independent_of_rivals(self, bundle):
        m = bundle.model
        x_in = 0  # s = 0, lags (0, 0, 0)
        x_out = 1  # s = 0, lags (1, 0, 0)
        diffs = m.payoffs[0, 0, :, x_in] - m.payoffs[0, 0, :, x_out]
        assert diffs == pytest.approx(bundle.config.theta_ec)

    def test_last_action_payoff_zero_and_declared(self, bundle):
        assert bundle.model.last_action_known
        assert np.all(bundle.model.payoffs[:, 1] == 0.0)

    def test_design_matrices(self, bundle):
        for D in bundle.designs:
            assert D.shape == (24, 4)
            assert np.linalg.matrix_rank(D) == 4
