"""Tests for repro.theory.stochastic_approximation (Theorem 4.9)."""

import numpy as np
import pytest

from repro.theory.stochastic_approximation import (
    Stability,
    StochasticApproximation,
    classify_zero,
    find_drift_zeros,
    ml_pos_drift,
    sl_pos_drift,
    sl_pos_multi_miner_drift,
    sl_pos_stochastic_approximation,
    sl_pos_win_probability_from_share,
    sl_pos_zero_report,
)


class TestWinProbabilityFromShare:
    def test_matches_equation_one(self):
        # z <= 1/2 branch: z / (2 (1 - z)).
        assert sl_pos_win_probability_from_share(0.2) == pytest.approx(0.125)

    def test_boundaries(self):
        assert sl_pos_win_probability_from_share(0.0) == 0.0
        assert sl_pos_win_probability_from_share(1.0) == 1.0

    def test_symmetry(self):
        # p(z) + p(1-z) = 1 by the two-miner complementarity.
        for z in (0.1, 0.25, 0.4, 0.5):
            total = sl_pos_win_probability_from_share(
                z
            ) + sl_pos_win_probability_from_share(1 - z)
            assert total == pytest.approx(1.0)

    def test_array_input(self):
        values = sl_pos_win_probability_from_share(np.array([0.2, 0.8]))
        np.testing.assert_allclose(values, [0.125, 0.875])

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            sl_pos_win_probability_from_share(1.5)


class TestDrift:
    def test_equation_two_lower_branch(self):
        # f(z) = z/(2(1-z)) - z for z <= 1/2.
        z = 0.3
        assert sl_pos_drift(z) == pytest.approx(z / (2 * (1 - z)) - z)

    def test_equation_two_upper_branch(self):
        z = 0.7
        assert sl_pos_drift(z) == pytest.approx(1 - (1 - z) / (2 * z) - z)

    def test_negative_below_half(self):
        for z in (0.1, 0.3, 0.49):
            assert sl_pos_drift(z) < 0

    def test_positive_above_half(self):
        for z in (0.51, 0.7, 0.9):
            assert sl_pos_drift(z) > 0

    def test_antisymmetric(self):
        for z in (0.1, 0.3, 0.45):
            assert sl_pos_drift(z) == pytest.approx(-sl_pos_drift(1 - z))

    def test_ml_pos_drift_is_zero(self):
        assert ml_pos_drift(0.37) == 0.0
        np.testing.assert_allclose(ml_pos_drift(np.linspace(0, 1, 11)), 0.0)


class TestZeroFinding:
    def test_sl_pos_zeros(self):
        zeros = find_drift_zeros(sl_pos_drift)
        np.testing.assert_allclose(zeros, [0.0, 0.5, 1.0], atol=1e-6)

    def test_classification_matches_theorem(self):
        report = sl_pos_zero_report()
        assert len(report) == 3
        stabilities = {round(z, 6): s for z, s in report}
        assert stabilities[0.0] is Stability.STABLE
        assert stabilities[0.5] is Stability.UNSTABLE
        assert stabilities[1.0] is Stability.STABLE

    def test_custom_drift(self):
        # f(x) = 0.25 - x: single stable zero at 0.25.
        drift = lambda x: 0.25 - x  # noqa: E731
        zeros = find_drift_zeros(drift)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(0.25, abs=1e-6)
        assert classify_zero(drift, zeros[0]) is Stability.STABLE

    def test_unstable_custom_drift(self):
        drift = lambda x: x - 0.5  # noqa: E731
        assert classify_zero(drift, 0.5) is Stability.UNSTABLE

    def test_degenerate_drift(self):
        zeros = find_drift_zeros(lambda x: 0.0)
        assert zeros == [0.0, 1.0]


class TestStochasticApproximationProcess:
    def test_step_size_definition(self):
        sa = sl_pos_stochastic_approximation(0.2, reward=0.01)
        # gamma_n = w / (1 + n w).
        assert sa.step_size(1) == pytest.approx(0.01 / 1.01)
        assert sa.step_size(100) == pytest.approx(0.01 / 2.0)

    def test_step_size_bounds_condition(self):
        # Definition 4.4(i): c_l / n <= gamma_n <= c_u / n.
        sa = sl_pos_stochastic_approximation(0.2, reward=0.05)
        w = 0.05
        c_l, c_u = w / (1 + w), 1.0
        for n in (1, 10, 1000):
            gamma = sa.step_size(n)
            assert c_l / n <= gamma <= c_u / n + 1e-15

    def test_advance_stays_in_unit_interval(self, rng):
        sa = sl_pos_stochastic_approximation(0.2, reward=0.5)
        for _ in range(200):
            share = sa.advance(rng)
            assert 0.0 <= share <= 1.0

    def test_trajectory_matches_urn_dynamics(self, rng):
        # One SA step from Z_0 = a must land on one of the two exact
        # successor shares (a + w X) / (1 + w).
        sa = sl_pos_stochastic_approximation(0.2, reward=0.1)
        share = sa.advance(rng)
        win = (0.2 + 0.1) / 1.1
        lose = 0.2 / 1.1
        assert share == pytest.approx(win) or share == pytest.approx(lose)

    def test_absorption_tendency(self, rng):
        # After many steps, trajectories should be pushed away from the
        # unstable point 1/2 toward the boundaries.
        sa = sl_pos_stochastic_approximation(0.3, reward=0.05)
        finals = sa.run_many(3000, 300, rng)[-1]
        # Mass near the centre should be small.
        assert np.mean(np.abs(finals - 0.5) < 0.1) < 0.1

    def test_run_length(self, rng):
        sa = sl_pos_stochastic_approximation(0.5, reward=0.01)
        assert sa.run(50, rng).shape == (50,)

    def test_run_many_shape_leaves_state_alone(self, rng):
        sa = sl_pos_stochastic_approximation(0.4, reward=0.01)
        assert sa.run_many(50, 7, rng).shape == (50, 7)
        assert (sa.share, sa.step) == (0.4, 0)

    @pytest.mark.parametrize("share,reward", [(0.3, 0.05), (0.5, 0.2)])
    def test_run_many_single_column_matches_run_bitwise(self, share, reward):
        scalar = sl_pos_stochastic_approximation(share, reward=reward)
        vector = sl_pos_stochastic_approximation(share, reward=reward)
        expected = scalar.run(2000, np.random.default_rng(99))
        column = vector.run_many(2000, 1, np.random.default_rng(99))[:, 0]
        assert column.tobytes() == expected.tobytes()


    def test_run_many_rejects_empty_sizes(self, rng):
        sa = sl_pos_stochastic_approximation(0.4, reward=0.01)
        with pytest.raises(ValueError):
            sa.run_many(0, 3, rng)
        with pytest.raises(ValueError):
            sa.run_many(5, 0, rng)

    def test_run_many_continues_from_an_advanced_state(self):
        scalar = sl_pos_stochastic_approximation(0.3, reward=0.05)
        vector = sl_pos_stochastic_approximation(0.3, reward=0.05)
        scalar.run(100, np.random.default_rng(5))
        vector.run(100, np.random.default_rng(5))
        # The step sizes continue from step 100, not from step 0.
        expected = scalar.run(500, np.random.default_rng(6))
        column = vector.run_many(500, 1, np.random.default_rng(6))[:, 0]
        assert column.tobytes() == expected.tobytes()

class TestMultiMinerDrift:
    def test_rich_get_richer_sign_structure(self):
        shares = [0.1, 0.2, 0.3, 0.4]
        drift = sl_pos_multi_miner_drift(shares)
        # All strictly-smaller miners drift down, the largest drifts up.
        assert np.all(drift[:-1] < 0)
        assert drift[-1] > 0

    def test_sums_to_zero(self):
        drift = sl_pos_multi_miner_drift([0.2, 0.3, 0.5])
        assert drift.sum() == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_point_is_rest(self):
        drift = sl_pos_multi_miner_drift([0.25] * 4)
        np.testing.assert_allclose(drift, 0.0, atol=1e-12)
