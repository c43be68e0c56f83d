"""Tests for repro.theory.polya (urn limits, exact PMFs)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.theory.polya import (
    PolyaUrn,
    ml_pos_block_count_pmf,
    ml_pos_fair_probability,
    ml_pos_limit_distribution,
    ml_pos_limit_std,
    pow_fair_probability,
)


class TestPolyaUrn:
    def test_initial_fraction(self):
        urn = PolyaUrn(white=0.2, black=0.8, reinforcement=0.01)
        assert urn.white_fraction == pytest.approx(0.2)

    def test_draw_updates_mass(self, rng):
        urn = PolyaUrn(white=0.5, black=0.5, reinforcement=0.1)
        urn.draw(rng)
        assert urn.total == pytest.approx(1.1)
        assert urn.draws == 1

    def test_run_counts_whites(self, rng):
        urn = PolyaUrn(white=0.2, black=0.8, reinforcement=0.01)
        whites = urn.run(100, rng)
        assert 0 <= whites <= 100
        assert urn.white_draws == whites
        assert urn.total == pytest.approx(1.0 + 100 * 0.01)

    def test_limit_distribution_params(self):
        urn = PolyaUrn(white=0.2, black=0.8, reinforcement=0.01)
        dist = urn.limit_distribution()
        alpha, beta = dist.args
        assert alpha == pytest.approx(20.0)
        assert beta == pytest.approx(80.0)

    def test_mean_preserved(self, rng):
        # The urn fraction is a martingale: the mean of many runs stays
        # at the initial fraction.
        fractions = []
        for _ in range(2000):
            urn = PolyaUrn(white=0.2, black=0.8, reinforcement=0.05)
            urn.run(50, rng)
            fractions.append(urn.white_draws / 50)
        assert np.mean(fractions) == pytest.approx(0.2, abs=0.015)


class TestLimitDistribution:
    def test_mean_is_share(self):
        dist = ml_pos_limit_distribution(0.2, 0.01)
        assert dist.mean() == pytest.approx(0.2)

    def test_std_formula(self):
        share, reward = 0.2, 0.01
        dist = ml_pos_limit_distribution(share, reward)
        assert dist.std() == pytest.approx(ml_pos_limit_std(share, reward))

    def test_std_shrinks_with_reward(self):
        # Section 5.4.2: smaller w concentrates the limit.
        assert ml_pos_limit_std(0.2, 1e-4) < ml_pos_limit_std(0.2, 1e-1)

    def test_fair_probability_monotone_in_epsilon(self):
        p_small = ml_pos_fair_probability(0.2, 0.01, 0.05)
        p_large = ml_pos_fair_probability(0.2, 0.01, 0.2)
        assert p_small < p_large

    def test_fair_probability_tiny_reward_near_one(self):
        assert ml_pos_fair_probability(0.2, 1e-6, 0.1) > 0.999

    def test_fair_probability_paper_reward_below_090(self):
        # The Figure 2(b) observation: at w=0.01 the limit mass in the
        # fair area stays well below 1 - delta = 0.9.
        assert ml_pos_fair_probability(0.2, 0.01, 0.1) < 0.9


class TestPoWFairProbability:
    def test_exact_binomial_mass(self):
        from scipy import stats

        n, a, eps = 100, 0.2, 0.1
        lower = int(np.ceil(n * (1 - eps) * a))
        upper = int(np.floor(n * (1 + eps) * a))
        expected = sum(stats.binom.pmf(k, n, a) for k in range(lower, upper + 1))
        assert pow_fair_probability(a, n, eps) == pytest.approx(expected)

    def test_increases_with_n(self):
        assert pow_fair_probability(0.2, 5000, 0.1) > pow_fair_probability(
            0.2, 100, 0.1
        )

    def test_paper_figure2a_shape(self):
        # Section 5.2: at n > 1000, almost all PoW mass is in the fair
        # area; at n < 100 a noticeable fraction is not.
        assert pow_fair_probability(0.2, 2000, 0.1) > 0.9
        assert pow_fair_probability(0.2, 50, 0.1) < 0.9

    def test_empty_interval_zero(self):
        # Tiny n and eps: no integer k falls in the window.
        assert pow_fair_probability(0.2, 3, 0.1) == 0.0


class TestBlockCountPMF:
    def test_sums_to_one(self):
        pmf = ml_pos_block_count_pmf(0.2, 0.01, 50)
        assert pmf.sum() == pytest.approx(1.0)

    def test_mean_is_na(self):
        n = 80
        pmf = ml_pos_block_count_pmf(0.3, 0.05, n)
        mean = np.sum(np.arange(n + 1) * pmf)
        assert mean == pytest.approx(n * 0.3, rel=1e-9)

    def test_first_block_is_bernoulli(self):
        pmf = ml_pos_block_count_pmf(0.2, 0.01, 1)
        np.testing.assert_allclose(pmf, [0.8, 0.2], rtol=1e-9)

    def test_matches_simulation(self, rng):
        share, reward, n, trials = 0.3, 0.5, 10, 60_000
        counts = np.zeros(trials, dtype=int)
        for t in range(trials):
            urn = PolyaUrn(white=share, black=1 - share, reinforcement=reward)
            counts[t] = urn.run(n, rng)
        empirical = np.bincount(counts, minlength=n + 1) / trials
        exact = ml_pos_block_count_pmf(share, reward, n)
        np.testing.assert_allclose(empirical, exact, atol=0.01)

    def test_overdispersed_vs_binomial(self):
        # Polya-Eggenberger variance exceeds the binomial variance.
        from scipy import stats

        n, share, reward = 100, 0.2, 0.05
        pmf = ml_pos_block_count_pmf(share, reward, n)
        k = np.arange(n + 1)
        mean = np.sum(k * pmf)
        var = np.sum((k - mean) ** 2 * pmf)
        assert var > stats.binom(n, share).var()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ml_pos_block_count_pmf(0.2, 0.01, 10, np.array([11]))


class TestLazyScipy:
    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy.stats costs most of a second to import; the theory
        # functions import it on first use, so starting the CLI (and
        # every warm-cache run) never pays for it.  A fresh interpreter,
        # since this test session may have imported scipy already.
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro.experiments.runner; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"

    def test_scipy_backed_functions_still_work(self):
        assert ml_pos_limit_distribution(0.2, 0.01).mean() == pytest.approx(0.2)
        assert 0.0 < pow_fair_probability(0.2, 100, 0.1) < 1.0
