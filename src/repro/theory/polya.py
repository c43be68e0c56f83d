"""Polya-urn analysis of ML-PoS and exact PoW block-count laws.

Section 4.3 of the paper observes that ML-PoS mining is a classical
Polya urn: a block won by miner ``A`` adds ``w`` stakes to ``A``'s
side, exactly like drawing a ball and returning it with ``w`` extra
copies.  Consequently the reward fraction ``lambda_A`` converges almost
surely to a ``Beta(a/w, b/w)`` random variable — it *converges*, but to
a random limit, which is why ML-PoS fails robust fairness for large
``w``.

This module provides:

* :class:`PolyaUrn` — the exact urn process with arbitrary reinforcement,
  usable both as an analytic object and as a simulator.
* :func:`ml_pos_limit_distribution` — the Beta(a/w, b/w) limit law.
* :func:`ml_pos_fair_probability` — the limiting probability mass in
  the fair area, ``I_{(1+e)a}(a/w, b/w) - I_{(1-e)a}(a/w, b/w)``.
* :func:`pow_fair_probability` — the exact finite-``n`` binomial mass
  ``Delta(eps; n, a)`` from Section 4.2.
* :func:`ml_pos_block_count_pmf` — the exact Polya-Eggenberger
  distribution of the number of blocks ``A`` wins in ``n`` rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._validation import (
    ensure_fraction,
    ensure_non_negative_float,
    ensure_positive_float,
    ensure_positive_int,
)

__all__ = [
    "PolyaUrn",
    "ml_pos_limit_distribution",
    "ml_pos_fair_probability",
    "ml_pos_limit_std",
    "pow_fair_probability",
    "ml_pos_block_count_pmf",
]


@dataclass
class PolyaUrn:
    """A two-colour Polya urn with reinforcement ``w``.

    The urn starts with ``a`` white mass and ``b`` black mass (real
    valued, matching normalised stakes).  Each draw picks white with
    probability ``white / (white + black)`` and adds ``w`` mass of the
    drawn colour.  With ``a + b = 1`` this is exactly the two-miner
    ML-PoS stake process of Theorem 3.3.

    Parameters
    ----------
    white, black:
        Initial masses (initial stakes of miners A and B).
    reinforcement:
        Mass added per draw (the block reward ``w``).
    """

    white: float
    black: float
    reinforcement: float
    draws: int = 0
    white_draws: int = 0

    def __post_init__(self) -> None:
        self.white = ensure_positive_float("white", self.white)
        self.black = ensure_positive_float("black", self.black)
        self.reinforcement = ensure_positive_float("reinforcement", self.reinforcement)

    @property
    def total(self) -> float:
        """Total mass currently in the urn."""
        return self.white + self.black

    @property
    def white_fraction(self) -> float:
        """Current fraction of white mass (miner A's stake share)."""
        return self.white / self.total

    def draw(self, rng: np.random.Generator) -> bool:
        """Perform one reinforced draw; returns True if white was drawn."""
        is_white = rng.random() < self.white_fraction
        if is_white:
            self.white += self.reinforcement
            self.white_draws += 1
        else:
            self.black += self.reinforcement
        self.draws += 1
        return is_white

    def run(self, n: int, rng: np.random.Generator) -> int:
        """Perform ``n`` draws; returns the number of white draws."""
        n = ensure_positive_int("n", n)
        start = self.white_draws
        for _ in range(n):
            self.draw(rng)
        return self.white_draws - start

    def limit_distribution(self):
        """The almost-sure Beta limit of the white draw fraction (a
        scipy.stats frozen distribution)."""
        from scipy import stats

        return stats.beta(
            self.white / self.reinforcement, self.black / self.reinforcement
        )


def ml_pos_limit_distribution(share: float, reward: float):
    """Beta(a/w, (1-a)/w) limit law of the ML-PoS reward fraction.

    By the classical Polya-urn limit theorem (Mahmoud 2008, Thm 3.2,
    cited in Section 4.3), ``lambda_A -> Beta(a/w, b/w)`` almost surely.

    Parameters
    ----------
    share:
        Miner A's initial stake share ``a`` in (0, 1).
    reward:
        Block reward ``w`` normalised against the initial circulation.

    Returns
    -------
    scipy.stats frozen distribution.
    """
    from scipy import stats

    share = ensure_fraction("share", share)
    reward = ensure_positive_float("reward", reward)
    return stats.beta(share / reward, (1.0 - share) / reward)


def ml_pos_limit_std(share: float, reward: float) -> float:
    """Standard deviation of the ML-PoS limiting Beta law.

    ``sqrt(a (1-a) w / (1 + w))`` — vanishes as ``w -> 0``, which is the
    analytic statement behind the "small block reward improves
    fairness" observation in Section 5.4.2.
    """
    share = ensure_fraction("share", share)
    reward = ensure_positive_float("reward", reward)
    return math.sqrt(share * (1.0 - share) * reward / (1.0 + reward))


def ml_pos_fair_probability(share: float, reward: float, epsilon: float) -> float:
    """Limiting probability that ML-PoS lands in the fair area.

    ``Pr[(1-e)a <= lambda <= (1+e)a]`` under the Beta(a/w, b/w) limit,
    evaluated via the regularised incomplete beta function (the
    expression ``I_{(1+e)a} - I_{(1-e)a}`` from Section 4.3).
    """
    share = ensure_fraction("share", share)
    epsilon = ensure_non_negative_float("epsilon", epsilon)
    distribution = ml_pos_limit_distribution(share, reward)
    upper = min(1.0, (1.0 + epsilon) * share)
    lower = max(0.0, (1.0 - epsilon) * share)
    return float(distribution.cdf(upper) - distribution.cdf(lower))


def pow_fair_probability(share: float, n: int, epsilon: float) -> float:
    """Exact finite-``n`` fair-area mass for PoW (Section 4.2).

    ``Delta(eps; n, a) = F(floor(n(1+e)a); n, a) - F(ceil(n(1-e)a) - 1; n, a)``
    where ``F`` is the Binomial(n, a) CDF.  The subtraction uses
    ``ceil(...) - 1`` so that the lower endpoint itself is *included*,
    i.e. we compute ``Pr[(1-e)a <= lambda_A <= (1+e)a]`` exactly.
    """
    share = ensure_fraction("share", share)
    n = ensure_positive_int("n", n)
    epsilon = ensure_non_negative_float("epsilon", epsilon)
    upper = math.floor(n * (1.0 + epsilon) * share)
    lower = math.ceil(n * (1.0 - epsilon) * share)
    if upper < lower:
        return 0.0
    from scipy import stats

    distribution = stats.binom(n, share)
    return float(distribution.cdf(upper) - distribution.cdf(lower - 1))


def ml_pos_block_count_pmf(
    share: float, reward: float, n: int, k: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact Polya-Eggenberger PMF of A's block count after ``n`` rounds.

    The probability that miner ``A`` proposes exactly ``k`` of the
    first ``n`` ML-PoS blocks is the beta-binomial law

    ``Pr[K = k] = C(n, k) * B(a/w + k, b/w + n - k) / B(a/w, b/w)``

    with ``B`` the beta function.  Evaluated in log space for
    stability.

    Parameters
    ----------
    share, reward:
        Initial share ``a`` and block reward ``w``.
    n:
        Number of blocks.
    k:
        Block counts at which to evaluate; defaults to ``0..n``.

    Returns
    -------
    numpy.ndarray of probabilities (same shape as ``k``).
    """
    share = ensure_fraction("share", share)
    reward = ensure_positive_float("reward", reward)
    n = ensure_positive_int("n", n)
    if k is None:
        k = np.arange(n + 1)
    k = np.asarray(k, dtype=int)
    if np.any(k < 0) or np.any(k > n):
        raise ValueError("k must lie in [0, n]")
    from scipy.special import betaln, gammaln

    alpha = share / reward
    beta = (1.0 - share) / reward
    log_choose = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    log_pmf = log_choose + betaln(alpha + k, beta + n - k) - betaln(alpha, beta)
    return np.exp(log_pmf)
