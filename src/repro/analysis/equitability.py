"""Equitability — the Fanti et al. (FC 2019) dispersion measure.

Section 7 of the paper contrasts its fairness notions with the
*equitability* of Fanti, Kogan, Oh, Ruan, Viswanath and Wang
("Compounding of Wealth in Proof-of-Stake Cryptocurrencies"), defined
through the variance of the reward fraction relative to the initial
resource dispersion.  The paper argues equitability "cannot answer the
fairness concern directly" — it measures dispersion, not the relation
between reward and investment — but it remains a useful secondary
lens, so the reproduction ships it for comparison studies.

For a miner with initial share ``a``, the maximal possible variance of
a [0, 1]-valued reward fraction with mean ``a`` is ``a (1 - a)``
(attained by the all-or-nothing lottery of the paper's Section 1.2
example).  We therefore report

``equitability(lambda) = 1 - Var(lambda) / (a (1 - a))``

so that 1 means perfectly deterministic proportional rewards and 0
means the all-or-nothing worst case.
"""

from __future__ import annotations

import numpy as np

from .._validation import ensure_fraction

__all__ = ["equitability", "equitability_from_variance", "equitability_series"]


def equitability(fractions, share: float) -> float:
    """Normalised equitability of reward-fraction samples.

    Parameters
    ----------
    fractions:
        Samples of ``lambda_A`` in [0, 1].
    share:
        The miner's initial resource share ``a``.

    Returns
    -------
    float in [0, 1]; 1 = deterministic proportional, 0 = all-or-nothing.
    """
    share = ensure_fraction("share", share)
    values = np.asarray(fractions, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("need at least two samples to measure dispersion")
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        raise ValueError("reward fractions must lie in [0, 1]")
    return equitability_from_variance(float(values.var()), share)


def equitability_from_variance(variance: float, share: float) -> float:
    """Equitability from the population variance (``ddof=0``) of
    ``lambda_A`` — what a moment summary such as
    :class:`~repro.core.stats.MomentView` holds without any samples."""
    share = ensure_fraction("share", share)
    worst_case = share * (1.0 - share)
    ratio = float(variance) / worst_case
    return float(np.clip(1.0 - ratio, 0.0, 1.0))


def equitability_series(fractions_by_checkpoint: np.ndarray, share: float) -> np.ndarray:
    """Equitability at every checkpoint.

    Parameters
    ----------
    fractions_by_checkpoint:
        Array of shape ``(trials, checkpoints)``.
    share:
        The miner's initial resource share ``a``.
    """
    values = np.asarray(fractions_by_checkpoint, dtype=float)
    if values.ndim != 2:
        raise ValueError("fractions_by_checkpoint must be 2-D")
    return np.array(
        [equitability(values[:, i], share) for i in range(values.shape[1])]
    )
