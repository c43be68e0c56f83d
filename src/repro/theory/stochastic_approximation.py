"""Stochastic-approximation analysis of SL-PoS (Section 4.4).

The paper proves Theorem 4.9 — SL-PoS monopolises almost surely — by
casting the stake-share process ``Z_n`` as a stochastic approximation
(SA) algorithm (Definition 4.4):

``Z_{n+1} - Z_n = gamma_{n+1} (f(Z_n) + U_{n+1})``

with step sizes ``gamma_n = w / (1 + n w)`` and drift

``f(z) = winprob(z) - z``.

For the two-miner SL-PoS win law (Eq. 2 of the paper)::

    f(z) = z / (2 (1 - z)) - z            if z <= 1/2
    f(z) = 1 - (1 - z) / (2 z) - z        otherwise

whose zeros are {0, 1/2, 1}: the interior zero is *unstable*
(``f(x)(x - 1/2) >= 0`` locally) and the boundary zeros are stable, so
``Z_n -> {0, 1}`` almost surely (Lemmas 4.5/4.7/4.8).

This module provides the drift fields, zero finding, stability
classification, and a generic SA iterator used both for Figure 1 and
for numerical verification of the theorem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from .._validation import (
    ensure_fraction,
    ensure_positive_float,
    ensure_positive_int,
    ensure_probability,
)
from .win_probability import sl_pos_win_probabilities

__all__ = [
    "sl_pos_win_probability_from_share",
    "sl_pos_drift",
    "ml_pos_drift",
    "find_drift_zeros",
    "Stability",
    "classify_zero",
    "sl_pos_zero_report",
    "StochasticApproximation",
    "sl_pos_stochastic_approximation",
    "sl_pos_multi_miner_drift",
]


def sl_pos_win_probability_from_share(z) -> np.ndarray:
    """Two-miner SL-PoS win probability as a function of A's share ``z``.

    Piecewise law plotted in Figure 1 of the paper::

        p(z) = z / (2 (1 - z))       if z <= 1/2
        p(z) = 1 - (1 - z) / (2 z)   otherwise

    Accepts scalars or arrays; the boundary values are ``p(0) = 0`` and
    ``p(1) = 1``.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0) or np.any(z > 1.0):
        raise ValueError("share must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lower = np.divide(
            z, 2.0 * (1.0 - z), out=np.zeros_like(z), where=z < 1.0
        )
        upper = 1.0 - np.divide(
            1.0 - z, 2.0 * z, out=np.zeros_like(z), where=z > 0.0
        )
    result = np.where(z <= 0.5, lower, upper)
    if result.ndim == 0:
        return float(result)
    return result


def sl_pos_drift(z) -> np.ndarray:
    """SA drift ``f(z) = p(z) - z`` of two-miner SL-PoS (Eq. 2)."""
    z_arr = np.asarray(z, dtype=float)
    result = np.asarray(sl_pos_win_probability_from_share(z_arr)) - z_arr
    if result.ndim == 0:
        return float(result)
    return result


def ml_pos_drift(z) -> np.ndarray:
    """SA drift of ML-PoS, identically zero.

    ML-PoS wins proportionally, ``p(z) = z``, so the drift vanishes
    everywhere — every share is a rest point, which is exactly why the
    process converges to a *random* (Beta-distributed) limit instead of
    a deterministic one.
    """
    z_arr = np.asarray(z, dtype=float)
    result = np.zeros_like(z_arr)
    if result.ndim == 0:
        return 0.0
    return result


def find_drift_zeros(
    drift: Callable[[float], float],
    *,
    grid_points: int = 2001,
    tolerance: float = 1e-12,
) -> List[float]:
    """Locate zeros of a drift function on [0, 1] by sign scanning + bisection.

    Boundary zeros are detected directly; interior zeros are bracketed
    on a uniform grid and refined by bisection.  Intervals where the
    drift is identically ~0 are reported by their midpoints only when
    isolated sign changes exist; a fully-degenerate drift (ML-PoS)
    returns the endpoints ``[0.0, 1.0]`` as representative rest points.
    """
    grid_points = ensure_positive_int("grid_points", grid_points)
    grid = np.linspace(0.0, 1.0, grid_points)
    values = np.array([drift(float(x)) for x in grid])
    zeros: List[float] = []
    if abs(values[0]) <= tolerance:
        zeros.append(0.0)
    if np.all(np.abs(values) <= tolerance):
        # Degenerate (everywhere-zero) drift.
        if 1.0 not in zeros:
            zeros.append(1.0)
        return zeros
    for left, right, f_left, f_right in zip(
        grid[:-1], grid[1:], values[:-1], values[1:]
    ):
        if abs(f_right) <= tolerance:
            candidate = float(right)
            if not zeros or abs(candidate - zeros[-1]) > 1e-9:
                zeros.append(candidate)
            continue
        if abs(f_left) <= tolerance:
            continue
        if f_left * f_right < 0.0:
            lo, hi = float(left), float(right)
            f_lo = drift(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                f_mid = drift(mid)
                if abs(f_mid) <= tolerance or hi - lo < tolerance:
                    break
                if f_lo * f_mid < 0.0:
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            candidate = 0.5 * (lo + hi)
            if not zeros or abs(candidate - zeros[-1]) > 1e-9:
                zeros.append(candidate)
    return zeros


class Stability(Enum):
    """Stability classification of an SA rest point (Lemmas 4.7/4.8)."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    DEGENERATE = "degenerate"


def classify_zero(
    drift: Callable[[float], float], zero: float, *, step: float = 1e-4
) -> Stability:
    """Classify a drift zero by the local sign structure of ``f``.

    ``q`` is stable when ``f(x)(x - q) < 0`` near ``q`` (the drift
    pushes back towards ``q``) and unstable when ``f(x)(x - q) >= 0``
    with strict inequality on at least one side (the drift pushes
    away).  Boundary zeros are classified using the available side.
    """
    zero = ensure_probability("zero", zero)
    step = ensure_positive_float("step", step)
    left = zero - step
    right = zero + step
    signs: List[float] = []
    if left >= 0.0:
        signs.append(drift(left) * (left - zero))
    if right <= 1.0:
        signs.append(drift(right) * (right - zero))
    if not signs:  # pragma: no cover - impossible for step < 1
        return Stability.DEGENERATE
    if all(s < 0.0 for s in signs):
        return Stability.STABLE
    if any(s > 0.0 for s in signs) and all(s >= 0.0 for s in signs):
        return Stability.UNSTABLE
    if all(s == 0.0 for s in signs):
        return Stability.DEGENERATE
    return Stability.UNSTABLE


def sl_pos_zero_report() -> List[tuple]:
    """The (zero, stability) pairs proving Theorem 4.9.

    Returns ``[(0.0, STABLE), (0.5, UNSTABLE), (1.0, STABLE)]`` computed
    numerically from the drift — the test suite checks this matches the
    analytic statement in the paper.
    """
    zeros = find_drift_zeros(sl_pos_drift)
    return [(z, classify_zero(sl_pos_drift, z)) for z in zeros]


@dataclass
class StochasticApproximation:
    """A generic SA recursion ``Z_{n+1} = Z_n + gamma_{n+1} (f(Z_n) + U_{n+1})``.

    Matches Definition 4.4 of the paper with the SL-PoS
    specialisation as defaults: ``gamma_n = w / (1 + n w)`` and noise
    ``U_{n+1} = X_{n+1} - E[X_{n+1} | Z_n]`` generated by the Bernoulli
    block lottery ``X_{n+1} ~ Bernoulli(p(Z_n))``.

    Parameters
    ----------
    win_probability:
        The lottery success law ``p(z)`` (drift is ``p(z) - z``).
    reward:
        Block reward ``w`` controlling the step sizes.
    initial:
        Starting share ``Z_0``.
    """

    win_probability: Callable[[float], float]
    reward: float
    initial: float
    share: float = field(init=False)
    step: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.reward = ensure_positive_float("reward", self.reward)
        self.initial = ensure_probability("initial", self.initial)
        self.share = self.initial

    def step_size(self, n: int) -> float:
        """``gamma_n = w / (1 + n w)`` (satisfies ``c_l/n <= gamma_n <= c_u/n``)."""
        n = ensure_positive_int("n", n)
        return self.reward / (1.0 + n * self.reward)

    def drift(self, z: float) -> float:
        """``f(z) = p(z) - z``."""
        return float(self.win_probability(z)) - z

    def advance(self, rng: np.random.Generator) -> float:
        """Run one SA step; returns the new share."""
        p = float(self.win_probability(self.share))
        won = 1.0 if rng.random() < p else 0.0
        self.step += 1
        gamma = self.step_size(self.step)
        self.share += gamma * (won - self.share)
        # Guard against float drift outside [0, 1].
        self.share = min(1.0, max(0.0, self.share))
        return self.share

    def run(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Run ``n`` steps; returns the share trajectory (length ``n``)."""
        n = ensure_positive_int("n", n)
        trajectory = np.empty(n)
        for i in range(n):
            trajectory[i] = self.advance(rng)
        return trajectory

    def run_many(
        self, n: int, trajectories: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Run ``n`` steps of ``trajectories`` independent copies at once.

        Every copy starts from the current state and follows the same
        recursion as :meth:`advance`, vectorised: one
        ``rng.random(trajectories)`` per step and the same clip to
        ``[0, 1]``.  ``win_probability`` must accept arrays.  The
        process's own state is left untouched.  Returns the shares as
        an ``(n, trajectories)`` array; with ``trajectories=1`` its only
        column equals :meth:`run` on the same generator bit for bit.
        """
        n = ensure_positive_int("n", n)
        trajectories = ensure_positive_int("trajectories", trajectories)
        shares = np.full(trajectories, self.share)
        out = np.empty((n, trajectories))
        for i in range(n):
            p = np.asarray(self.win_probability(shares), dtype=float)
            won = (rng.random(trajectories) < p).astype(float)
            gamma = self.step_size(self.step + i + 1)
            shares = np.clip(shares + gamma * (won - shares), 0.0, 1.0)
            out[i] = shares
        return out


def sl_pos_stochastic_approximation(
    share: float, reward: float
) -> StochasticApproximation:
    """The SA process of Theorem 4.9 for two-miner SL-PoS."""
    share = ensure_fraction("share", share)
    return StochasticApproximation(
        win_probability=sl_pos_win_probability_from_share,
        reward=reward,
        initial=share,
    )


def sl_pos_multi_miner_drift(shares: Sequence[float]) -> np.ndarray:
    """Multi-miner SA drift vector ``f_i(s) = p_i(s) - s_i``.

    Uses the exact Lemma 6.1 win law.  The drift of the largest miner
    is non-negative and the drift of every strictly-smaller miner is
    negative (rich get richer), which generalises Theorem 4.9 to the
    multi-miner games of Table 1.
    """
    shares = np.asarray(list(shares), dtype=float)
    probabilities = sl_pos_win_probabilities(shares)
    return probabilities - shares / shares.sum()
