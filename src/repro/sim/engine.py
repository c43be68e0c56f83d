"""The vectorised Monte Carlo engine.

Runs many independent mining games simultaneously as ``(trials,
miners)`` array operations, recording reward fractions at checkpoints.
This is the "numerical simulations" half of the paper's evaluation
(10,000 repeats); :mod:`repro.chainsim` provides the slower
node-level counterpart of the real-system half.

Each segment between checkpoint/event boundaries advances through the
fused batched kernels (:mod:`repro.sim.kernels`) by default; the
``kernel="naive"`` escape hatch runs the original per-round loop
instead.  The two paths are bit-identical — the knob exists for
differential testing and as a safety valve, not because results
differ.

An engine may also run several independent ensembles — ``(trials,
seed)`` row blocks, such as the shards of one spec — stacked into one
state, so each segment is a single kernel call over all their rows.
Every block draws from its own generator and is split back into its
own result, byte-identical to running it alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import ensure_positive_int
from ..core.miners import Allocation
from ..core.results import EnsembleResult
from ..core.stats import StatsCollector, ensure_reduce_mode
from ..obs.trace import get_tracer
from ..protocols.base import EnsembleState, IncentiveProtocol
from .checkpoints import linear_checkpoints, validate_checkpoints
from .events import GameEvent, plan_segments
from .kernels import RowStreams, batched_advance, can_fuse, ensure_kernel_mode
from .rng import RandomSource, SeedLike

__all__ = ["MonteCarloEngine", "simulate"]


class MonteCarloEngine:
    """Simulate an ensemble of independent mining games.

    Parameters
    ----------
    protocol:
        The incentive model to run.
    allocation:
        Initial resource allocation (shared by every trial).
    trials:
        Number of independent games (the paper uses 10,000 for
        simulations, 500 for PoS system experiments).
    seed:
        Seed, :class:`~repro.sim.rng.RandomSource`, or generator for
        reproducibility.
    kernel:
        ``"batched"`` (default) advances segments through the fused
        kernels of :mod:`repro.sim.kernels`; ``"naive"`` loops the
        protocol's per-round ``step``.  Bit-identical outputs either
        way — the naive path is kept for differential testing.
    blocks:
        Optional ``(trials, seed)`` pairs replacing ``trials``/``seed``:
        independent ensembles stacked into one state and advanced by
        one kernel call per segment.  :meth:`run` then returns one
        result per block, each byte-identical to an engine built with
        that block's ``trials`` and ``seed``.  Protocols without a
        stackable kernel (and ``kernel="naive"``) run the blocks one
        after another.

    Examples
    --------
    >>> from repro.protocols import MultiLotteryPoS
    >>> from repro.core.miners import Allocation
    >>> engine = MonteCarloEngine(
    ...     MultiLotteryPoS(reward=0.01), Allocation.two_miners(0.2),
    ...     trials=200, seed=1)
    >>> result = engine.run(horizon=500)
    >>> abs(result.expectational_verdict().sample_mean - 0.2) < 0.1
    True
    """

    def __init__(
        self,
        protocol: IncentiveProtocol,
        allocation: Allocation,
        trials: int = 10_000,
        seed: SeedLike = None,
        kernel: str = "batched",
        *,
        blocks: Optional[Sequence[Tuple[int, SeedLike]]] = None,
    ) -> None:
        if not isinstance(protocol, IncentiveProtocol):
            raise TypeError(
                f"protocol must be an IncentiveProtocol, got {type(protocol).__name__}"
            )
        if not isinstance(allocation, Allocation):
            raise TypeError(
                f"allocation must be an Allocation, got {type(allocation).__name__}"
            )
        self.protocol = protocol
        self.allocation = allocation
        self.kernel = ensure_kernel_mode(kernel)
        self._per_block = blocks is not None
        if blocks is None:
            blocks = ((trials, seed),)
        self._blocks: Tuple[Tuple[int, RandomSource], ...] = tuple(
            (
                ensure_positive_int("trials", rows),
                source if isinstance(source, RandomSource)
                else RandomSource(source),
            )
            for rows, source in blocks
        )
        if not self._blocks:
            raise ValueError("blocks must hold at least one (trials, seed)")
        self.trials = sum(rows for rows, _ in self._blocks)

    def run(
        self,
        horizon: int,
        checkpoints: Optional[Sequence[int]] = None,
        *,
        events: Sequence[GameEvent] = (),
        record_terminal_stakes: bool = True,
        reduce: str = "full",
    ):
        """Run every trial for ``horizon`` rounds.

        Parameters
        ----------
        horizon:
            Total number of blocks/epochs per game.
        checkpoints:
            Rounds at which to record reward fractions; defaults to 50
            evenly spaced checkpoints.  The horizon itself is always
            recorded.
        events:
            Optional scheduled perturbations (see
            :mod:`repro.sim.events`).
        record_terminal_stakes:
            Whether to keep the final stake matrix in the result.
        reduce:
            ``"full"`` (default) materialises the ``(trials,
            checkpoints, miners)`` trajectory cube into an
            :class:`EnsembleResult`; ``"stats"`` folds each checkpoint
            straight into mergeable sufficient statistics and returns
            a :class:`~repro.core.stats.StatsSummary` — the cube is
            never allocated, so memory stays O(trials x miners).

        Returns
        -------
        EnsembleResult or StatsSummary
            Or, for an engine built with ``blocks``, a list of them —
            one per block, in block order.
        """
        horizon = ensure_positive_int("horizon", horizon)
        ensure_reduce_mode(reduce)
        if checkpoints is None:
            checkpoint_list = linear_checkpoints(horizon)
        else:
            checkpoint_list = validate_checkpoints(checkpoints, horizon)
        event_list = sorted(events, key=lambda e: e.round_index)
        for event in event_list:
            if event.round_index > horizon:
                raise ValueError(
                    f"event at round {event.round_index} exceeds horizon {horizon}"
                )

        stackable = self.kernel == "batched" and can_fuse(self.protocol)
        # A one-row block runs alone: its (miners, 1) reductions collapse
        # to one contiguous axis, which NumPy sums pairwise, unlike a
        # stacked row — so stacking it would change its bits.
        stacked = [index for index, (rows, _) in enumerate(self._blocks)
                   if stackable and rows > 1]
        groups = [[index] for index in range(len(self._blocks))
                  if index not in stacked]
        if stacked:
            groups.append(stacked)
        results: list = [None] * len(self._blocks)
        for group in groups:
            parts = self._run_blocks(
                [self._blocks[index] for index in group],
                checkpoint_list, event_list, record_terminal_stakes, reduce,
            )
            for index, part in zip(group, parts):
                results[index] = part
        return results if self._per_block else results[0]

    def _run_blocks(
        self,
        blocks: Sequence[Tuple[int, RandomSource]],
        checkpoint_list: List[int],
        event_list: List[GameEvent],
        record_terminal_stakes: bool,
        reduce: str,
    ) -> list:
        """Advance ``blocks`` stacked in one state; split the results back."""
        streams = RowStreams([
            (rows, source.spawn_one().generator()) for rows, source in blocks
        ])
        bounds = [(start, stop) for start, stop, _ in streams.blocks]
        state = self.protocol.make_state(self.allocation, streams.trials)

        # One sink per block: a stats collector, or the block's own
        # trajectory cube (no stacked cube to copy out of afterwards).
        collectors: List[StatsCollector] = []
        cubes: List[np.ndarray] = []
        if reduce == "stats":
            collectors = [
                StatsCollector(
                    protocol_name=self.protocol.name,
                    allocation=self.allocation,
                    checkpoints=checkpoint_list,
                    round_unit=self.protocol.round_unit,
                )
                for _ in bounds
            ]
        else:
            cubes = [
                np.empty(
                    (stop - start, len(checkpoint_list), self.allocation.size)
                )
                for start, stop in bounds
            ]
        boundaries = plan_segments(checkpoint_list, event_list)
        checkpoint_positions = {c: i for i, c in enumerate(checkpoint_list)}
        pending_events = list(event_list)

        # Fire any events scheduled before the first round.
        while pending_events and pending_events[0].round_index == 0:
            pending_events.pop(0).apply(state)

        previous = 0
        for boundary in boundaries:
            gap = boundary - previous
            if gap > 0:
                self._advance(state, gap, streams)
            previous = boundary
            while pending_events and pending_events[0].round_index == boundary:
                pending_events.pop(0).apply(state)
            position = checkpoint_positions.get(boundary)
            if position is not None:
                issued = self.protocol.total_issued(boundary)
                raw = state.rewards / issued
                for index, (start, stop) in enumerate(bounds):
                    if collectors:
                        collectors[index].observe(position, raw[start:stop])
                    else:
                        cubes[index][:, position, :] = raw[start:stop]

        if collectors:
            summaries = []
            for collector, (start, stop) in zip(collectors, bounds):
                if record_terminal_stakes:
                    collector.observe_terminal(state.stakes[start:stop])
                summaries.append(collector.build(stop - start))
            return summaries
        results = []
        for start, stop in bounds:
            # The constructor clips into a copy; popping each raw cube
            # frees it before the next block's copy is made.
            results.append(EnsembleResult(
                protocol_name=self.protocol.name,
                allocation=self.allocation,
                checkpoints=checkpoint_list,
                reward_fractions=cubes.pop(0),
                terminal_stakes=(
                    state.stakes[start:stop].copy()
                    if record_terminal_stakes else None
                ),
                round_unit=self.protocol.round_unit,
            ))
        return results

    def _advance(
        self, state: EnsembleState, rounds: int, streams: RowStreams
    ) -> None:
        """Advance one segment through the configured kernel path."""
        if self.kernel == "batched":
            batched_advance(self.protocol, state, rounds, streams)
            return
        # Naive runs are one block (see run).
        rng = streams.blocks[0][2]
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "kernel.advance",
                mode="naive",
                protocol=self.protocol.name,
                rounds=rounds,
                trials=state.trials,
            ):
                self.protocol.advance_many(state, rounds, rng)
        else:
            self.protocol.advance_many(state, rounds, rng)

    def __repr__(self) -> str:
        return (
            f"MonteCarloEngine({self.protocol.name!r}, "
            f"miners={self.allocation.size}, trials={self.trials}, "
            f"kernel={self.kernel!r})"
        )


def simulate(
    protocol: IncentiveProtocol,
    allocation: Allocation,
    horizon: int,
    *,
    trials: int = 10_000,
    checkpoints: Optional[Sequence[int]] = None,
    events: Sequence[GameEvent] = (),
    seed: SeedLike = None,
    record_terminal_stakes: bool = True,
    kernel: str = "batched",
    reduce: str = "full",
):
    """One-call convenience wrapper around :class:`MonteCarloEngine`."""
    engine = MonteCarloEngine(
        protocol, allocation, trials=trials, seed=seed, kernel=kernel
    )
    return engine.run(
        horizon,
        checkpoints,
        events=events,
        record_terminal_stakes=record_terminal_stakes,
        reduce=reduce,
    )
