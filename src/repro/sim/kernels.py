"""Fused batched advance kernels for the Monte Carlo engine.

The naive :meth:`~repro.protocols.base.IncentiveProtocol.advance_many`
loops ``step`` in Python: every round pays an ``rng.random`` call, a
fresh ``np.cumsum`` and several ``(trials, miners)`` temporaries, so at
paper scale (10,000 trials over thousands of rounds per grid cell)
interpreter and allocator overhead — not arithmetic — dominates.  This
module fuses whole checkpoint segments into far fewer NumPy dispatches
while staying **bit-identical** to the per-round loop:

* **Pre-drawn uniform blocks** — ``rng.random((chunk, trials))`` fills
  an array in C order from the same bit stream as ``chunk`` sequential
  ``rng.random(trials)`` calls, so batching the draws consumes the
  generator identically and every downstream comparison sees the same
  uniforms.  Blocks are chunked (:data:`DEFAULT_CHUNK_ROUNDS` rounds,
  capped by :data:`DEFAULT_CHUNK_BUDGET_BYTES`) so peak memory stays
  bounded at 100k-trial scale.
* **Stacked row blocks** — a state may stack several independent
  ensembles (the shards of one spec) along the trials axis, each with
  its own generator (:class:`RowStreams`).  Every random draw is split
  along that axis: a block's rows come from its own generator in the
  order it would consume them alone, and all other arithmetic is
  row-wise, so each block's rows are bit-identical to advancing it by
  itself — at one kernel call for the whole stack.
* **Scratch-buffer reuse** — a :class:`ScratchBuffers` pool hangs off
  ``state.scratch`` and every inner-loop array op writes into a
  preallocated buffer (``np.cumsum(..., out=)``, ``np.divide(...,
  out=)``), so the steady-state loop allocates nothing.
* **Identical arithmetic** — kernels perform the same floating-point
  operations in the same order as the naive loop (verified by the
  differential tests in ``tests/sim/test_kernels.py``).  Where a
  kernel replaces a scatter ``a[rows, winners] += w`` with a one-hot
  masked add, the non-winning lanes receive ``+0.0``, which is a
  bitwise no-op for the non-negative stakes/rewards arrays.

Kernels are registered per concrete protocol class.  Lookup is by
*exact type* (plus explicitly registered aliases such as
:class:`~repro.protocols.extended.NeoPoS`): a user-defined subclass
with different dynamics silently falls back to the naive loop rather
than risk a wrong fused recurrence.

:func:`batched_advance` is the single entry point; the engine's
``kernel="batched" | "naive"`` knob selects between it and the plain
``advance_many`` loop for differential testing.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from .._validation import ensure_positive_int
from ..obs.trace import get_tracer
from ..protocols.base import (
    EnsembleState,
    IncentiveProtocol,
    winners_from_uniforms,
)
from ..protocols.c_pos import BlockGranularCompoundPoS, CompoundPoS
from ..protocols.extended import (
    AlgorandPoS,
    EOSDelegatedPoS,
    FilecoinStorage,
    NeoPoS,
    VixifyPoS,
    WavePoS,
)
from ..protocols.fsl_pos import FairSingleLotteryPoS
from ..protocols.ml_pos import MultiLotteryPoS
from ..protocols.pow import ProofOfWork
from ..protocols.sl_pos import SingleLotteryPoS
from ..protocols.withholding import RewardWithholding

__all__ = [
    "KERNEL_MODES",
    "DEFAULT_CHUNK_ROUNDS",
    "DEFAULT_CHUNK_BUDGET_BYTES",
    "GROUP_MAX_PART_BYTES",
    "GROUP_MAX_ROWS",
    "RowStreams",
    "ScratchBuffers",
    "batched_advance",
    "can_fuse",
    "ensure_kernel_mode",
    "find_kernel",
    "register_kernel",
]

#: Valid values of the engine/spec ``kernel`` knob.
KERNEL_MODES = ("batched", "naive")

#: Upper bound on rounds per pre-drawn uniform block.
DEFAULT_CHUNK_ROUNDS = 256

#: Cap on the bytes a single pre-drawn block may occupy; at 100k-trial
#: scale this, not DEFAULT_CHUNK_ROUNDS, bounds the chunk.
DEFAULT_CHUNK_BUDGET_BYTES = 64 << 20

#: Cap on the trial rows one stacked kernel call (a fused shard group
#: of the runtime) holds: past a few thousand rows a call is no longer
#: dispatch-bound, so bigger groups only cost memory and parallelism.
GROUP_MAX_ROWS = 2048

#: Cap on the estimated bytes of one fused group's per-shard results,
#: which are all alive together until the group returns.
GROUP_MAX_PART_BYTES = 1 << 20


def ensure_kernel_mode(kernel: str) -> str:
    """Validate a ``kernel`` knob value, returning it unchanged."""
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
        )
    return kernel


class ScratchBuffers:
    """A keyed pool of preallocated work arrays.

    Kernels request buffers by name; a buffer is (re)allocated only
    when first requested or when the requested shape/dtype changes, so
    across rounds — and across the many ``advance`` segments of one
    engine run — the inner loops allocate nothing.

    Buffer contents are *not* preserved between ``get`` calls in any
    contractual sense: every kernel fully overwrites a buffer before
    reading it.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def get(
        self, name: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """The buffer registered under ``name``, allocating on demand."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = np.empty(shape, dtype=dtype)
            self._arrays[name] = array
        return array

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(array.nbytes for array in self._arrays.values())

    def __len__(self) -> int:
        return len(self._arrays)

    def __repr__(self) -> str:
        return f"ScratchBuffers(buffers={len(self)}, nbytes={self.nbytes})"


# -- row-blocked random streams ------------------------------------------------


class RowStreams:
    """The generators of a stacked ensemble, one per contiguous row block.

    Block ``b`` owns rows ``[start_b, stop_b)`` of the state and draws
    them from its own generator, in the order it would draw them if it
    were advanced alone.  A lone generator is the one-block case.

    Parameters
    ----------
    blocks:
        ``(rows, generator)`` pairs in row order.
    """

    __slots__ = ("blocks", "trials")

    def __init__(
        self, blocks: Sequence[Tuple[int, np.random.Generator]]
    ) -> None:
        bounds = []
        start = 0
        for rows, generator in blocks:
            rows = ensure_positive_int("rows", rows)
            bounds.append((start, start + rows, generator))
            start += rows
        if not bounds:
            raise ValueError("RowStreams needs at least one block")
        self.blocks: Tuple[Tuple[int, int, np.random.Generator], ...] = (
            tuple(bounds)
        )
        self.trials = start

    @property
    def widest(self) -> int:
        """Rows in the largest block."""
        return max(stop - start for start, stop, _ in self.blocks)

    def multinomial(self, count: int, pvals: np.ndarray) -> np.ndarray:
        """One ``Multinomial(count, pvals[row])`` draw per row.

        A 2-D ``pvals`` draws its rows in order, so splitting the rows
        by block reproduces each block's own draws."""
        if len(self.blocks) == 1:
            return self.blocks[0][2].multinomial(count, pvals)
        out = np.empty(pvals.shape, dtype=np.int64)
        for start, stop, generator in self.blocks:
            out[start:stop] = generator.multinomial(count, pvals[start:stop])
        return out

    def __repr__(self) -> str:
        sizes = [stop - start for start, stop, _ in self.blocks]
        return f"RowStreams(sizes={sizes})"


def _as_streams(
    rng: Union[np.random.Generator, RowStreams], trials: int
) -> RowStreams:
    streams = rng if isinstance(rng, RowStreams) else RowStreams([(trials, rng)])
    if streams.trials != trials:
        raise ValueError(
            f"row streams cover {streams.trials} rows but the state has "
            f"{trials} trials"
        )
    return streams


# -- chunked pre-drawn uniform blocks -----------------------------------------


def _chunk_size(
    rounds: int,
    floats_per_round: int,
    chunk: Optional[int],
    alone_floats_per_round: Optional[int] = None,
) -> int:
    """Rounds per pre-drawn block: explicit, or budget-capped default.

    The default budget is what a block of ``alone_floats_per_round``
    floats per round (default: ``floats_per_round``) would get by
    itself, so stacking row blocks shortens the chunk instead of
    growing the block's memory."""
    if chunk is None:
        alone = alone_floats_per_round or floats_per_round
        budget = min(
            DEFAULT_CHUNK_ROUNDS * alone, DEFAULT_CHUNK_BUDGET_BYTES // 8
        )
        chunk = max(1, budget // max(1, floats_per_round))
    return max(1, min(chunk, rounds))


def _uniform_blocks(
    streams: RowStreams,
    scratch: ScratchBuffers,
    name: str,
    rounds: int,
    round_shape: Tuple[int, ...],
    chunk: Optional[int],
) -> Iterator[np.ndarray]:
    """Yield ``(n, *round_shape)`` blocks of pre-drawn uniforms.

    ``round_shape[0]`` is the trials axis.  ``rng.random(out=block)``
    fills a block in C order from the same stream positions as ``n``
    sequential ``rng.random(round_shape)`` calls, so consuming blocks is
    bit-identical to the per-round draws of the naive loop — for any
    chunking.  With several row blocks, each block's rows are drawn from
    its own generator into a contiguous staging array and copied into
    place.
    """
    per_row = 1
    for extent in round_shape[1:]:
        per_row *= extent
    per_round = round_shape[0] * per_row
    widest = streams.widest * per_row
    single = len(streams.blocks) == 1
    # The stacked block and its staging array together get the budget
    # the widest row block would get alone.
    size = _chunk_size(
        rounds, per_round + (0 if single else widest), chunk, widest
    )
    block = scratch.get(name, (size,) + tuple(round_shape))
    if not single:
        staging = scratch.get(name + "_rows", (size * widest,))
    done = 0
    while done < rounds:
        count = min(size, rounds - done)
        view = block[:count]
        if single:
            streams.blocks[0][2].random(out=view)
        else:
            for start, stop, generator in streams.blocks:
                rows = staging[: count * (stop - start) * per_row].reshape(
                    (count, stop - start) + tuple(round_shape[1:])
                )
                generator.random(out=rows)
                view[:, start:stop] = rows
        yield view
        done += count


# -- registry -----------------------------------------------------------------

KernelFn = Callable[
    [IncentiveProtocol, EnsembleState, int, RowStreams,
     ScratchBuffers, Optional[int]],
    None,
]

_KERNELS: Dict[Type[IncentiveProtocol], KernelFn] = {}


def register_kernel(*protocol_types: Type[IncentiveProtocol]):
    """Class decorator registering a fused kernel for exact types."""

    def decorator(fn: KernelFn) -> KernelFn:
        for protocol_type in protocol_types:
            _KERNELS[protocol_type] = fn
        return fn

    return decorator


def find_kernel(protocol: IncentiveProtocol) -> Optional[KernelFn]:
    """The fused kernel for ``protocol``'s exact class, or None.

    Exact-type lookup (no MRO walk): a subclass may redefine ``step``,
    and a fused recurrence for the parent would silently diverge from
    it.  Unknown classes fall back to the naive loop instead.
    """
    return _KERNELS.get(type(protocol))


def can_fuse(protocol: IncentiveProtocol) -> bool:
    """Whether :func:`batched_advance` can advance stacked row blocks
    of ``protocol`` in one call.

    Unregistered protocols (and withholding over an inner lottery
    without a batched sampler) advance through the naive loop, which
    draws from one generator for the whole state; their blocks must be
    run one after another instead."""
    if find_kernel(protocol) is None:
        return False
    if isinstance(protocol, RewardWithholding):
        return type(protocol.inner) in _WITHHOLD_SAMPLERS
    return True


def batched_advance(
    protocol: IncentiveProtocol,
    state: EnsembleState,
    rounds: int,
    rng: Union[np.random.Generator, RowStreams],
    *,
    chunk: Optional[int] = None,
) -> None:
    """Advance ``state`` by ``rounds`` rounds through the fused kernels.

    Bit-identical to ``protocol.advance_many(state, rounds, rng)`` —
    same final arrays, same generator position — for every registered
    protocol and any ``chunk``; unregistered protocols delegate to the
    naive loop.  ``rng`` is a generator or, for a state stacking
    several ensembles, their :class:`RowStreams` (only for protocols
    that :func:`can_fuse`); each block then ends exactly as if it had
    been advanced alone.  ``chunk`` overrides the pre-drawn block
    length (default: :data:`DEFAULT_CHUNK_ROUNDS`, memory-capped).
    """
    rounds = ensure_positive_int("rounds", rounds)
    if chunk is not None:
        chunk = ensure_positive_int("chunk", chunk)
    streams = _as_streams(rng, state.trials)
    if len(streams.blocks) > 1 and not can_fuse(protocol):
        raise ValueError(
            f"{type(protocol).__name__} has no batched kernel for stacked "
            "row blocks; advance each block separately"
        )
    kernel = find_kernel(protocol)
    tracer = get_tracer()
    if kernel is None:
        generator = streams.blocks[0][2]
        if tracer.enabled:
            # Unregistered protocol: the segment runs the per-round
            # loop, so report it on the naive side of the time split.
            with tracer.span(
                "kernel.advance",
                mode="naive",
                protocol=protocol.name,
                rounds=rounds,
                trials=state.trials,
            ):
                protocol.advance_many(state, rounds, generator)
        else:
            protocol.advance_many(state, rounds, generator)
        return
    if state.scratch is None:
        state.scratch = ScratchBuffers()
    if tracer.enabled:
        with tracer.span(
            "kernel.advance",
            mode="batched",
            protocol=protocol.name,
            rounds=rounds,
            trials=state.trials,
        ):
            kernel(protocol, state, rounds, streams, state.scratch, chunk)
    else:
        kernel(protocol, state, rounds, streams, state.scratch, chunk)


# -- closed-form protocols ----------------------------------------------------


@register_kernel(ProofOfWork, NeoPoS)
def _advance_multinomial_jump(protocol, state, rounds, streams, scratch, chunk):
    """PoW/NEO: :meth:`ProofOfWork.advance_many`'s multinomial jump
    (one draw per trial for the whole segment), split by row block."""
    shares = state.stake_shares()
    counts = streams.multinomial(rounds, shares)
    state.rewards += protocol.reward * counts
    state.round_index += rounds


@register_kernel(AlgorandPoS)
def _advance_algorand(protocol, state, rounds, streams, scratch, chunk):
    """Algorand's deterministic multi-epoch jump draws nothing."""
    protocol.advance_many(state, rounds, None)


# -- proportional lottery on compounding stakes (the Polya urn) ---------------


def _advance_polya_two(protocol, state, rounds, streams, scratch, chunk):
    """ML-PoS two-miner fast path: the paper's headline configuration.

    Per round the naive loop pays ~12 dispatches plus allocations; this
    recurrence pays 9 allocation-free dispatches on contiguous
    ``(trials,)`` columns.  Identities relied upon (all bitwise):

    * ``stakes.sum(axis=1)`` for two columns is ``s0 + s1``;
    * the first CDF entry is ``s0 / total`` and the last is forced to
      1.0, so with uniforms in ``[0, 1)`` the winner index is exactly
      ``draw > s0 / total``;
    * crediting via ``+= w * won`` adds ``+0.0`` on losing lanes — a
      no-op for the non-negative stakes/rewards arrays.
    """
    trials = state.trials
    reward = protocol.reward
    stakes_t = scratch.get("polya2_stakes_t", (2, trials))
    rewards_t = scratch.get("polya2_rewards_t", (2, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stake_a, stake_b = stakes_t[0], stakes_t[1]
    reward_a, reward_b = rewards_t[0], rewards_t[1]
    total = scratch.get("polya2_total", (trials,))
    cdf_a = scratch.get("polya2_cdf_a", (trials,))
    gain_b = scratch.get("polya2_gain_b", (trials,))
    gain_a = scratch.get("polya2_gain_a", (trials,))
    for block in _uniform_blocks(
        streams, scratch, "polya2_draws", rounds, (trials,), chunk
    ):
        for draws in block:
            np.add(stake_a, stake_b, out=total)
            np.divide(stake_a, total, out=cdf_a)
            np.greater(draws, cdf_a, out=gain_b)  # 1.0 where B wins
            np.multiply(gain_b, reward, out=gain_b)
            np.subtract(reward, gain_b, out=gain_a)
            np.add(reward_b, gain_b, out=reward_b)
            np.add(stake_b, gain_b, out=stake_b)
            np.add(reward_a, gain_a, out=reward_a)
            np.add(stake_a, gain_a, out=stake_a)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


def _advance_polya_many(protocol, state, rounds, streams, scratch, chunk):
    """ML-PoS general-miner path on a transposed ``(miners, trials)``
    layout, so reductions and cumulative sums run along contiguous
    memory (axis-1 ops on ``(trials, miners)`` arrays are strided and
    no faster than the naive loop).  Reductions over the miner axis
    add elements in the same index order either way, so the transposed
    arithmetic is bit-identical.

    Three identities carry the fusion beyond the one-hot formulation
    (all bitwise):

    * ``np.cumsum(..., axis=0)`` is the row recurrence
      ``cdf[m] = cdf[m-1] + shares[m]`` — running it as M-1 contiguous
      row adds gives the same values without the pathologically
      strided axis-0 cumsum dispatch;
    * the last CDF row is forced to 1.0 and uniforms live in
      ``[0, 1)``, so ``draws > cdf[-1]`` is always false — the last
      row's divide/compare never affects the winner count and is
      skipped outright;
    * the credit is a flat-index scatter on the ``(winner, trial)``
      pairs — exactly the naive loop's ``stakes[rows, winners] += w``
      on the transposed layout (each trial appears once per round, so
      the scatter is well-defined), replacing the four full
      ``(miners, trials)`` passes of a one-hot masked credit with two
      ``(trials,)``-sized gathers/scatters.

    Together these lift the many-miner grids from ~1.5x to >3x over
    the naive loop."""
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    stakes_t = scratch.get("polya_stakes_t", (miners, trials))
    rewards_t = scratch.get("polya_rewards_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stakes_flat = stakes_t.reshape(-1)
    rewards_flat = rewards_t.reshape(-1)
    total = scratch.get("polya_total", (trials,))
    cdf_t = scratch.get("polya_cdf_t", (miners, trials))
    above = scratch.get("polya_above", (miners, trials), np.bool_)
    winners = scratch.get("polya_winners", (trials,), np.intp)
    flat_index = scratch.get("polya_flat_index", (trials,), np.intp)
    trial_index = scratch.get("polya_trial_index", (trials,), np.intp)
    trial_index[...] = np.arange(trials)
    for block in _uniform_blocks(
        streams, scratch, "polya_draws", rounds, (trials,), chunk
    ):
        for draws in block:
            np.sum(stakes_t, axis=0, out=total)
            np.divide(stakes_t[:-1], total, out=cdf_t[:-1])
            for row in range(1, miners - 1):
                np.add(cdf_t[row], cdf_t[row - 1], out=cdf_t[row])
            np.greater(draws, cdf_t[:-1], out=above[:-1])
            np.sum(above[:-1], axis=0, out=winners)
            np.multiply(winners, trials, out=flat_index)
            np.add(flat_index, trial_index, out=flat_index)
            rewards_flat[flat_index] += reward
            stakes_flat[flat_index] += reward
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


def _advance_categorical(protocol, state, rounds, streams, scratch, chunk):
    """Semi-fused path for categorical lotteries with a per-round law
    that is cheapest to obtain from ``protocol.win_probabilities``
    (ML-PoS exact race, Filecoin's mixed mining power): batch the
    uniforms, keep the per-round law/credit calls verbatim."""
    for block in _uniform_blocks(
        streams, scratch, "categorical_draws", rounds, (state.trials,), chunk
    ):
        for draws in block:
            winners = winners_from_uniforms(
                protocol.win_probabilities(state), draws
            )
            protocol.credit_reward(state, winners)
            state.round_index += 1


@register_kernel(MultiLotteryPoS)
def _advance_ml_pos(protocol, state, rounds, streams, scratch, chunk):
    if protocol.exact_race:
        _advance_categorical(protocol, state, rounds, streams, scratch, chunk)
    elif state.miners == 2:
        _advance_polya_two(protocol, state, rounds, streams, scratch, chunk)
    else:
        _advance_polya_many(protocol, state, rounds, streams, scratch, chunk)


@register_kernel(FilecoinStorage)
def _advance_filecoin(protocol, state, rounds, streams, scratch, chunk):
    """Filecoin's mixed mining power, fused on the transposed layout.

    The storage term is bitwise-constant across an advance (storage
    never changes and the naive loop recomputes the identical values
    every round), so ``theta * storage_shares`` is hoisted out of the
    loop; the per-round stake term, normalisation, inverse-CDF draw
    and credit all run allocation-free."""
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    theta = protocol.storage_weight
    stake_weight = 1.0 - protocol.storage_weight
    stakes_t = scratch.get("filecoin_stakes_t", (miners, trials))
    rewards_t = scratch.get("filecoin_rewards_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    storage_t = scratch.get("filecoin_storage_t", (miners, trials))
    storage_t[...] = state.extra["storage"].T
    total = scratch.get("filecoin_total", (trials,))
    storage_term = scratch.get("filecoin_storage_term", (miners, trials))
    np.sum(storage_t, axis=0, out=total)
    np.divide(storage_t, total, out=storage_term)
    np.multiply(storage_term, theta, out=storage_term)
    power_t = scratch.get("filecoin_power_t", (miners, trials))
    cdf_t = scratch.get("filecoin_cdf_t", (miners, trials))
    above = scratch.get("filecoin_above", (miners, trials), np.bool_)
    winners = scratch.get("filecoin_winners", (trials,), np.int64)
    one_hot = scratch.get("filecoin_one_hot", (miners, trials), np.bool_)
    gain_t = scratch.get("filecoin_gain_t", (miners, trials))
    columns = scratch.get("filecoin_columns", (miners, 1), np.int64)
    columns[...] = np.arange(miners)[:, None]
    for block in _uniform_blocks(
        streams, scratch, "filecoin_draws", rounds, (trials,), chunk
    ):
        for draws in block:
            np.sum(stakes_t, axis=0, out=total)
            np.divide(stakes_t, total, out=power_t)
            np.multiply(power_t, stake_weight, out=power_t)
            np.add(storage_term, power_t, out=power_t)
            np.sum(power_t, axis=0, out=total)
            np.divide(power_t, total, out=power_t)
            np.cumsum(power_t, axis=0, out=cdf_t)
            cdf_t[-1, :] = 1.0
            np.greater(draws, cdf_t, out=above)
            np.sum(above, axis=0, out=winners)
            np.equal(columns, winners, out=one_hot)
            np.multiply(one_hot, reward, out=gain_t)
            np.add(rewards_t, gain_t, out=rewards_t)
            np.add(stakes_t, gain_t, out=stakes_t)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


# -- earliest-deadline lotteries ----------------------------------------------


def _exponentiate_block(block: np.ndarray) -> None:
    """Turn a block of uniforms into exponential numerators, in place.

    ``-log1p(-u) = -ln(1 - u)`` — the FSL-PoS inverse transform.  The
    op sequence matches the naive sampler exactly, and the transform
    is elementwise, so hoisting it from the per-round loop to the
    whole pre-drawn block yields identical values."""
    np.negative(block, out=block)
    np.log1p(block, out=block)
    np.negative(block, out=block)


def _advance_deadline_two(
    protocol, state, rounds, streams, scratch, chunk, *, exponential: bool
):
    """Two-miner earliest-deadline fast path.

    ``argmin`` over two columns is exactly the strict comparison
    ``deadline_B < deadline_A`` (ties resolve to index 0 either way,
    and occur with probability zero), so a round reduces to two column
    divides, one compare and four adds on contiguous ``(trials,)``
    arrays — the ``+0.0`` on losing lanes is a bitwise no-op for the
    non-negative stakes/rewards."""
    trials = state.trials
    reward = protocol.reward
    stakes_t = scratch.get("deadline2_stakes_t", (2, trials))
    rewards_t = scratch.get("deadline2_rewards_t", (2, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stake_a, stake_b = stakes_t[0], stakes_t[1]
    reward_a, reward_b = rewards_t[0], rewards_t[1]
    deadline_a = scratch.get("deadline2_a", (trials,))
    deadline_b = scratch.get("deadline2_b", (trials,))
    gain_b = scratch.get("deadline2_gain_b", (trials,))
    gain_a = scratch.get("deadline2_gain_a", (trials,))
    for block in _uniform_blocks(
        streams, scratch, "deadline_draws", rounds, (trials, 2), chunk
    ):
        if exponential:
            _exponentiate_block(block)
        for numerators in block:
            np.divide(numerators[:, 0], stake_a, out=deadline_a)
            np.divide(numerators[:, 1], stake_b, out=deadline_b)
            np.less(deadline_b, deadline_a, out=gain_b)  # 1.0 where B wins
            np.multiply(gain_b, reward, out=gain_b)
            np.subtract(reward, gain_b, out=gain_a)
            np.add(reward_b, gain_b, out=reward_b)
            np.add(stake_b, gain_b, out=stake_b)
            np.add(reward_a, gain_a, out=reward_a)
            np.add(stake_a, gain_a, out=stake_a)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


def _advance_deadline(
    protocol, state, rounds, streams, scratch, chunk, *, exponential: bool
):
    """SL-PoS (uniform deadlines) and FSL-PoS/Wave/Vixify (exponential
    deadlines): pre-draw ``(chunk, trials, miners)`` uniforms, compute
    deadlines in place, arg-min, credit via one-hot adds."""
    if state.miners == 2:
        _advance_deadline_two(
            protocol, state, rounds, streams, scratch, chunk,
            exponential=exponential,
        )
        return
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    deadlines = scratch.get("deadline_buf", (trials, miners))
    winners = scratch.get("deadline_winners", (trials,), np.intp)
    one_hot = scratch.get("deadline_one_hot", (trials, miners), np.bool_)
    gain = scratch.get("deadline_gain", (trials, miners))
    columns = scratch.get("deadline_columns", (miners,), np.intp)
    columns[...] = np.arange(miners)
    for block in _uniform_blocks(
        streams, scratch, "deadline_draws", rounds, (trials, miners), chunk
    ):
        if exponential:
            _exponentiate_block(block)
        for numerators in block:
            np.divide(numerators, state.stakes, out=deadlines)
            np.argmin(deadlines, axis=1, out=winners)
            np.equal(winners[:, None], columns, out=one_hot)
            np.multiply(one_hot, reward, out=gain)
            np.add(state.rewards, gain, out=state.rewards)
            np.add(state.stakes, gain, out=state.stakes)
    state.round_index += rounds


@register_kernel(SingleLotteryPoS)
def _advance_sl_pos(protocol, state, rounds, streams, scratch, chunk):
    _advance_deadline(
        protocol, state, rounds, streams, scratch, chunk, exponential=False
    )


@register_kernel(FairSingleLotteryPoS, WavePoS, VixifyPoS)
def _advance_fsl_pos(protocol, state, rounds, streams, scratch, chunk):
    _advance_deadline(
        protocol, state, rounds, streams, scratch, chunk, exponential=True
    )


# -- compound PoS -------------------------------------------------------------


@register_kernel(CompoundPoS)
def _advance_c_pos(protocol, state, rounds, streams, scratch, chunk):
    """C-PoS epoch loop with scratch reuse.  The multinomial proposer
    draw depends on the evolving shares, so it stays a per-epoch
    ``multinomial`` call per row block (same consumption as the naive
    loop); the share/income arithmetic runs allocation-free."""
    trials, miners = state.trials, state.miners
    proposer_reward = protocol.proposer_reward
    inflation_reward = protocol.inflation_reward
    shards = protocol.shards
    total = scratch.get("cpos_total", (trials, 1))
    shares = scratch.get("cpos_shares", (trials, miners))
    income = scratch.get("cpos_income", (trials, miners))
    inflation = scratch.get("cpos_inflation", (trials, miners))
    for _ in range(rounds):
        np.sum(state.stakes, axis=1, keepdims=True, out=total)
        np.divide(state.stakes, total, out=shares)
        shard_wins = streams.multinomial(shards, shares)
        np.multiply(shard_wins, proposer_reward, out=income)
        np.divide(income, shards, out=income)
        np.multiply(shares, inflation_reward, out=inflation)
        np.add(income, inflation, out=income)
        np.add(state.rewards, income, out=state.rewards)
        np.add(state.stakes, income, out=state.stakes)
        state.round_index += 1


@register_kernel(BlockGranularCompoundPoS)
def _advance_c_pos_block(protocol, state, rounds, streams, scratch, chunk):
    """Block-granular C-PoS: the committee CDF is frozen for a whole
    epoch, so it is computed once per epoch instead of once per block;
    proposer draws come from pre-drawn uniform blocks."""
    trials, miners = state.trials, state.miners
    shards = protocol.shards
    block_reward = protocol.proposer_reward / shards
    inflation_reward = protocol.inflation_reward
    cdf = scratch.get("cposb_cdf", (trials, miners))
    above = scratch.get("cposb_above", (trials, miners), np.bool_)
    winners = scratch.get("cposb_winners", (trials,), np.int64)
    one_hot = scratch.get("cposb_one_hot", (trials, miners), np.bool_)
    gain = scratch.get("cposb_gain", (trials, miners))
    inflation = scratch.get("cposb_inflation", (trials, miners))
    columns = scratch.get("cposb_columns", (miners,), np.int64)
    columns[...] = np.arange(miners)
    # A segment may start mid-epoch: rebuild the CDF of the stored
    # committee shares before the first block either way.
    refresh_cdf = True
    for block in _uniform_blocks(
        streams, scratch, "cposb_draws", rounds, (trials,), chunk
    ):
        for draws in block:
            position = state.round_index % shards
            if position == 0:
                # New epoch: committee drawn from the current stakes.
                state.extra["epoch_shares"] = state.stake_shares()
                refresh_cdf = True
            shares = state.extra["epoch_shares"]
            if refresh_cdf:
                np.cumsum(shares, axis=1, out=cdf)
                cdf[:, -1] = 1.0
                refresh_cdf = False
            np.greater(draws[:, None], cdf, out=above)
            np.sum(above, axis=1, out=winners)
            np.equal(winners[:, None], columns, out=one_hot)
            np.multiply(one_hot, block_reward, out=gain)
            np.add(state.rewards, gain, out=state.rewards)
            np.add(state.stakes, gain, out=state.stakes)
            if position == shards - 1 and inflation_reward > 0.0:
                np.multiply(shares, inflation_reward, out=inflation)
                np.add(state.rewards, inflation, out=state.rewards)
                np.add(state.stakes, inflation, out=state.stakes)
            state.round_index += 1


# -- delegate committee -------------------------------------------------------


@register_kernel(EOSDelegatedPoS)
def _advance_eos(protocol, state, rounds, streams, scratch, chunk):
    """EOS epochs are deterministic given the shares; no draws to
    batch, but the share/income arithmetic runs allocation-free on the
    transposed layout (contiguous reductions)."""
    trials, miners = state.trials, state.miners
    flat = protocol._proposer_reward / miners
    inflation_reward = protocol._inflation_reward
    stakes_t = scratch.get("eos_stakes_t", (miners, trials))
    rewards_t = scratch.get("eos_rewards_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    total = scratch.get("eos_total", (trials,))
    income_t = scratch.get("eos_income_t", (miners, trials))
    for _ in range(rounds):
        np.sum(stakes_t, axis=0, out=total)
        np.divide(stakes_t, total, out=income_t)
        np.multiply(income_t, inflation_reward, out=income_t)
        np.add(income_t, flat, out=income_t)
        np.add(rewards_t, income_t, out=rewards_t)
        if protocol.compound:
            np.add(stakes_t, income_t, out=stakes_t)
        state.round_index += 1
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T


# -- reward withholding -------------------------------------------------------


def _withhold_winners_categorical(inner, state, uniforms):
    """Winner indices for categorical inners, from given uniforms."""
    return winners_from_uniforms(inner.win_probabilities(state), uniforms)


def _withhold_winners_uniform_deadline(inner, state, uniforms):
    return np.argmin(uniforms / state.stakes, axis=1)


def _withhold_winners_exponential_deadline(inner, state, uniforms):
    return np.argmin(-np.log1p(-uniforms) / state.stakes, axis=1)


#: Exact inner type -> (per-round uniform layout, winner function).
#: "proportional" inners (win law = stake_shares of the *vested*
#: stakes) get the fully fused transposed path instead of a winner fn.
_WITHHOLD_SAMPLERS = {
    MultiLotteryPoS: ("proportional", None),
    ProofOfWork: ("proportional", None),
    NeoPoS: ("proportional", None),
    FilecoinStorage: ("trial", _withhold_winners_categorical),
    SingleLotteryPoS: ("trial_miner", _withhold_winners_uniform_deadline),
    FairSingleLotteryPoS: ("trial_miner", _withhold_winners_exponential_deadline),
    WavePoS: ("trial_miner", _withhold_winners_exponential_deadline),
    VixifyPoS: ("trial_miner", _withhold_winners_exponential_deadline),
}


def _advance_withholding_proportional(
    protocol, state, rounds, streams, scratch, chunk
):
    """Fused path for withholding over a proportional inner lottery
    (ML-PoS, PoW, NEO — their win law is ``stake_shares`` of the
    vested stakes).  Transposed layout for contiguous reductions;
    credits land in rewards and the pending-vesting buffer, and the
    buffer folds into stakes at period boundaries exactly as the
    wrapper's ``credit_reward`` does."""
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    period = protocol.vesting_period
    pending = state.extra["pending"]
    stakes_t = scratch.get("withhold_stakes_t", (miners, trials))
    rewards_t = scratch.get("withhold_rewards_t", (miners, trials))
    pending_t = scratch.get("withhold_pending_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    pending_t[...] = pending.T
    total = scratch.get("withhold_total", (trials,))
    shares_t = scratch.get("withhold_shares_t", (miners, trials))
    cdf_t = scratch.get("withhold_cdf_t", (miners, trials))
    above = scratch.get("withhold_above", (miners, trials), np.bool_)
    winners = scratch.get("withhold_winners", (trials,), np.int64)
    one_hot = scratch.get("withhold_one_hot_t", (miners, trials), np.bool_)
    gain_t = scratch.get("withhold_gain_t", (miners, trials))
    columns = scratch.get("withhold_columns_t", (miners, 1), np.int64)
    columns[...] = np.arange(miners)[:, None]
    for block in _uniform_blocks(
        streams, scratch, "withhold_draws", rounds, (trials,), chunk
    ):
        for draws in block:
            np.sum(stakes_t, axis=0, out=total)
            np.divide(stakes_t, total, out=shares_t)
            np.cumsum(shares_t, axis=0, out=cdf_t)
            cdf_t[-1, :] = 1.0
            np.greater(draws, cdf_t, out=above)
            np.sum(above, axis=0, out=winners)
            np.equal(columns, winners, out=one_hot)
            np.multiply(one_hot, reward, out=gain_t)
            np.add(rewards_t, gain_t, out=rewards_t)
            np.add(pending_t, gain_t, out=pending_t)
            if (state.round_index + 1) % period == 0:
                np.add(stakes_t, pending_t, out=stakes_t)
                pending_t[...] = 0.0
            state.round_index += 1
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    pending[...] = pending_t.T


@register_kernel(RewardWithholding)
def _advance_withholding(protocol, state, rounds, streams, scratch, chunk):
    """Vesting wrapper: batch the inner lottery's uniforms; replay the
    wrapper's credit/vesting logic round by round (vesting boundaries
    depend on the running round index)."""
    sampler = _WITHHOLD_SAMPLERS.get(type(protocol.inner))
    if sampler is None:
        # Not can_fuse: batched_advance only gets here with one block.
        protocol.advance_many(state, rounds, streams.blocks[0][2])
        return
    layout, winner_fn = sampler
    if layout == "proportional":
        inner = protocol.inner
        if isinstance(inner, MultiLotteryPoS) and inner.exact_race:
            layout, winner_fn = "trial", _withhold_winners_categorical
        else:
            _advance_withholding_proportional(
                protocol, state, rounds, streams, scratch, chunk
            )
            return
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    period = protocol.vesting_period
    pending = state.extra["pending"]
    round_shape = (trials,) if layout == "trial" else (trials, miners)
    one_hot = scratch.get("withhold_one_hot", (trials, miners), np.bool_)
    gain = scratch.get("withhold_gain", (trials, miners))
    columns = scratch.get("withhold_columns", (miners,), np.intp)
    columns[...] = np.arange(miners)
    for block in _uniform_blocks(
        streams, scratch, "withhold_draws", rounds, round_shape, chunk
    ):
        for uniforms in block:
            winners = winner_fn(protocol.inner, state, uniforms)
            np.equal(winners[:, None], columns, out=one_hot)
            np.multiply(one_hot, reward, out=gain)
            np.add(state.rewards, gain, out=state.rewards)
            np.add(pending, gain, out=pending)
            if (state.round_index + 1) % period == 0:
                state.stakes += pending
                pending[:] = 0.0
            state.round_index += 1
