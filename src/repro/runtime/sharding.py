"""Deterministic splitting of ensemble work into shards.

A *shard plan* divides a spec's ``trials`` (or a system experiment's
``repeats``) into contiguous chunks, each with its own root seed
spawned from the spec's :class:`~numpy.random.SeedSequence`.  Two
invariants make parallelism safe:

* the plan is a pure function of ``(total, seed, count)`` — it never
  depends on the worker count, so the same plan executed serially or
  on eight processes yields bit-identical shard results;
* shard seeds come from :meth:`SeedSequence.spawn`, so the shards'
  random streams are provably non-overlapping and the merged ensemble
  is statistically indistinguishable from a single-stream run.

Merging shard results in index order (``EnsembleResult.merge``) then
gives bit-identical merged arrays for any executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .._validation import ensure_positive_int

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "pristine_sequence",
    "split_evenly",
]

#: Default number of shards for a parallel run.  Deliberately a fixed
#: constant rather than the worker count, so default plans (and hence
#: merged results) are identical across machines with different
#: parallelism.
DEFAULT_SHARD_COUNT = 8


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` items into ``parts`` balanced, deterministic chunks.

    The first ``total % parts`` chunks receive one extra item, so chunk
    sizes differ by at most one and the split is reproducible.
    """
    total = ensure_positive_int("total", total)
    parts = ensure_positive_int("parts", parts)
    if parts > total:
        raise ValueError(f"cannot split {total} items into {parts} shards")
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]


def pristine_sequence(seed: np.random.SeedSequence) -> np.random.SeedSequence:
    """A copy of ``seed`` that has spawned no children yet.

    :meth:`SeedSequence.spawn` is stateful (``n_children_spawned``), so
    spawning from a shared sequence changes what the *next* spawn
    returns.  Everything that must be a pure function of a seed — a
    shard plan, a shard body run twice — spawns from a pristine copy.
    """
    return np.random.SeedSequence(
        entropy=seed.entropy,
        spawn_key=seed.spawn_key,
        pool_size=seed.pool_size,
    )


@dataclass(frozen=True)
class Shard:
    """One unit of ensemble work: a chunk of trials with its own seed."""

    index: int
    trials: int
    seed: np.random.SeedSequence

    def __repr__(self) -> str:
        return f"Shard(index={self.index}, trials={self.trials})"


@dataclass(frozen=True)
class ShardPlan:
    """An ordered, seeded division of ``total`` trials into shards."""

    shards: Tuple[Shard, ...]
    total: int

    def __post_init__(self) -> None:
        if sum(s.trials for s in self.shards) != self.total:
            raise ValueError("shard trials must sum to the plan total")

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __repr__(self) -> str:
        sizes = [s.trials for s in self.shards]
        return f"ShardPlan(total={self.total}, sizes={sizes})"


def plan_shards(
    total: int,
    seed: np.random.SeedSequence,
    count: Optional[int] = None,
) -> ShardPlan:
    """Build the shard plan for ``total`` trials under ``seed``.

    ``count`` defaults to :data:`DEFAULT_SHARD_COUNT` clamped to
    ``total``.  Shard seeds are the first ``count`` spawned children of
    ``seed``, assigned in order.
    """
    total = ensure_positive_int("total", total)
    if not isinstance(seed, np.random.SeedSequence):
        raise TypeError(
            f"seed must be a numpy SeedSequence, got {type(seed).__name__}"
        )
    if count is None:
        count = min(total, DEFAULT_SHARD_COUNT)
    else:
        count = ensure_positive_int("count", count)
    sizes = split_evenly(total, count)
    # Re-planning the same spec has to yield the same shards.
    children = pristine_sequence(seed).spawn(count)
    shards = tuple(
        Shard(index=i, trials=size, seed=child)
        for i, (size, child) in enumerate(zip(sizes, children))
    )
    return ShardPlan(shards=shards, total=total)
