"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.core.results import merge_parts
from repro.runtime.runner import _run_simulation_shard, _run_system_shard
from repro.runtime.sharding import plan_shards
from repro.runtime.spec import SystemSpec
from repro.sim.rng import RandomSource


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def source() -> RandomSource:
    """A fixed-seed hierarchical random source."""
    return RandomSource(12345)


@pytest.fixture
def two_miners() -> Allocation:
    """The paper's default allocation: A holds 20%."""
    return Allocation.two_miners(0.2)


@pytest.fixture
def five_miners() -> Allocation:
    """Table 1 style: A holds 20%, four others split the rest."""
    return Allocation.focal_vs_equal(0.2, 5)


def _hand_merge(spec, shards: int):
    """Run every shard of ``spec``'s plan by hand, in plan order, and
    ``merge_parts`` the collected list — the collect-then-merge
    reference the runner's streaming fold must reproduce bit for bit."""
    if isinstance(spec, SystemSpec):
        total, run_shard = spec.repeats, _run_system_shard
    else:
        total, run_shard = spec.trials, _run_simulation_shard
    plan = plan_shards(total, spec.seed_sequence, min(total, shards))
    return merge_parts([run_shard((spec, shard)) for shard in plan])


@pytest.fixture(scope="session")
def hand_merge():
    """``hand_merge(spec, shards)``: see :func:`_hand_merge`."""
    return _hand_merge
