"""Differential tests: fused shard groups vs shards run one at a time.

The runtime runs each task as a *group* of contiguous shards of one
spec, stacked into one state and advanced by one kernel call per
segment.  Every shard keeps its own generator and its own rows, so the
group's per-shard parts must be byte-identical to running each shard
alone through :func:`~repro.runtime.runner._simulation_shard_body` —
for every registered kernel, miner count, checkpoint/event schedule,
reduce mode and shard-size mix, and through every executor backend.
"""

import numpy as np
import pytest

from repro.chainsim.harness import SystemExperiment
from repro.core.miners import Allocation
from repro.core.results import EnsembleResult
from repro.core.stats import StatsSummary
from repro.protocols import (
    AlgorandPoS,
    BlockGranularCompoundPoS,
    CompoundPoS,
    EOSDelegatedPoS,
    FairSingleLotteryPoS,
    FilecoinStorage,
    MultiLotteryPoS,
    NeoPoS,
    ProofOfWork,
    RewardWithholding,
    SingleLotteryPoS,
    VixifyPoS,
    WavePoS,
)
from repro.runtime import ParallelRunner, RetryPolicy, SimulationSpec, SystemSpec
from repro.runtime import runner as runner_module
from repro.runtime.faults import TransientShardError
from repro.runtime.runner import (
    _pack_groups,
    _simulation_group_body,
    _simulation_shard_body,
    _system_shard_body,
)
from repro.runtime.sharding import Shard, plan_shards
from repro.sim import kernels
from repro.sim.engine import MonteCarloEngine
from repro.sim.events import MinerOutage, MinerRecovery, StakeTopUp
from repro.sim.kernels import GROUP_MAX_ROWS, RowStreams, batched_advance, can_fuse

HORIZON = 40

#: Every registered kernel, plus the withholding wrapper over each
#: distinct inner sampler layout (proportional, categorical per trial,
#: deadline per trial and miner, exact race).
PROTOCOLS = {
    "pow": lambda: ProofOfWork(0.01),
    "neo": lambda: NeoPoS(0.01),
    "algorand": lambda: AlgorandPoS(0.05),
    "ml-pos": lambda: MultiLotteryPoS(0.05),
    "ml-pos-exact": lambda: MultiLotteryPoS(0.02, exact_race=True),
    "sl-pos": lambda: SingleLotteryPoS(0.05),
    "fsl-pos": lambda: FairSingleLotteryPoS(0.05),
    "wave": lambda: WavePoS(0.05),
    "vixify": lambda: VixifyPoS(0.05),
    "filecoin": lambda: FilecoinStorage(0.05, storage_weight=0.4),
    "c-pos": lambda: CompoundPoS(0.05, 0.1, shards=4),
    "c-pos-block": lambda: BlockGranularCompoundPoS(0.05, 0.1, shards=4),
    "eos": lambda: EOSDelegatedPoS(0.05, 0.1),
    "withhold-ml": lambda: RewardWithholding(MultiLotteryPoS(0.05), 7),
    "withhold-ml-exact": lambda: RewardWithholding(
        MultiLotteryPoS(0.05, exact_race=True), 7
    ),
    "withhold-filecoin": lambda: RewardWithholding(FilecoinStorage(0.05), 7),
    "withhold-sl": lambda: RewardWithholding(SingleLotteryPoS(0.05), 7),
    "withhold-fsl": lambda: RewardWithholding(FairSingleLotteryPoS(0.05), 7),
    "withhold-pow": lambda: RewardWithholding(ProofOfWork(0.05), 7),
}

#: (checkpoints, events) schedules.
SCENARIOS = {
    "one-checkpoint": dict(checkpoints=(HORIZON,), events=()),
    "many-checkpoints": dict(checkpoints=None, events=()),
    "events": dict(
        checkpoints=(5, 12, 30, HORIZON),
        events=(
            StakeTopUp(round_index=0, miner=1, amount=0.2),
            MinerOutage(round_index=9, miner=0),
            MinerRecovery(round_index=21, miner=0),
        ),
    ),
}

class UnregisteredPoS(MultiLotteryPoS):
    """A subclass: exact-type kernel lookup sends it to the naive loop."""


#: Deliberately uneven: a one-trial shard among larger ones.
SHARD_SIZES = (1, 2, 9, 3)


def allocation_for(miners):
    if miners == 2:
        return Allocation.two_miners(0.2)
    return Allocation.focal_vs_equal(0.2, miners)


def uneven_shards(seed=5, sizes=SHARD_SIZES):
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return tuple(
        Shard(index=i, trials=size, seed=child)
        for i, (size, child) in enumerate(zip(sizes, children))
    )


def make_spec(protocol, miners=2, scenario="many-checkpoints", **overrides):
    fields = dict(
        protocol=protocol,
        allocation=allocation_for(miners),
        trials=sum(SHARD_SIZES),
        horizon=HORIZON,
        seed=3,
        **SCENARIOS[scenario],
    )
    fields.update(overrides)
    return SimulationSpec(**fields)


def assert_part_equal(got, expected):
    """Byte-for-byte equality of two shard parts of either mode."""
    assert type(got) is type(expected)
    assert got.checkpoints.tobytes() == expected.checkpoints.tobytes()
    assert got.protocol_name == expected.protocol_name
    assert got.allocation == expected.allocation
    assert got.round_unit == expected.round_unit
    if isinstance(expected, StatsSummary):
        assert got.state_meta() == expected.state_meta()
        got_arrays, expected_arrays = got.state_arrays(), expected.state_arrays()
        assert set(got_arrays) == set(expected_arrays)
        for key, array in expected_arrays.items():
            assert got_arrays[key].tobytes() == array.tobytes(), key
        return
    assert isinstance(expected, EnsembleResult)
    assert got.reward_fractions.tobytes() == expected.reward_fractions.tobytes()
    if expected.terminal_stakes is None:
        assert got.terminal_stakes is None
    else:
        assert got.terminal_stakes.tobytes() == expected.terminal_stakes.tobytes()


def assert_group_matches_shards(spec, shards):
    parts = _simulation_group_body(spec, shards)
    assert len(parts) == len(shards)
    for shard, part in zip(shards, parts):
        assert part.trials == shard.trials
        assert_part_equal(part, _simulation_shard_body(spec, shard))


class TestFusedGroupDifferential:
    @pytest.mark.parametrize("reduce", ["full", "stats"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("miners", [2, 3, 10])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_group_parts_equal_single_shards(
        self, name, miners, scenario, reduce
    ):
        if "exact" in name and miners != 2:
            pytest.skip("exact_race is only defined for two-miner games")
        spec = make_spec(PROTOCOLS[name](), miners, scenario, reduce=reduce)
        assert_group_matches_shards(spec, uneven_shards())

    @pytest.mark.parametrize("name", ["ml-pos", "sl-pos", "c-pos"])
    def test_plan_shards_without_terminal_stakes(self, name):
        spec = make_spec(
            PROTOCOLS[name](), trials=23, record_terminal_stakes=False
        )
        plan = plan_shards(spec.trials, spec.seed_sequence, 4)
        assert_group_matches_shards(spec, tuple(plan))

    @pytest.mark.parametrize("reduce", ["full", "stats"])
    def test_naive_kernel_runs_blocks_in_turn(self, reduce):
        spec = make_spec(
            SingleLotteryPoS(0.05), 3, "events", kernel="naive", reduce=reduce
        )
        assert_group_matches_shards(spec, uneven_shards())

    @pytest.mark.parametrize("reduce", ["full", "stats"])
    def test_unregistered_subclass_runs_blocks_in_turn(self, reduce):
        protocol = UnregisteredPoS(0.05)
        assert not can_fuse(protocol)
        spec = make_spec(protocol, 3, "events", reduce=reduce)
        assert_group_matches_shards(spec, uneven_shards())
        # The fallback is the naive loop, so it matches the registered
        # parent's kernel bit for bit as well.
        parent = make_spec(MultiLotteryPoS(0.05), 3, "events", reduce=reduce)
        for got, expected in zip(
            _simulation_group_body(spec, uneven_shards()),
            _simulation_group_body(parent, uneven_shards()),
        ):
            assert_part_equal(got, expected)

    def test_withholding_over_unregistered_inner_runs_blocks_in_turn(self):
        protocol = RewardWithholding(UnregisteredPoS(0.05), 5)
        assert kernels.find_kernel(protocol) is not None
        assert not can_fuse(protocol)
        spec = make_spec(protocol, 3, "events")
        assert_group_matches_shards(spec, uneven_shards())


class TestOneKernelCallPerSegment:
    def _count_calls(self, monkeypatch, spec, shards):
        calls = []
        original = kernels.batched_advance

        def counting(protocol, state, rounds, rng, **kwargs):
            calls.append(state.trials)
            return original(protocol, state, rounds, rng, **kwargs)

        monkeypatch.setattr("repro.sim.engine.batched_advance", counting)
        _simulation_group_body(spec, shards)
        return calls

    def test_fusable_group_is_one_stacked_call(self, monkeypatch):
        spec = make_spec(SingleLotteryPoS(0.05), scenario="one-checkpoint")
        shards = uneven_shards(sizes=(3, 9, 4, 6))
        calls = self._count_calls(monkeypatch, spec, shards)
        assert calls == [22]

    def test_one_row_shard_runs_alone(self, monkeypatch):
        # A (miners, 1) reduction sums in a different order than a
        # stacked row's, so one-row shards are never stacked.
        spec = make_spec(SingleLotteryPoS(0.05), scenario="one-checkpoint")
        calls = self._count_calls(monkeypatch, spec, uneven_shards())
        assert calls == [1, sum(SHARD_SIZES) - 1]

    def test_unfusable_group_is_one_call_per_shard(self, monkeypatch):
        protocol = RewardWithholding(UnregisteredPoS(0.05), 5)
        spec = make_spec(protocol, scenario="one-checkpoint")
        calls = self._count_calls(monkeypatch, spec, uneven_shards())
        assert calls == list(SHARD_SIZES)


class TestRowStreams:
    def test_stacked_uniforms_match_each_generator_alone(self):
        sizes = (3, 5, 2)
        streams = RowStreams([
            (n, np.random.default_rng(seed)) for seed, n in enumerate(sizes)
        ])
        blocks = np.concatenate(list(kernels._uniform_blocks(
            streams, kernels.ScratchBuffers(), "u", 37, (10, 2), chunk=None
        )))
        start = 0
        for seed, n in enumerate(sizes):
            alone = np.random.default_rng(seed).random((37, n, 2))
            assert blocks[:, start:start + n].tobytes() == alone.tobytes()
            start += n

    def test_stacked_multinomial_matches_each_generator_alone(self):
        pvals = np.random.default_rng(9).dirichlet(np.ones(3), size=7)
        streams = RowStreams([
            (4, np.random.default_rng(1)), (3, np.random.default_rng(2))
        ])
        got = streams.multinomial(32, pvals)
        assert got[:4].tobytes() == (
            np.random.default_rng(1).multinomial(32, pvals[:4]).tobytes()
        )
        assert got[4:].tobytes() == (
            np.random.default_rng(2).multinomial(32, pvals[4:]).tobytes()
        )

    def test_stacked_draws_never_outgrow_the_widest_block_alone(self):
        def drawn_bytes(sizes):
            streams = RowStreams([
                (n, np.random.default_rng(seed)) for seed, n in enumerate(sizes)
            ])
            scratch = kernels.ScratchBuffers()
            for _ in kernels._uniform_blocks(
                streams, scratch, "u", 10_000, (sum(sizes), 3), chunk=None
            ):
                pass
            return scratch.nbytes

        alone = drawn_bytes((500,))
        assert alone == kernels.DEFAULT_CHUNK_ROUNDS * 500 * 3 * 8
        assert drawn_bytes((500, 500, 499, 500)) <= alone

    def test_unfusable_protocol_rejects_stacked_streams(self):
        protocol = RewardWithholding(UnregisteredPoS(0.05), 5)
        state = protocol.make_state(Allocation.two_miners(0.2), 5)
        streams = RowStreams([
            (2, np.random.default_rng(0)), (3, np.random.default_rng(1))
        ])
        with pytest.raises(ValueError, match="stacked row blocks"):
            batched_advance(protocol, state, 3, streams)

    def test_row_count_must_match_the_state(self):
        state = ProofOfWork(0.01).make_state(Allocation.two_miners(0.2), 5)
        with pytest.raises(ValueError, match="cover 4 rows"):
            batched_advance(
                ProofOfWork(0.01), state, 3,
                RowStreams([(4, np.random.default_rng(0))]),
            )


class TestEngineBlocks:
    def test_blocks_return_one_result_per_block(self):
        protocol, allocation = MultiLotteryPoS(0.05), Allocation.two_miners(0.2)
        blocks = [(3, 11), (8, 12)]
        stacked = MonteCarloEngine(protocol, allocation, blocks=blocks).run(50)
        assert isinstance(stacked, list) and len(stacked) == 2
        for (trials, seed), got in zip(blocks, stacked):
            alone = MonteCarloEngine(
                protocol, allocation, trials=trials, seed=seed
            ).run(50)
            assert_part_equal(got, alone)

    def test_single_block_engine_returns_a_result(self):
        result = MonteCarloEngine(
            ProofOfWork(0.01), Allocation.two_miners(0.2), trials=4, seed=1
        ).run(20)
        assert isinstance(result, EnsembleResult)

    def test_empty_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MonteCarloEngine(
                ProofOfWork(0.01), Allocation.two_miners(0.2), blocks=[]
            )


class TestPackGroups:
    def _shards(self, sizes):
        return uneven_shards(sizes=sizes)

    def test_groups_are_contiguous_and_cover_every_ordinal(self):
        spec = make_spec(ProofOfWork(0.01))
        shards = self._shards((5,) * 8)
        for least in range(1, 10):
            groups = _pack_groups(spec, shards, list(range(8)), least)
            assert [o for g in groups for o in g] == list(range(8))
            assert len(groups) == min(8, least)
            assert all(list(g) == list(range(g[0], g[-1] + 1)) for g in groups)

    def test_row_cap_splits_large_specs(self):
        spec = make_spec(ProofOfWork(0.01), checkpoints=(HORIZON,))
        shards = self._shards((1000,) * 8)
        groups = _pack_groups(spec, shards, list(range(8)), 1)
        assert len(groups) > 1
        for group in groups:
            assert sum(shards[o].trials for o in group) <= GROUP_MAX_ROWS

    def test_byte_cap_keeps_stats_groups_small(self):
        # Fifty checkpoints of per-bin histograms are most of a MiB per
        # shard, so stats groups hold a single shard.
        spec = make_spec(ProofOfWork(0.01), reduce="stats")
        shards = self._shards((10,) * 8)
        groups = _pack_groups(spec, shards, list(range(8)), 1)
        assert groups == [(o,) for o in range(8)]

    def test_resumed_ordinals_keep_their_gaps(self):
        spec = make_spec(ProofOfWork(0.01))
        shards = self._shards((5,) * 8)
        groups = _pack_groups(spec, shards, [1, 2, 5, 7], 2)
        assert groups == [(1, 2), (5, 7)]


GRID = [
    dict(protocol=SingleLotteryPoS(0.02), trials=37, seed=1),
    dict(protocol=CompoundPoS(0.05, 0.1, shards=4), trials=29, seed=2),
    dict(protocol=MultiLotteryPoS(0.05), trials=41, seed=3, reduce="stats"),
    dict(protocol=FairSingleLotteryPoS(0.02), trials=5, seed=4,
         allocation=Allocation.focal_vs_equal(0.2, 3)),
]


def grid_specs():
    specs = []
    for fields in GRID:
        fields = dict(fields)
        fields.setdefault("allocation", Allocation.two_miners(0.2))
        specs.append(SimulationSpec(horizon=HORIZON, **fields))
    return specs


class TestRunManyDifferential:
    @pytest.mark.parametrize(
        "workers,backend",
        [(1, "processes"), (2, "threads"), (3, "threads"), (2, "processes")],
    )
    def test_run_many_equals_hand_merge(self, workers, backend, hand_merge):
        specs = grid_specs()
        runner = ParallelRunner(workers=workers, backend=backend)
        for got, spec in zip(runner.run_many(specs, shards=6), specs):
            assert_part_equal(got, hand_merge(spec, 6))

    def test_lone_spec_feeds_every_worker(self, hand_merge):
        spec = grid_specs()[0]
        for workers in (1, 2, 4):
            got = ParallelRunner(workers=workers, backend="threads").run(
                spec, shards=8
            )
            assert_part_equal(got, hand_merge(spec, 8))

    def test_row_capped_spec_equals_hand_merge(self, hand_merge):
        spec = SimulationSpec(
            ProofOfWork(0.01), Allocation.two_miners(0.2),
            trials=3 * GROUP_MAX_ROWS, horizon=20, checkpoints=(10, 20), seed=8,
        )
        got = ParallelRunner(workers=1).run(spec, shards=8)
        assert_part_equal(got, hand_merge(spec, 8))


class TestShardBodiesArePure:
    """A shard body must not change its input: running it again — a
    retry, a degrade-to-serial re-run — draws exactly the same bits."""

    def test_simulation_shard_runs_twice_identically(self):
        spec = make_spec(SingleLotteryPoS(0.05), 3, "events")
        shard = uneven_shards()[1]
        assert_part_equal(
            _simulation_shard_body(spec, shard),
            _simulation_shard_body(spec, shard),
        )

    def test_simulation_group_runs_twice_identically(self):
        spec = make_spec(CompoundPoS(0.05, 0.1, shards=4), 3)
        shards = uneven_shards()
        for first, second in zip(
            _simulation_group_body(spec, shards),
            _simulation_group_body(spec, shards),
        ):
            assert_part_equal(first, second)

    def test_system_shard_runs_twice_identically(self):
        spec = SystemSpec(
            SystemExperiment("ml-pos", Allocation.two_miners(0.2)),
            rounds=20, repeats=4, seed=3,
        )
        shard = plan_shards(4, spec.seed_sequence, 2).shards[1]
        first = _system_shard_body(spec, shard)
        second = _system_shard_body(spec, shard)
        assert first.reward_fractions.tobytes() == (
            second.reward_fractions.tobytes()
        )

    @pytest.mark.parametrize(
        "workers,backend",
        [pytest.param(1, "processes", id="serial"),
         pytest.param(2, "threads", id="threads")],
    )
    def test_retry_after_the_kernel_ran_is_bit_identical(
        self, workers, backend, monkeypatch, hand_merge
    ):
        # Serial and thread retries hand the *same* task objects to the
        # second attempt; a fault raised after the kernel consumed the
        # shards' seeds must not change what the retry draws.
        original = runner_module._run_simulation_shard
        failed = set()

        def fails_once_after_running(task):
            result = original(task)
            key = task[1][0].index
            if key not in failed:
                failed.add(key)
                raise TransientShardError("fault after the kernel ran")
            return result

        monkeypatch.setattr(
            runner_module, "_run_simulation_shard", fails_once_after_running
        )
        spec = make_spec(SingleLotteryPoS(0.05), 3, "events", trials=30)
        runner = ParallelRunner(
            workers=workers, backend=backend,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        got = runner.run(spec, shards=4)
        assert runner.shards_retried == len(failed) > 0
        assert_part_equal(got, hand_merge(spec, 4))
