"""Tests for grid checkpoint/resume (``ParallelRunner(resume=True)``).

Under ``resume`` every finished shard is checkpointed in the cache
under ``shard_fingerprint(spec_key, ordinal)`` until its spec merges.
A killed grid run must resume recomputing *only* the shards without a
valid checkpoint: checkpoints load from the cache (hits), the rest
dispatch, and the finished spec's merged artifact is stored exactly as
an uninterrupted run would have stored it — same key, same bytes.  The
cache is the only record: evicted or corrupt checkpoints degrade to
recomputation, never to wrong results.
"""

import json
import os

import pytest

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    ShardExecutionError,
    SimulationSpec,
    shard_fingerprint,
    spec_fingerprint,
)
from repro.runtime.executor import SerialExecutor
from repro.runtime.integrity import QUARANTINE_DIR, fsck, read_digest
from repro.runtime.runner import _simulation_shard_body
from repro.runtime.sharding import plan_shards


def make_spec(trials=40, horizon=50, seed=7, protocol=None):
    return SimulationSpec(
        protocol=protocol or ProofOfWork(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        seed=seed,
    )


class BombExecutor(SerialExecutor):
    """Serial executor that permanently fails the given task indices.

    It reports ``workers`` so the runner splits each spec into that
    many fused groups (tasks): a lone 4-shard spec under ``workers=2``
    runs as tasks ``(0, 1)`` and ``(2, 3)``, under ``workers=4`` as one
    task per shard.  A failed task loses every shard it carried.
    """

    def __init__(self, fail_indices, workers=2):
        self.fail_indices = set(fail_indices)
        self.workers = workers

    def stream(self, fn, tasks, *, window=None):
        for index, task in enumerate(list(tasks)):
            if index in self.fail_indices:
                yield index, False, ("RuntimeError('bomb')", "boom traceback")
            else:
                yield index, True, fn(task)


def assert_byte_equal(left, right):
    assert left.reward_fractions.tobytes() == right.reward_fractions.tobytes()
    assert left.checkpoints.tobytes() == right.checkpoints.tobytes()


def interrupt(cache_dir, spec, fail_indices, workers=2):
    """Run ``spec`` on 4 shards with the given tasks bombed."""
    runner = ParallelRunner(
        executor=BombExecutor(fail_indices, workers=workers),
        cache=cache_dir,
        resume=True,
    )
    with pytest.raises(ShardExecutionError):
        runner.run(spec, shards=4)


class TestCheckpointKeys:
    def test_shard_fingerprint_is_distinct_per_ordinal_and_spec(self):
        keys = {
            shard_fingerprint(spec, ordinal)
            for spec in ("a", "b")
            for ordinal in range(3)
        }
        assert len(keys) == 6
        with pytest.raises(ValueError):
            shard_fingerprint("a", -1)

    def test_checkpoint_name_carries_spec_and_ordinal(self):
        spec_key = spec_fingerprint(make_spec(), shards=4)
        assert "." not in spec_key
        assert shard_fingerprint(spec_key, 3) == f"{spec_key}.3"

    def test_resume_requires_a_cache(self):
        with pytest.raises(ValueError, match="resume requires a cache"):
            ParallelRunner(resume=True)


class TestResume:
    def test_resume_recomputes_only_uncheckpointed_shards(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        # Task 1 is the group of shards 2-3; shards 0-1 get checkpointed.
        interrupt(cache_dir, spec, {1})

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        hits, misses = resumed.cache.hits, resumed.cache.misses
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        # Spec miss + 2 checkpoint hits; only the failed group's
        # shards 2 and 3 recomputed.
        assert resumed.cache.hits - hits == 2
        assert resumed.shards_resumed == 2

    def test_finalized_spec_discards_shard_checkpoints(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {1})
        # Checkpoints of the surviving group's shards 0 and 1.
        key = spec_fingerprint(spec, shards=4)
        assert sorted(p.stem for p in cache_dir.glob("*.npz")) == [
            f"{key}.0", f"{key}.1",
        ]

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        resumed.run(spec, shards=4)
        # Only the merged spec artifact remains.
        remaining = [p.stem for p in cache_dir.glob("*.npz")]
        assert remaining == [key]

    def test_resumed_artifact_matches_uninterrupted_run(self, tmp_path):
        spec = make_spec()
        clean_dir = tmp_path / "clean"
        ParallelRunner(workers=1, cache=clean_dir).run(spec, shards=4)

        cache_dir = tmp_path / "resumed"
        interrupt(cache_dir, spec, {1, 3}, workers=4)
        ParallelRunner(workers=1, cache=cache_dir, resume=True).run(
            spec, shards=4
        )
        clean = sorted(
            (p.name, p.read_bytes()) for p in clean_dir.glob("*.npz")
        )
        after = sorted(
            (p.name, p.read_bytes()) for p in cache_dir.glob("*.npz")
        )
        assert clean == after

    def test_evicted_checkpoint_recomputes(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        # One shard per task: task 2 loses shard 2 only.
        interrupt(cache_dir, spec, {2}, workers=4)
        key = spec_fingerprint(spec, shards=4)
        os.unlink(cache_dir / f"{shard_fingerprint(key, 0)}.npz")

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 2  # ordinals 1, 3 only

    def test_corrupt_checkpoint_is_quarantined_and_recomputed(
        self, tmp_path
    ):
        spec = make_spec()
        clean_dir = tmp_path / "clean"
        reference = ParallelRunner(workers=1, cache=clean_dir).run(
            spec, shards=4
        )
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {1})
        key = spec_fingerprint(spec, shards=4)
        victim = cache_dir / f"{shard_fingerprint(key, 0)}.npz"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 1  # ordinal 1 only
        assert resumed.cache.quarantined == 1
        assert (cache_dir / QUARANTINE_DIR / victim.name).exists()
        assert (cache_dir / f"{key}.npz").read_bytes() == (
            clean_dir / f"{key}.npz"
        ).read_bytes()
        assert [p.stem for p in cache_dir.glob("*.npz")] == [key]

    def test_fully_checkpointed_spec_merges_without_dispatch(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        # Checkpoint every shard but crash before the spec finalizes:
        # the merged artifact was never stored.
        cache = ResultCache(cache_dir)
        key = spec_fingerprint(spec, shards=4)
        plan = plan_shards(spec.trials, spec.seed_sequence, 4)
        for ordinal, shard in enumerate(plan):
            part = _simulation_shard_body(spec, shard)
            cache.put(shard_fingerprint(key, ordinal), part)

        resumed = ParallelRunner(
            executor=BombExecutor(range(99)),  # any dispatch would fail
            cache=cache_dir,
            resume=True,
        )
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 4
        assert [p.stem for p in cache_dir.glob("*.npz")] == [key]

    def test_multi_spec_grid_resumes_each_spec_independently(self, tmp_path):
        specs = [
            make_spec(seed=7),
            make_spec(seed=8, protocol=MultiLotteryPoS(0.01)),
        ]
        reference = [
            ParallelRunner(workers=1).run(s, shards=4) for s in specs
        ]
        cache_dir = tmp_path / "cache"
        # Two groups of two shards per spec (tasks 0-1, then 2-3):
        # fail the second group of spec 0 and the first of spec 1.
        interrupted = ParallelRunner(
            executor=BombExecutor({1, 2}, workers=4),
            cache=cache_dir,
            resume=True,
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run_many(specs, shards=4)

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        results = resumed.run_many(specs, shards=4)
        for result, expected in zip(results, reference):
            assert_byte_equal(result, expected)
        assert resumed.shards_resumed == 4

    def test_fresh_resume_run_counts_like_a_plain_run(self, tmp_path):
        specs = [
            make_spec(seed=7),
            make_spec(seed=8, protocol=MultiLotteryPoS(0.01)),
        ]
        counts = {}
        for name, resume in (("plain", False), ("resume", True)):
            runner = ParallelRunner(
                workers=1, cache=tmp_path / name, resume=resume
            )
            runner.run_many(specs, shards=4)
            runner.run_many(specs, shards=4)  # warm: all hits
            stats = runner.cache.stats()
            counts[name] = (stats["hits"], stats["misses"], stats["entries"])
        assert counts["resume"] == counts["plain"] == (2, 2, 2)

    def test_stale_journal_file_is_ignored(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        key = spec_fingerprint(spec, shards=4)
        # A resume log in the format older versions kept beside the
        # cache, claiming every shard finished: nothing reads it.
        cache_dir.mkdir()
        stale = cache_dir / "journal.jsonl"
        lines = [{"e": "header", "schema": "repro-journal/v1"}] + [
            {"e": "shard", "spec": key, "shard": n, "key": "0" * 64}
            for n in range(4)
        ]
        stale.write_text("".join(json.dumps(l) + "\n" for l in lines))
        before = stale.read_bytes()

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 0
        report = fsck(cache_dir)
        assert report.clean
        assert report.artifacts == 1
        fsck(cache_dir, repair=True)
        assert stale.read_bytes() == before

    def test_resume_accepts_a_string_cache_path(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(str(cache_dir), spec, {1})

        resumed = ParallelRunner(workers=1, cache=str(cache_dir), resume=True)
        assert resumed.cache.directory == cache_dir
        assert_byte_equal(resumed.run(spec, shards=4), reference)
        assert resumed.shards_resumed == 2

    def test_checkpoints_survive_a_new_cache_handle(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {1})
        key = spec_fingerprint(spec, shards=4)
        plan = plan_shards(spec.trials, spec.seed_sequence, 4)

        reopened = ResultCache(cache_dir)
        for ordinal in (0, 1):
            shard_key = shard_fingerprint(key, ordinal)
            assert shard_key in reopened
            expected = _simulation_shard_body(spec, plan.shards[ordinal])
            assert_byte_equal(reopened.get(shard_key), expected)
        assert shard_fingerprint(key, 2) not in reopened
        assert key not in reopened

    @pytest.mark.parametrize("damage", ["empty", "truncated"])
    def test_torn_checkpoint_is_quarantined_and_recomputed(
        self, tmp_path, damage
    ):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {1})
        key = spec_fingerprint(spec, shards=4)
        victim = cache_dir / f"{shard_fingerprint(key, 1)}.npz"
        data = victim.read_bytes()
        victim.write_bytes(b"" if damage == "empty" else data[: len(data) // 3])

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        result = resumed.run(spec, shards=4)
        assert_byte_equal(result, reference)
        assert resumed.shards_resumed == 1  # ordinal 0 only
        assert resumed.cache.quarantined == 1
        assert [p.stem for p in cache_dir.glob("*.npz")] == [key]
        assert fsck(cache_dir).clean

    def test_repeated_interruptions_accumulate_checkpoints(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        key = spec_fingerprint(spec, shards=4)

        def checkpointed():
            return sorted(p.stem for p in cache_dir.glob("*.npz"))

        # One shard per task: shards 1 and 2 are lost.
        interrupt(cache_dir, spec, {1, 2}, workers=4)
        assert checkpointed() == [f"{key}.0", f"{key}.3"]
        # The second attempt dispatches only shards 1 and 2, and loses
        # shard 1 again.
        second = ParallelRunner(
            executor=BombExecutor({0}, workers=4), cache=cache_dir, resume=True
        )
        with pytest.raises(ShardExecutionError):
            second.run(spec, shards=4)
        assert second.shards_resumed == 2
        assert checkpointed() == [f"{key}.0", f"{key}.2", f"{key}.3"]

        third = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        assert_byte_equal(third.run(spec, shards=4), reference)
        assert third.shards_resumed == 3
        assert checkpointed() == [key]

    def test_plain_run_writes_no_checkpoints(self, tmp_path):
        spec = make_spec()
        cache_dir = tmp_path / "cache"
        runner = ParallelRunner(
            executor=BombExecutor({1}), cache=cache_dir
        )
        with pytest.raises(ShardExecutionError):
            runner.run(spec, shards=4)
        assert list(cache_dir.glob("*.npz")) == []

    def test_plain_run_ignores_checkpoints(self, tmp_path):
        spec = make_spec()
        reference = ParallelRunner(workers=1).run(spec, shards=4)
        cache_dir = tmp_path / "cache"
        interrupt(cache_dir, spec, {1})
        key = spec_fingerprint(spec, shards=4)

        plain = ParallelRunner(workers=1, cache=cache_dir)
        assert_byte_equal(plain.run(spec, shards=4), reference)
        assert plain.shards_resumed == 0
        # Without resume the checkpoints are neither read nor
        # discarded; next to the merged artifact they are orphans,
        # which fsck --repair clears.
        report = fsck(cache_dir)
        assert sorted(report.orphaned_checkpoints) == [
            shard_fingerprint(key, 0), shard_fingerprint(key, 1),
        ]
        fsck(cache_dir, repair=True)
        assert [p.stem for p in cache_dir.glob("*.npz")] == [key]

    def test_cached_spec_is_served_while_another_resumes(self, tmp_path):
        done = make_spec(seed=7)
        unfinished = make_spec(seed=8, protocol=MultiLotteryPoS(0.01))
        reference = [
            ParallelRunner(workers=1).run(s, shards=4)
            for s in (done, unfinished)
        ]
        cache_dir = tmp_path / "cache"
        ParallelRunner(workers=1, cache=cache_dir).run(done, shards=4)
        interrupt(cache_dir, unfinished, {1})

        resumed = ParallelRunner(workers=1, cache=cache_dir, resume=True)
        hits = resumed.cache.hits
        results = resumed.run_many([done, unfinished], shards=4)
        for result, expected in zip(results, reference):
            assert_byte_equal(result, expected)
        # The finished spec's merged hit plus two checkpoint hits.
        assert resumed.cache.hits - hits == 3
        assert resumed.shards_resumed == 2

    def test_finished_grid_leaves_only_merged_artifacts(self, tmp_path):
        specs = [
            make_spec(seed=7),
            make_spec(seed=8, protocol=MultiLotteryPoS(0.01)),
        ]
        cache_dir = tmp_path / "cache"
        interrupted = ParallelRunner(
            executor=BombExecutor({1, 2}, workers=4),
            cache=cache_dir,
            resume=True,
        )
        with pytest.raises(ShardExecutionError):
            interrupted.run_many(specs, shards=4)
        ParallelRunner(workers=1, cache=cache_dir, resume=True).run_many(
            specs, shards=4
        )

        keys = sorted(spec_fingerprint(s, shards=4) for s in specs)
        assert sorted(p.stem for p in cache_dir.glob("*.npz")) == keys
        for key in keys:
            assert read_digest(cache_dir, key) is not None
            for ordinal in range(4):
                assert read_digest(
                    cache_dir, shard_fingerprint(key, ordinal)
                ) is None
        assert fsck(cache_dir).clean
