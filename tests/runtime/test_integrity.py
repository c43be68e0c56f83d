"""Tests for repro.runtime.integrity — checksums, quarantine, fsck.

The end-to-end contract under test: every put records a SHA-256
sidecar, every get re-hashes before serving, a mismatch is quarantined
(never served, never silently deleted) and the slot recomputes
bit-identically.  ``fsck`` finds — and under ``--repair`` fixes —
everything the read path can only fix lazily.
"""

import json

import pytest

from repro.core.miners import Allocation
from repro.protocols import MultiLotteryPoS, ProofOfWork
from repro.runtime import shard_fingerprint
from repro.runtime.cache import ResultCache
from repro.runtime.integrity import (
    QUARANTINE_DIR,
    SUMS_DIR,
    FsckReport,
    artifact_digest,
    clear_digest,
    digest_path,
    fsck,
    main,
    quarantine_artifact,
    read_digest,
    write_digest,
)
from repro.sim.engine import simulate

KEY = "a" * 64
OTHER = "b" * 64


@pytest.fixture
def result(two_miners):
    return simulate(MultiLotteryPoS(0.01), two_miners, 100, trials=20, seed=1)


@pytest.fixture
def other_result(two_miners):
    return simulate(ProofOfWork(0.01), two_miners, 100, trials=20, seed=2)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _flip_byte(path):
    """Corrupt one byte mid-file without changing its length."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestDigestSidecars:
    def test_put_records_a_digest_sidecar(self, cache, result):
        path = cache.put(KEY, result)
        assert read_digest(cache.directory, KEY) == artifact_digest(path)

    def test_read_digest_absent_is_none(self, tmp_path):
        assert read_digest(tmp_path, KEY) is None

    def test_read_digest_garbled_is_none(self, tmp_path):
        write_digest(tmp_path, KEY, "f" * 64)
        digest_path(tmp_path, KEY).write_text("not hex at all\n")
        assert read_digest(tmp_path, KEY) is None

    def test_read_digest_truncated_is_none(self, tmp_path):
        write_digest(tmp_path, KEY, "f" * 64)
        digest_path(tmp_path, KEY).write_text("abc\n")
        assert read_digest(tmp_path, KEY) is None

    def test_write_then_read_round_trips(self, tmp_path):
        digest = "0123456789abcdef" * 4
        write_digest(tmp_path, KEY, digest)
        assert read_digest(tmp_path, KEY) == digest

    def test_write_digest_leaves_no_staging(self, tmp_path):
        write_digest(tmp_path, KEY, "f" * 64)
        assert list((tmp_path / ".tmp").iterdir()) == []

    def test_clear_digest_removes_sidecar(self, tmp_path):
        write_digest(tmp_path, KEY, "f" * 64)
        clear_digest(tmp_path, KEY)
        assert read_digest(tmp_path, KEY) is None
        clear_digest(tmp_path, KEY)  # idempotent


class TestVerifyOnRead:
    def test_clean_artifact_serves(self, cache, result):
        cache.put(KEY, result)
        loaded = cache.get(KEY)
        assert loaded is not None
        assert cache.hits == 1
        assert cache.quarantined == 0

    def test_flipped_byte_is_quarantined_and_missed(self, cache, result):
        path = cache.put(KEY, result)
        _flip_byte(path)
        assert cache.get(KEY) is None
        assert cache.misses == 1
        assert cache.quarantined == 1
        assert not path.exists()
        quarantined = cache.directory / QUARANTINE_DIR / f"{KEY}.npz"
        assert quarantined.exists()
        # The sidecar travels with the evidence.
        assert (cache.directory / QUARANTINE_DIR / f"{KEY}.sha256").exists()
        assert not digest_path(cache.directory, KEY).exists()

    def test_quarantined_slot_recomputes_bit_identically(
        self, cache, result, tmp_path
    ):
        reference = ResultCache(tmp_path / "ref").put(KEY, result)
        path = cache.put(KEY, result)
        _flip_byte(path)
        assert cache.get(KEY) is None
        rewritten = cache.put(KEY, result)
        assert cache.get(KEY) is not None
        assert rewritten.read_bytes() == reference.read_bytes()

    def test_substituted_artifact_is_quarantined(
        self, cache, result, other_result
    ):
        """A valid-but-wrong artifact (digest mismatch, loads fine) is
        exactly what checksums exist to catch: the load path alone
        would happily serve it."""
        path = cache.put(KEY, result)
        staged = ResultCache(cache.directory.parent / "other").put(
            OTHER, other_result
        )
        path.write_bytes(staged.read_bytes())
        assert cache.get(KEY) is None
        assert cache.quarantined == 1

    def test_verify_off_serves_substituted_artifact(
        self, tmp_path, result, other_result
    ):
        cache = ResultCache(tmp_path / "cache", verify=False)
        path = cache.put(KEY, result)
        staged = ResultCache(tmp_path / "other").put(OTHER, other_result)
        path.write_bytes(staged.read_bytes())
        assert cache.get(KEY) is not None
        assert cache.quarantined == 0

    def test_missing_sidecar_is_adopted_on_read(self, cache, result):
        path = cache.put(KEY, result)
        digest_path(cache.directory, KEY).unlink()
        assert cache.get(KEY) is not None
        assert read_digest(cache.directory, KEY) == artifact_digest(path)

    def test_unparseable_artifact_still_evicts_under_verify(
        self, cache, result
    ):
        """Same-length garbage that matches no digest: quarantined by
        the verify gate before the load path ever sees it."""
        path = cache.put(KEY, result)
        path.write_bytes(b"x" * path.stat().st_size)
        assert cache.get(KEY) is None
        assert not path.exists()


class TestBudgetAccounting:
    def test_quarantine_deducts_bytes_exactly_once(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache", max_bytes=1 << 30)
        path = cache.put(KEY, result)
        cache.put(OTHER, result)
        with cache._stats_lock:
            assert cache._approx_bytes == cache._scan_bytes()
        _flip_byte(path)
        assert cache.get(KEY) is None
        with cache._stats_lock:
            assert cache._approx_bytes == cache._scan_bytes()

    def test_quarantine_is_invisible_to_the_budget_scan(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache", max_bytes=1 << 30)
        path = cache.put(KEY, result)
        _flip_byte(path)
        cache.get(KEY)
        assert cache._scan_bytes() == 0  # quarantine/ not globbed

    def test_stats_report_quarantine_and_degraded(self, cache, result):
        path = cache.put(KEY, result)
        _flip_byte(path)
        cache.get(KEY)
        stats = cache.stats()
        assert stats["quarantined"] == 1
        assert stats["io_errors"] == 0
        assert stats["degraded"] is False


class TestSidecarLifecycle:
    def test_discard_removes_sidecar(self, cache, result):
        cache.put(KEY, result)
        assert cache.discard(KEY) is True
        assert not digest_path(cache.directory, KEY).exists()

    def test_eviction_removes_sidecar(self, tmp_path, result):
        cache = ResultCache(tmp_path / "cache")
        size = cache.put(KEY, result).stat().st_size
        cache.clear()
        cache = ResultCache(tmp_path / "cache", max_bytes=size + size // 2)
        cache.put(KEY, result)
        cache.put(OTHER, result)  # over budget: KEY evicted (LRU)
        assert cache.evictions == 1
        assert not digest_path(cache.directory, KEY).exists()
        assert digest_path(cache.directory, OTHER).exists()

    def test_clear_removes_sidecars_without_counting_them(
        self, cache, result
    ):
        cache.put(KEY, result)
        cache.put(OTHER, result)
        assert cache.clear() == 2
        assert list((cache.directory / SUMS_DIR).glob("*.sha256")) == []


class TestQuarantineArtifact:
    def test_winner_takes_the_move(self, cache, result):
        cache.put(KEY, result)
        assert quarantine_artifact(cache.directory, KEY) is True
        assert quarantine_artifact(cache.directory, KEY) is False

    def test_missing_artifact_returns_false(self, tmp_path):
        assert quarantine_artifact(tmp_path, KEY) is False


class TestFsck:
    def test_clean_cache_is_clean(self, cache, result):
        cache.put(KEY, result)
        cache.put(OTHER, result)
        report = fsck(cache.directory)
        assert report.clean
        assert report.artifacts == 2
        assert report.verified == 2
        assert report.corrupt == []

    def test_corrupt_artifact_is_found_and_quarantined(self, cache, result):
        path = cache.put(KEY, result)
        cache.put(OTHER, result)
        _flip_byte(path)
        report = fsck(cache.directory)
        assert not report.clean
        assert report.corrupt == [KEY]
        assert path.exists()  # read-only scan touches nothing

        repaired = fsck(cache.directory, repair=True)
        assert repaired.corrupt == [KEY]
        assert not path.exists()
        assert (cache.directory / QUARANTINE_DIR / f"{KEY}.npz").exists()
        after = fsck(cache.directory)
        assert after.clean
        assert after.quarantine_entries == 1  # evidence, not an issue

    def test_missing_sidecar_is_adopted_under_repair(self, cache, result):
        path = cache.put(KEY, result)
        digest_path(cache.directory, KEY).unlink()
        report = fsck(cache.directory)
        assert report.missing_sums == [KEY]
        assert not report.clean
        fsck(cache.directory, repair=True)
        assert read_digest(cache.directory, KEY) == artifact_digest(path)
        assert fsck(cache.directory).clean

    def test_unloadable_artifact_without_sidecar_is_corrupt(
        self, cache, result
    ):
        cache.put(KEY, result)
        garbage = cache.directory / f"{OTHER}.npz"
        garbage.write_bytes(b"never a valid archive")
        report = fsck(cache.directory)
        assert report.corrupt == [OTHER]
        assert report.verified == 1

    def test_orphaned_sidecar_is_removed_under_repair(self, cache, result):
        write_digest(cache.directory, KEY, "f" * 64)
        report = fsck(cache.directory)
        assert report.orphaned_sums == [KEY]
        fsck(cache.directory, repair=True)
        assert fsck(cache.directory).clean

    def test_stale_staging_is_swept_under_repair(self, cache, result):
        import os

        cache.put(KEY, result)
        leftover = cache.directory / ".tmp" / "dead-writer.npz"
        leftover.write_bytes(b"partial")
        os.utime(leftover, (0, 0))
        report = fsck(cache.directory)
        assert report.stale_staging == 1
        fsck(cache.directory, repair=True)
        assert not leftover.exists()
        assert fsck(cache.directory).clean

    def test_fresh_staging_is_left_alone(self, cache, result):
        cache.put(KEY, result)
        live = cache.directory / ".tmp" / "live-writer.npz"
        live.write_bytes(b"in flight")
        report = fsck(cache.directory, repair=True)
        assert report.stale_staging == 0
        assert live.exists()


class TestFsckOrphanedCheckpoints:
    def _checkpointed_cache(self, tmp_path, result):
        """A spec's merged artifact plus the shard checkpoints a crash
        between its put and the runner's discard leaves behind."""
        cache = ResultCache(tmp_path / "cache")
        spec = "5" * 64
        shard_keys = [shard_fingerprint(spec, n) for n in range(2)]
        for key in shard_keys:
            cache.put(key, result)
        cache.put(spec, result)
        return cache, spec, shard_keys

    def test_orphaned_checkpoints_are_evicted_under_repair(
        self, tmp_path, result
    ):
        cache, spec, shard_keys = self._checkpointed_cache(tmp_path, result)
        report = fsck(cache.directory)
        assert sorted(report.orphaned_checkpoints) == sorted(shard_keys)
        assert not report.clean
        fsck(cache.directory, repair=True)
        for key in shard_keys:
            assert not (cache.directory / f"{key}.npz").exists()
            assert read_digest(cache.directory, key) is None
        assert (cache.directory / f"{spec}.npz").exists()
        assert fsck(cache.directory).clean

    def test_discarded_checkpoints_read_clean(self, tmp_path, result):
        cache, spec, shard_keys = self._checkpointed_cache(tmp_path, result)
        for key in shard_keys:
            cache.discard(key)
        report = fsck(cache.directory)
        assert report.orphaned_checkpoints == []
        assert report.clean

    def test_checkpoints_of_an_unfinished_spec_are_not_orphans(
        self, tmp_path, result
    ):
        # Resume state of an interrupted run: no merged artifact yet.
        cache = ResultCache(tmp_path / "cache")
        spec = "6" * 64
        cache.put(shard_fingerprint(spec, 0), result)
        report = fsck(cache.directory)
        assert report.orphaned_checkpoints == []
        assert report.clean

    def test_orphan_is_found_by_name_alone(self, tmp_path, result):
        # A copy of the merged artifact planted under a checkpoint name
        # (what the CI smoke does) is an orphan like any other.
        cache = ResultCache(tmp_path / "cache")
        spec = "7" * 64
        path = cache.put(spec, result)
        planted = cache.directory / f"{shard_fingerprint(spec, 0)}.npz"
        planted.write_bytes(path.read_bytes())
        report = fsck(cache.directory)
        assert report.orphaned_checkpoints == [shard_fingerprint(spec, 0)]
        assert report.missing_sums == [shard_fingerprint(spec, 0)]
        fsck(cache.directory, repair=True)
        assert not planted.exists()
        assert fsck(cache.directory).clean

    def test_corrupt_orphan_is_evicted_under_repair(self, tmp_path, result):
        cache, spec, shard_keys = self._checkpointed_cache(tmp_path, result)
        _flip_byte(cache.directory / f"{shard_keys[0]}.npz")
        report = fsck(cache.directory)
        assert report.corrupt == [shard_keys[0]]
        assert sorted(report.orphaned_checkpoints) == sorted(shard_keys)
        fsck(cache.directory, repair=True)
        assert [p.stem for p in cache.directory.glob("*.npz")] == [spec]
        assert fsck(cache.directory).clean

    def test_dotted_names_that_are_not_checkpoints_are_left_alone(
        self, tmp_path, result
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = "8" * 64
        cache.put(spec, result)
        cache.put(f"{spec}.x", result)
        cache.put(f"{'9' * 64}.0", result)  # its spec has no artifact
        report = fsck(cache.directory)
        assert report.orphaned_checkpoints == []
        assert report.clean

    def test_stale_journal_file_is_ignored(self, tmp_path, result):
        cache, spec, shard_keys = self._checkpointed_cache(tmp_path, result)
        for key in shard_keys:
            cache.discard(key)
        stale = cache.directory / "journal.jsonl"
        stale.write_text('{"e": "shard", "spec": "tor')  # torn record
        report = fsck(cache.directory)
        assert report.clean
        assert "journal_path" not in report.as_dict()
        fsck(cache.directory, repair=True)
        assert stale.read_text() == '{"e": "shard", "spec": "tor'


class TestFsckReport:
    def test_as_dict_round_trips_through_json(self):
        report = FsckReport(cache_dir="/x", corrupt=["k"])
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["corrupt"] == ["k"]
        assert payload["clean"] is False

    def test_render_mentions_status(self, cache, result):
        cache.put(KEY, result)
        text = fsck(cache.directory).render()
        assert "status: clean" in text
        _flip_byte(cache.directory / f"{KEY}.npz")
        text = fsck(cache.directory).render()
        assert "ISSUES FOUND" in text
        assert "--repair" in text


class TestFsckCli:
    def test_clean_cache_exits_zero(self, cache, result, capsys):
        cache.put(KEY, result)
        assert main([str(cache.directory)]) == 0
        assert "status: clean" in capsys.readouterr().out

    def test_corrupt_cache_exits_one(self, cache, result, capsys):
        path = cache.put(KEY, result)
        _flip_byte(path)
        assert main([str(cache.directory)]) == 1

    def test_repair_exits_zero_once_clean(self, cache, result, capsys):
        path = cache.put(KEY, result)
        _flip_byte(path)
        assert main([str(cache.directory), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "post-repair: clean" in out
        assert main([str(cache.directory)]) == 0

    def test_missing_directory_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_json_output_parses(self, cache, result, capsys):
        path = cache.put(KEY, result)
        _flip_byte(path)
        assert main([str(cache.directory), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrupt"] == [KEY]
        assert payload["clean"] is False

    def test_orphaned_checkpoint_exits_one_until_repaired(
        self, cache, result, capsys
    ):
        path = cache.put(KEY, result)
        planted = cache.directory / f"{shard_fingerprint(KEY, 0)}.npz"
        planted.write_bytes(path.read_bytes())
        assert main([str(cache.directory)]) == 1
        assert main([str(cache.directory), "--repair"]) == 0
        assert not planted.exists()
        capsys.readouterr()
        assert main([str(cache.directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["orphaned_checkpoints"] == []
