"""Storage integrity: checksummed artifacts, quarantine, and ``repro-fsck``.

The content-addressed cache is only sound as a memoization layer if
what it serves is verifiably what was written.  This module is the
detect-verify-repair side of that contract:

digests
    Every :meth:`ResultCache.put` records the artifact's SHA-256 in a
    sidecar under ``<cache>/.sums/<key>.sha256`` (written atomically
    through the same ``.tmp`` staging directory as the artifacts).
    :meth:`ResultCache.get` re-hashes on read and refuses to serve a
    mismatch.  Verification is an execution knob — it never enters
    cache fingerprints (doctrine): a verified and an unverified run
    share their artifacts.
quarantine
    Mismatched artifacts move (atomic rename) into
    ``<cache>/quarantine/`` with their sidecar — preserved as evidence
    rather than silently deleted, invisible to the byte budget and the
    read path, counted and traced.
fsck
    :func:`fsck` scans a cache directory for corrupt, unrecorded and
    orphaned entries — digest sidecars without an artifact, and resume
    checkpoints (``<spec>.<n>.npz``) whose spec's merged artifact
    ``<spec>.npz`` already landed; ``repro-fsck`` is the console doctor
    around it, with ``--repair`` to quarantine, adopt digests and evict
    orphans.

:class:`CacheDegradedWarning` is the loud signal for the graceful-
degradation path: a full disk (``ENOSPC``) turns caching off for the
rest of the run instead of failing it — results still compute, the
warning and :meth:`ResultCache.stats` say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

from ..obs.metrics import get_metrics
from ..sim.persistence import load_result
from .diskchaos import crashpoint
from .sharding import checkpoint_spec_key

__all__ = [
    "CacheDegradedWarning",
    "FsckReport",
    "artifact_digest",
    "clear_digest",
    "digest_path",
    "fsck",
    "main",
    "quarantine_artifact",
    "read_digest",
    "write_digest",
]

PathLike = Union[str, pathlib.Path]

#: Digest sidecars live here, one ``<key>.sha256`` per artifact.
SUMS_DIR = ".sums"

#: Mismatched artifacts are moved here (with their sidecar) on detection.
QUARANTINE_DIR = "quarantine"

#: Staging files older than this are leftovers of killed writers.
#: Generous on purpose: a *live* writer's staging file is seconds old,
#: so an hour can only catch the dead.
_STALE_STAGING_SECONDS = 3600.0

_HEX = set("0123456789abcdef")


class CacheDegradedWarning(RuntimeWarning):
    """The durable layer degraded (full disk) instead of failing the run.

    Raised-as-warning exactly once per degraded component: results keep
    computing, but nothing further is stored, and ``stats()`` reports
    ``degraded`` rather than pretending the cache is healthy.
    """


def note_storage_error(component: str, op: str) -> None:
    """Count a swallowed storage error so "best effort" is never silent.

    Every ``except OSError`` in the storage layer that chooses to carry
    on must at least leave this breadcrumb — the EXC004 lint rule
    rejects handlers that drop the error without it.
    """
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(f"{component}.os_errors.{op}").inc()


# -- digest sidecars -----------------------------------------------------------


def artifact_digest(path: PathLike) -> str:
    """The SHA-256 hex digest of a file's content, read in chunks."""
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def digest_path(cache_dir: PathLike, key: str) -> pathlib.Path:
    """Where the digest sidecar for ``key`` lives."""
    return pathlib.Path(cache_dir) / SUMS_DIR / f"{key}.sha256"


def read_digest(cache_dir: PathLike, key: str) -> Optional[str]:
    """The recorded digest for ``key``, or None when absent/unreadable.

    A torn or garbled sidecar reads as None — the artifact is then
    treated like an unrecorded (legacy) entry and its digest re-adopted
    from content, never trusted blindly.
    """
    try:
        text = digest_path(cache_dir, key).read_text().strip()
    except FileNotFoundError:
        return None
    except OSError:
        note_storage_error("cache", "sum_read")
        return None
    if len(text) == 64 and set(text) <= _HEX:
        return text
    return None


def write_digest(cache_dir: PathLike, key: str, digest: str) -> pathlib.Path:
    """Record ``digest`` for ``key``, atomically; returns the sidecar path.

    Staged through ``<cache>/.tmp`` (the same staging directory as the
    artifacts, so the stale-staging sweep covers torn sidecar writes
    too) and published with an atomic rename.  Sidecars are advisory —
    a lost one only costs re-adoption — so they are not fsync'd.
    """
    root = pathlib.Path(cache_dir)
    staging = root / ".tmp"
    staging.mkdir(parents=True, exist_ok=True)
    (root / SUMS_DIR).mkdir(parents=True, exist_ok=True)
    temporary = staging / (
        f"{key}-{os.getpid()}-{threading.get_ident()}.sha256"
    )
    crashpoint("cache.sum.write", kind="write", path=temporary)
    temporary.write_text(digest + "\n")
    crashpoint("cache.sum.staged", kind="write", path=temporary)
    target = digest_path(root, key)
    crashpoint("cache.sum.replace", kind="replace", path=temporary)
    os.replace(temporary, target)
    return target


def clear_digest(cache_dir: PathLike, key: str) -> None:
    """Drop the digest sidecar for ``key`` (evicted/discarded artifact)."""
    try:
        digest_path(cache_dir, key).unlink()
    except FileNotFoundError:
        pass
    except OSError:
        note_storage_error("cache", "sum_unlink")


# -- quarantine ----------------------------------------------------------------


def quarantine_artifact(cache_dir: PathLike, key: str) -> bool:
    """Move ``key``'s artifact (and sidecar) into ``quarantine/``.

    Returns True iff *this call* removed the artifact from the cache
    root — the caller that sees True owns the byte-budget deduction and
    the quarantine counter, so concurrent detectors of the same corrupt
    entry can never double-subtract.  The atomic rename guarantees at
    most one caller wins.

    If the move itself fails, deletion is the fallback: a corrupt
    artifact must never stay servable.
    """
    root = pathlib.Path(cache_dir)
    source = root / f"{key}.npz"
    quarantine = root / QUARANTINE_DIR
    moved = False
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(source, quarantine / f"{key}.npz")
        moved = True
    except FileNotFoundError:
        return False
    except OSError:
        note_storage_error("cache", "quarantine_move")
        try:
            source.unlink()
        except FileNotFoundError:
            return False
        except OSError:
            note_storage_error("cache", "quarantine_unlink")
            return False
    # The sidecar records what the artifact *should* have hashed to —
    # keep it next to the evidence (or drop it with a deleted artifact).
    sidecar = digest_path(root, key)
    try:
        if moved:
            os.replace(sidecar, quarantine / f"{key}.sha256")
        else:
            sidecar.unlink()
    except FileNotFoundError:
        pass
    except OSError:
        note_storage_error("cache", "quarantine_sum")
    return True


# -- fsck ----------------------------------------------------------------------


@dataclass
class FsckReport:
    """What :func:`fsck` found (and, under ``repair``, did)."""

    cache_dir: str
    repaired: bool = False
    artifacts: int = 0
    verified: int = 0
    corrupt: List[str] = field(default_factory=list)
    missing_sums: List[str] = field(default_factory=list)
    orphaned_sums: List[str] = field(default_factory=list)
    stale_staging: int = 0
    quarantine_entries: int = 0
    orphaned_checkpoints: List[str] = field(default_factory=list)
    actions: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No repair-worthy findings.

        ``quarantine_entries`` is evidence of past repairs, not a
        present problem.
        """
        return not (
            self.corrupt
            or self.missing_sums
            or self.orphaned_sums
            or self.orphaned_checkpoints
            or self.stale_staging
        )

    def as_dict(self) -> dict:
        return {
            "cache_dir": self.cache_dir,
            "repaired": self.repaired,
            "artifacts": self.artifacts,
            "verified": self.verified,
            "corrupt": list(self.corrupt),
            "missing_sums": list(self.missing_sums),
            "orphaned_sums": list(self.orphaned_sums),
            "stale_staging": self.stale_staging,
            "quarantine_entries": self.quarantine_entries,
            "orphaned_checkpoints": list(self.orphaned_checkpoints),
            "actions": list(self.actions),
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [f"repro-fsck: {self.cache_dir}"]
        lines.append(
            f"  artifacts: {self.artifacts} "
            f"(verified {self.verified}, corrupt {len(self.corrupt)}, "
            f"unrecorded {len(self.missing_sums)})"
        )
        lines.append(
            f"  sums: orphaned {len(self.orphaned_sums)}; "
            f"checkpoints: orphaned {len(self.orphaned_checkpoints)}; "
            f"staging: stale {self.stale_staging}; "
            f"quarantine: {self.quarantine_entries} entr"
            f"{'y' if self.quarantine_entries == 1 else 'ies'}"
        )
        for key in self.corrupt:
            lines.append(f"  corrupt: {key}")
        for key in self.orphaned_sums:
            lines.append(f"  orphaned sum: {key}")
        for key in self.orphaned_checkpoints:
            lines.append(f"  orphaned checkpoint: {key}")
        for action in self.actions:
            lines.append(f"  repaired: {action}")
        lines.append(
            "  status: " + ("clean" if self.clean else "ISSUES FOUND"
                            + ("" if self.repaired else " (rerun with --repair)"))
        )
        return "\n".join(lines)


def fsck(cache_dir: PathLike, *, repair: bool = False) -> FsckReport:
    """Scan a cache directory for integrity problems.

    With ``repair=True``: corrupt artifacts are quarantined, unrecorded
    digests adopted from content, orphaned sidecars and checkpoint
    artifacts removed, and stale staging swept.  Without it, the scan
    is strictly read-only.  Files the cache does not own (such as the
    JSONL resume log older versions kept beside it) are ignored.
    """
    root = pathlib.Path(cache_dir)
    report = FsckReport(cache_dir=str(root), repaired=repair)

    # -- artifacts vs digest sidecars ------------------------------------
    known_keys: Set[str] = set()
    for path in sorted(root.glob("*.npz")):
        key = path.stem
        known_keys.add(key)
        report.artifacts += 1
        try:
            actual = artifact_digest(path)
        except OSError:
            note_storage_error("fsck", "digest")
            report.corrupt.append(key)
            continue
        expected = read_digest(root, key)
        if expected is None:
            # No recorded digest (pre-integrity cache, or a torn
            # sidecar): trust content only if it still loads.
            try:
                load_result(path)
            except Exception:
                report.corrupt.append(key)
            else:
                report.missing_sums.append(key)
                if repair:
                    write_digest(root, key, actual)
                    report.actions.append(f"adopted digest for {key[:12]}")
        elif actual == expected:
            report.verified += 1
        else:
            report.corrupt.append(key)
    if repair:
        for key in report.corrupt:
            if quarantine_artifact(root, key):
                known_keys.discard(key)
                report.actions.append(f"quarantined {key[:12]}")

    # -- orphaned checkpoints ----------------------------------------------
    for key in sorted(known_keys):
        spec_key = checkpoint_spec_key(key)
        if spec_key not in known_keys:
            continue
        # The spec's merged artifact landed; its per-shard checkpoints
        # are dead weight the runner normally discards — a crash
        # mid-discard leaves them behind.
        report.orphaned_checkpoints.append(key)
        if repair:
            try:
                (root / f"{key}.npz").unlink()
            except FileNotFoundError:
                continue
            except OSError:
                note_storage_error("fsck", "checkpoint_unlink")
                continue
            clear_digest(root, key)
            known_keys.discard(key)
            report.actions.append(
                f"evicted orphaned checkpoint "
                f"{spec_key[:12]}{key[len(spec_key):]}"
            )

    # -- orphaned sidecars ------------------------------------------------
    sums = root / SUMS_DIR
    if sums.is_dir():
        for path in sorted(sums.glob("*.sha256")):
            if path.stem in known_keys:
                continue
            report.orphaned_sums.append(path.stem)
            if repair:
                clear_digest(root, path.stem)
                report.actions.append(f"removed orphaned sum {path.stem[:12]}")

    # -- stale staging ----------------------------------------------------
    staging = root / ".tmp"
    if staging.is_dir():
        cutoff = time.time() - _STALE_STAGING_SECONDS
        for path in sorted(staging.iterdir()):
            try:
                stale = path.stat().st_mtime <= cutoff
            except OSError:
                note_storage_error("fsck", "staging_stat")
                continue
            if not stale:
                continue
            report.stale_staging += 1
            if repair:
                try:
                    path.unlink()
                    report.actions.append(f"swept stale staging {path.name}")
                except OSError:
                    note_storage_error("fsck", "staging_unlink")

    # -- quarantine (informational) ---------------------------------------
    quarantine = root / QUARANTINE_DIR
    if quarantine.is_dir():
        report.quarantine_entries = sum(
            1 for _ in quarantine.glob("*.npz")
        )

    return report


# -- CLI -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fsck",
        description=(
            "Check (and repair) a repro result cache: verify artifact "
            "digests and find orphaned sidecars, orphaned resume "
            "checkpoints (checkpoints in the cache whose spec's merged "
            "artifact already landed) and stale staging."
        ),
    )
    parser.add_argument("cache", help="cache directory to check")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt artifacts, adopt missing digests, "
        "remove orphaned sums and checkpoints, sweep stale staging",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit 0 when (post-repair) clean, 1 otherwise."""
    args = build_parser().parse_args(argv)
    root = pathlib.Path(args.cache)
    if not root.is_dir():
        print(f"repro-fsck: {args.cache}: not a directory", file=sys.stderr)
        return 2
    report = fsck(root, repair=args.repair)
    # After a repair, the exit code reflects a fresh read-only re-scan:
    # "did the repair actually leave the cache clean", not "did we try".
    verdict = fsck(root) if args.repair else report
    if args.json:
        payload = report.as_dict()
        payload["clean"] = verdict.clean
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
        if args.repair:
            print(
                "post-repair: "
                + ("clean" if verdict.clean else "issues remain")
            )
    return 0 if verdict.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
