"""Peak memory of the streaming shard merge vs collect-then-merge.

Collect-then-merge (the "batch" reference, run here by hand: every
shard of the plan, then ``merge_parts`` over the list) materializes
every shard's ``EnsembleResult`` and then concatenates, so its working
set carries the whole ensemble roughly twice (all shard results plus
the merged arrays).  The runner's streaming merge preallocates the
merged arrays once and folds each shard as it completes, holding at most
``O(workers)`` shard results in flight — the peak should sit near one
merged ensemble and stay roughly **flat in the shard count**, at equal
wall-clock, with bit-identical output.  This harness measures both
paths on a 100k-trial ensemble across shard counts (asserting
bit-identity first) and records the numbers in
``BENCH_streaming.json``.

Peak memory is ``tracemalloc``'s traced peak in the merging process
(the comparison that matters: both paths simulate identically, they
differ in what the parent retains), measured under the serial
executor so every allocation is visible to the tracer; the process
high-water RSS is recorded alongside for context.

Standalone (the acceptance report; writes the JSON)::

    PYTHONPATH=src python benchmarks/bench_streaming.py
        [--trials 100000] [--horizon 200] [--shards 4 16 64]
        [--output BENCH_streaming.json]

CI sanity check (~seconds; asserts the streaming peak beats batch and
stays flat in shard count, at no wall-clock loss)::

    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc
from typing import Dict, List, Optional

import numpy as np

from repro.core.miners import Allocation
from repro.core.results import merge_parts
from repro.protocols import MultiLotteryPoS
from repro.runtime import ParallelRunner, SimulationSpec, plan_shards
from repro.runtime.runner import _run_simulation_shard

SEED = 2021
DEFAULT_TRIALS = 100_000
DEFAULT_HORIZON = 200
DEFAULT_SHARDS = (4, 16, 64)
CHECKPOINT_COUNT = 10


def build_spec(trials: int, horizon: int) -> SimulationSpec:
    """The headline ensemble: ML-PoS, two miners, evenly spaced records."""
    step = max(1, horizon // CHECKPOINT_COUNT)
    return SimulationSpec(
        protocol=MultiLotteryPoS(0.01),
        allocation=Allocation.two_miners(0.2),
        trials=trials,
        horizon=horizon,
        checkpoints=tuple(range(step, horizon + 1, step)),
        seed=SEED,
    )


def _peak_rss_bytes() -> Optional[int]:
    """The process's lifetime high-water RSS, where the platform has it."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return rss * 1024 if sys.platform != "darwin" else rss


def collect_then_merge(spec: SimulationSpec, shards: int):
    """The reference the streaming fold replaces: run every shard of the
    plan with the runner's own shard function, hold the whole result
    list, then merge it."""
    plan = plan_shards(spec.trials, spec.seed_sequence, shards)
    return merge_parts([_run_simulation_shard((spec, shard)) for shard in plan])


def measure(
    spec: SimulationSpec, shards: int, streaming: bool
) -> Dict[str, object]:
    """Run the spec once — through the runner's streaming merge, or by
    collect-then-merge — recording traced peak memory and wall-clock."""
    runner = ParallelRunner(workers=1)
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    if streaming:
        result = runner.run(spec, shards=shards)
    else:
        result = collect_then_merge(spec, shards)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    digest = result.reward_fractions.tobytes()
    merged_bytes = result.reward_fractions.nbytes + (
        0 if result.terminal_stakes is None else result.terminal_stakes.nbytes
    )
    return {
        "shards": shards,
        "streaming": streaming,
        "seconds": round(seconds, 4),
        "peak_traced_bytes": peak,
        "merged_result_bytes": merged_bytes,
        "peak_over_result": round(peak / merged_bytes, 2),
        "_digest": digest,
    }


def compare(
    trials: int, horizon: int, shard_counts
) -> List[Dict[str, object]]:
    """Measure batch vs streaming across shard counts; verify bit-identity."""
    spec = build_spec(trials, horizon)
    rows = []
    for shards in shard_counts:
        batch = measure(spec, shards, streaming=False)
        streamed = measure(spec, shards, streaming=True)
        if batch.pop("_digest") != streamed.pop("_digest"):
            raise AssertionError(
                f"streaming diverged from collect-then-merge at "
                f"shards={shards} — "
                "refusing to report memory savings for wrong results"
            )
        rows.append(
            {
                "shards": shards,
                "batch_peak_bytes": batch["peak_traced_bytes"],
                "stream_peak_bytes": streamed["peak_traced_bytes"],
                "peak_ratio": round(
                    streamed["peak_traced_bytes"]
                    / batch["peak_traced_bytes"],
                    3,
                ),
                "batch_seconds": batch["seconds"],
                "stream_seconds": streamed["seconds"],
                "merged_result_bytes": batch["merged_result_bytes"],
                "stream_peak_over_result": streamed["peak_over_result"],
                "batch_peak_over_result": batch["peak_over_result"],
                "bit_identical": True,
            }
        )
    return rows


def collect(trials: int, horizon: int, shard_counts) -> Dict[str, object]:
    rows = compare(trials, horizon, shard_counts)
    stream_peaks = [
        row["stream_peak_bytes"]
        for row in sorted(rows, key=lambda row: row["shards"])
    ]
    return {
        "schema": "bench_streaming/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "workload": (
            f"ML-PoS, {trials} trials x {horizon} rounds, "
            f"{CHECKPOINT_COUNT} checkpoints, workers=1 (serial executor: "
            "all allocations visible to tracemalloc)"
        ),
        "peak_rss_bytes": _peak_rss_bytes(),
        # Flat means "does not grow as the ensemble splits finer" — the
        # peak is allowed to (and does) shrink, because the in-flight
        # shard gets smaller.
        "stream_peak_flat": stream_peaks[-1] <= stream_peaks[0] * 1.15,
        "results": {f"shards_{row['shards']}": row for row in rows},
    }


def render(report: Dict[str, object]) -> str:
    lines = [
        f"{'shards':>7} {'batch MB':>9} {'stream MB':>10} {'ratio':>6} "
        f"{'batch s':>8} {'stream s':>9} {'peak/result':>12}"
    ]
    for row in report["results"].values():
        lines.append(
            f"{row['shards']:>7} "
            f"{row['batch_peak_bytes'] / 1e6:>9.1f} "
            f"{row['stream_peak_bytes'] / 1e6:>10.1f} "
            f"{row['peak_ratio']:>6.2f} "
            f"{row['batch_seconds']:>8.2f} "
            f"{row['stream_seconds']:>9.2f} "
            f"{row['stream_peak_over_result']:>11.2f}x"
        )
    lines.append(
        f"stream peak flat in shard count: {report['stream_peak_flat']}"
    )
    return "\n".join(lines)


# -- pytest entry points ------------------------------------------------------


def test_streaming_peak_beats_batch_at_equal_wallclock():
    """The CI sanity floor, callable under pytest too."""
    rows = compare(trials=20_000, horizon=100, shard_counts=(4, 32))
    for row in rows:
        assert row["stream_peak_bytes"] < row["batch_peak_bytes"] * 0.9, row
        assert row["stream_seconds"] <= row["batch_seconds"] * 1.5 + 0.2, row
    peaks = [row["stream_peak_bytes"] for row in rows]  # ascending shards
    assert peaks[-1] <= peaks[0] * 1.15, rows


def test_streaming_bench(benchmark):
    spec = build_spec(20_000, 100)
    runner = ParallelRunner(workers=1)
    benchmark.pedantic(
        runner.run, args=(spec,), kwargs={"shards": 16}, rounds=1, iterations=1
    )


# -- standalone acceptance report ---------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    parser.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS)
    )
    parser.add_argument(
        "--output", default="BENCH_streaming.json",
        help="where to write the JSON report (default: BENCH_streaming.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity check: streaming peak must beat batch and stay "
        "flat in shard count at no wall-clock loss; no JSON written",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows = compare(trials=20_000, horizon=100, shard_counts=(4, 32))
        for row in rows:
            print(
                f"shards={row['shards']}: batch "
                f"{row['batch_peak_bytes'] / 1e6:.1f} MB / "
                f"{row['batch_seconds']:.2f}s vs stream "
                f"{row['stream_peak_bytes'] / 1e6:.1f} MB / "
                f"{row['stream_seconds']:.2f}s "
                f"(ratio {row['peak_ratio']:.2f}, bit-identical)"
            )
        failed = [
            row for row in rows
            if row["stream_peak_bytes"] >= row["batch_peak_bytes"] * 0.9
            or row["stream_seconds"] > row["batch_seconds"] * 1.5 + 0.2
        ]
        peaks = [row["stream_peak_bytes"] for row in rows]  # ascending shards
        if peaks[-1] > peaks[0] * 1.15:
            print("FAIL: streaming peak grew with the shard count")
            return 1
        if failed:
            print("FAIL: expected streaming to beat batch peak at equal "
                  "wall-clock")
            return 1
        print("PASS")
        return 0

    report = collect(args.trials, args.horizon, args.shards)
    print(render(report))
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
