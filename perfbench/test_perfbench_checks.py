"""The benchmark's output checks fail on corrupted output.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.theory.polya import pow_fair_probability  # noqa: E402

TRIALS = 300
EPSILON = 0.1
CHECKPOINTS = [10, 20, 50, 100, 200, 300]


def exact_fig3() -> dict:
    """A Figure 3 document whose PoW points sit on the exact law."""
    series = {}
    for share in (0.1, 0.3, 0.5):
        series[f"PoW|{share:g}"] = [
            round((1.0 - pow_fair_probability(share, n, EPSILON)) * TRIALS)
            / TRIALS
            for n in CHECKPOINTS
        ]
    series["SL-PoS|0.1"] = [1.0] * len(CHECKPOINTS)
    return {"checkpoints": CHECKPOINTS, "series": series, "convergence": {}}


def law(document):
    return checks.pow_law(document, TRIALS, EPSILON, pow_fair_probability, "t")


def test_law_accepts_the_exact_law():
    assert law(exact_fig3()) == []


def test_law_rejects_a_shifted_point():
    document = exact_fig3()
    values = document["series"]["PoW|0.3"]
    values[2] -= 0.2  # 60 of 300 games moved into the fair area
    problems = law(document)
    assert len(problems) == 1 and "PoW|0.3 at n=50" in problems[0]


def test_law_rejects_a_value_that_is_not_a_trial_count():
    document = exact_fig3()
    document["series"]["PoW|0.1"][0] += 0.5 / TRIALS
    assert "not a count" in law(document)[0]


def test_law_rejects_missing_pow_series():
    document = exact_fig3()
    document["series"] = {"SL-PoS|0.1": document["series"]["SL-PoS|0.1"]}
    assert law(document) == ["t: fig3 has no PoW series"]


def test_same_outputs_rejects_any_changed_byte():
    reference = {"fig3.json": b'{"a": 1}', "tab1.json": b"[]"}
    assert checks.same_outputs(reference, dict(reference), "t") == []
    changed = dict(reference, **{"fig3.json": b'{"a": 2}'})
    assert checks.same_outputs(reference, changed, "t") == [
        "t: fig3.json differs from the reference run"
    ]
    missing = {"fig3.json": reference["fig3.json"]}
    assert len(checks.same_outputs(reference, missing, "t")) == 1
    assert len(checks.same_outputs({}, {}, "t")) == 1


def test_no_new_entries_rejects_cache_writes(tmp_path):
    (tmp_path / "a.npz").write_bytes(b"x")
    before = checks.cache_listing(tmp_path)
    assert checks.no_new_entries(before, checks.cache_listing(tmp_path), "t") == []
    (tmp_path / "b.npz").write_bytes(b"y")
    assert "1 new cache files" in checks.no_new_entries(
        before, checks.cache_listing(tmp_path), "t"
    )[0]
    (tmp_path / "b.npz").unlink()
    (tmp_path / "a.npz").write_bytes(b"xx")
    assert "rewritten" in checks.no_new_entries(
        before, checks.cache_listing(tmp_path), "t"
    )[0]


def _invocation(status):
    return run.Invocation(status=status, start_ns=0, end_ns=1, cpu_s=0.0, rss_mb=0.0)


def _write_outputs(directory: pathlib.Path, document: dict) -> pathlib.Path:
    directory.mkdir()
    (directory / "fig3.json").write_text(json.dumps(document))
    return directory


def test_bench_fails_a_corrupted_or_failed_invocation(tmp_path):
    bench = run.Bench("ci-all-cold", 1, tmp_path)
    err = tmp_path / "err.txt"
    err.write_text("Traceback\nValueError: boom\n")
    good = _write_outputs(tmp_path / "good", exact_fig3())
    # The first output becomes the reference; a repeat of it passes.
    assert bench.problems(_invocation(0), err, good, None) == []
    assert bench.problems(_invocation(0), err, good, None) == []
    assert "exit status 1" in bench.problems(_invocation(1), err, good, None)[0]
    assert "killed" in bench.problems(_invocation(None), err, good, None)[0]
    corrupted = exact_fig3()
    corrupted["series"]["PoW|0.5"][-1] = 1.0
    bad = _write_outputs(tmp_path / "bad", corrupted)
    problems = bench.problems(_invocation(0), err, bad, None)
    assert any("differs from the reference" in p for p in problems)
    assert any("PoW|0.5" in p and "exact law" in p for p in problems)


def test_bench_fails_a_warm_run_that_writes_the_cache(tmp_path):
    bench = run.Bench("ci-all-cold", 1, tmp_path)
    assert bench.workload.warm_check
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "a.npz").write_bytes(b"x")
    before = checks.cache_listing(cache)
    err = tmp_path / "err.txt"
    err.write_text("")
    outputs = _write_outputs(tmp_path / "out", exact_fig3())
    assert bench.problems(_invocation(0), err, outputs, before, cache) == []
    (cache / "b.npz").write_bytes(b"y")
    problems = bench.problems(_invocation(0), err, outputs, before, cache)
    assert "new cache files" in problems[0]


def test_layer_metrics_self_time_and_unattributed():
    ms = 1_000_000
    spans = [
        ["experiments.render", 1, 0, None, 100 * ms, 900 * ms, {"key": "fig3"}],
        ["experiments", 1, 1, 0, 110 * ms, 890 * ms, {"key": "fig3"}],
        ["runtime.runner.run_many", 1, 2, 1, 120 * ms, 880 * ms, {"specs": 2}],
        ["runtime.cache.put", 1, 3, 2, 800 * ms, 850 * ms, {"bytes": 10}],
        ["runtime.executor.shard", 7, 0, None, 130 * ms, 700 * ms, {}],
        ["sim.kernels", 7, 1, 0, 140 * ms, 640 * ms,
         {"cls": "ProofOfWork", "trials": 5, "rounds": 4}],
    ]
    metrics = layers.layer_metrics(
        spans, 0, 1000 * ms,
        experiment_keys=["fig3"],
        kernel_classes=["ProofOfWork"],
        network_classes=[],
    )
    assert metrics["experiments.fig3.s"] == pytest.approx(0.78)
    assert metrics["experiments.render_s"] == pytest.approx(0.02)
    assert metrics["runtime.runner.self_s"] == pytest.approx(0.71)
    assert metrics["runtime.runner.specs"] == 2
    assert metrics["runtime.cache.put.bytes"] == 10
    assert metrics["sim.kernels.ProofOfWork.calls"] == 1
    assert metrics["sim.kernels.trial_rounds"] == 20
    assert metrics["sim.kernels.trials_per_call"] == 5
    assert metrics["runtime.cache.hit_ratio"] == 0.0
    assert metrics["unattributed_s"] == pytest.approx(0.2)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer"]]
    produced = set(
        layers.layer_metrics(
            [], 0, 1,
            experiment_keys=run.EXPERIMENT_KEYS,
            kernel_classes=run._classes(names, "sim.kernels.", ".calls"),
            network_classes=run._classes(names, "chainsim.network.", ".s"),
        )
    )
    produced |= {f"startup.import.{name}_s" for name in run.IMPORT_PACKAGES}
    produced.add("trace.overhead_s")
    assert produced == set(names)
