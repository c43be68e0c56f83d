"""Layer spans for the traced benchmark run.

The program is timed from outside.  :func:`install` replaces the public
function at each layer boundary with a wrapper that records a span
(name, process, start, end, parent span, attributes) and then calls the
original, so nothing under ``src/`` changes.  :func:`layer_metrics`
turns the recorded spans into the ``per_layer`` metrics of
``BENCHMARK.json``.

Pool workers are forked from the traced CLI process and inherit the
wrappers.  The runtime terminates its pool when a dispatch ends, so a
worker never reaches an exit hook: it appends its spans to
``spans-<pid>.jsonl`` each time its outermost span (one shard task)
closes.  The CLI process writes its own spans once, when it finishes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["SpanRecorder", "install", "load_spans", "layer_metrics"]


class SpanRecorder:
    """Spans of one process, kept in memory and written as JSON lines."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked worker starts with no spans and no open span: the
        # parent's buffer and stack belong to the parent.
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, annotate=None):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        attrs: Dict[str, Any] = {}
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            attrs["error"] = True
            raise
        else:
            if annotate is not None:
                attrs = annotate(args, kwargs, result)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                [name, os.getpid(), span_id, parent, start, end, attrs]
            )
            if not stack and os.getpid() != self.main_pid:
                self.flush()

    def flush(self) -> None:
        """Append the buffered spans to this process's span file."""
        if not self.spans:
            return
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []


def _arg(args, kwargs, index: int, name: str):
    """Argument ``index`` of a call, passed by position or as ``name``."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _wrap(recorder, fn, name, annotate=None):
    if callable(name):

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name(args), fn, args, kwargs, annotate)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, annotate)

    return wrapper


def _patch_function(recorder, module, attr, name, annotate=None) -> None:
    """Wrap a module-level function everywhere it was imported by name.

    The wrapper keeps the original's module and qualified name, so
    pickle still sends it to workers by reference.
    """
    original = getattr(module, attr)
    wrapper = _wrap(recorder, original, name, annotate)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").split(".")[0] != "repro":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)


def _patch_method(recorder, cls, attr, name, annotate=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(recorder, raw.__func__, name, annotate)))
    else:
        setattr(cls, attr, _wrap(recorder, raw, name, annotate))


def _file_bytes(path) -> int:
    try:
        return pathlib.Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    from repro.chainsim import harness, network
    from repro.core.results import MergeAccumulator
    from repro.core.stats import StatsSummary
    from repro.experiments import registry
    from repro.experiments import runner as cli
    from repro.runtime import runner, sharding, spec
    from repro.runtime.cache import ResultCache
    from repro.sim import engine, kernels

    _patch_function(
        recorder, cli, "_run_one", "experiments.render",
        lambda a, k, r: {"key": a[0]},
    )
    _patch_method(
        recorder, registry.Experiment, "run_with_preset", "experiments",
        lambda a, k, r: {"key": a[0].key},
    )
    for attr in ("run_many", "run_system_many"):
        _patch_method(
            recorder, runner.ParallelRunner, attr, "runtime.runner.run_many",
            lambda a, k, r: {"specs": len(r)},
        )
    _patch_function(
        recorder, sharding, "plan_shards", "runtime.sharding.plan_shards",
        lambda a, k, r: {"shards": len(r)},
    )
    _patch_function(
        recorder, spec, "spec_fingerprint", "runtime.spec.fingerprint"
    )
    for attr in ("_run_simulation_shard", "_run_system_shard"):
        _patch_function(recorder, runner, attr, "runtime.executor.shard")
    _patch_method(
        recorder, ResultCache, "get", "runtime.cache.get",
        lambda a, k, r: {
            "hit": r is not None,
            "bytes": 0 if r is None else _file_bytes(a[0].path_for(a[1])),
        },
    )
    _patch_method(
        recorder, ResultCache, "put", "runtime.cache.put",
        lambda a, k, r: {"bytes": _file_bytes(r)},
    )
    _patch_method(recorder, engine.MonteCarloEngine, "run", "sim.engine.run")
    _patch_function(
        recorder, kernels, "batched_advance", "sim.kernels",
        lambda a, k, r: {
            "cls": type(a[0]).__name__,
            "trials": int(a[1].trials),
            "rounds": int(_arg(a, k, 2, "rounds")),
        },
    )
    _patch_method(
        recorder, MergeAccumulator, "add",
        lambda a: (
            "core.stats.merge"
            if isinstance(_arg(a, {}, 1, "part"), StatsSummary)
            else "core.results.merge"
        ),
    )
    _patch_method(recorder, StatsSummary, "merge", "core.stats.merge")
    _patch_method(
        recorder, harness.SystemExperiment, "run", "chainsim.harness.run"
    )
    for cls in (
        network.TickMiningNetwork,
        network.DeadlineMiningNetwork,
        network.CPoSNetwork,
    ):
        _patch_method(
            recorder, cls, "run", "chainsim.network",
            lambda a, k, r: {
                "cls": type(a[0]).__name__,
                "node_rounds": int(_arg(a, k, 1, "blocks") or k["epochs"])
                * len(getattr(a[0], "nodes", None) or a[0].committee.validators),
            },
        )


def load_spans(directory: pathlib.Path) -> List[list]:
    """Every span written under ``directory``, from every process."""
    spans: List[list] = []
    for path in sorted(pathlib.Path(directory).glob("spans-*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


class _Layer:
    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.self_ns = 0


def layer_table(spans: List[list]) -> Dict[str, _Layer]:
    """Calls, inclusive and self time per span name (and per ``cls``)."""
    child_ns: Dict[Tuple[int, int], int] = {}
    for name, pid, _id, parent, start, end, _attrs in spans:
        if parent is not None:
            key = (pid, parent)
            child_ns[key] = child_ns.get(key, 0) + end - start
    table: Dict[str, _Layer] = {}
    for name, pid, span_id, _parent, start, end, attrs in spans:
        keys = [name]
        if "cls" in attrs:
            keys.append(f"{name}.{attrs['cls']}")
        if "key" in attrs and name == "experiments":
            keys.append(f"{name}.{attrs['key']}")
        for key in keys:
            layer = table.setdefault(key, _Layer())
            layer.calls += 1
            layer.ns += end - start
            layer.self_ns += end - start - child_ns.get((pid, span_id), 0)
    return table


def _attr_sum(spans, name: str, attr: str) -> int:
    return sum(
        int(span[6].get(attr, 0)) for span in spans if span[0] == name
    )


def layer_metrics(
    spans: List[list],
    start_ns: int,
    end_ns: int,
    *,
    experiment_keys: Iterable[str],
    kernel_classes: Iterable[str],
    network_classes: Iterable[str],
) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced invocation.

    ``start_ns``/``end_ns`` bound the invocation as seen from outside
    (spawn to exit); time inside them that no span covers is
    ``unattributed_s``.  Layers that the workload never reaches read 0.
    """
    table = layer_table(spans)
    empty = _Layer()

    def calls(name: str) -> int:
        return table.get(name, empty).calls

    def seconds(name: str) -> float:
        return table.get(name, empty).ns / 1e9

    metrics: Dict[str, float] = {}
    for key in experiment_keys:
        metrics[f"experiments.{key}.s"] = seconds(f"experiments.{key}")
    metrics["experiments.render_s"] = (
        table.get("experiments.render", empty).self_ns / 1e9
    )
    for name in (
        "runtime.spec.fingerprint",
        "runtime.sharding.plan_shards",
        "runtime.runner.run_many",
        "runtime.executor.shard",
        "runtime.cache.put",
        "runtime.cache.get",
        "sim.engine.run",
        "sim.kernels",
        "core.results.merge",
        "core.stats.merge",
        "chainsim.harness.run",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    metrics["runtime.runner.specs"] = _attr_sum(
        spans, "runtime.runner.run_many", "specs"
    )
    metrics["runtime.runner.shards"] = _attr_sum(
        spans, "runtime.sharding.plan_shards", "shards"
    )
    metrics["runtime.runner.self_s"] = (
        table.get("runtime.runner.run_many", empty).self_ns / 1e9
    )
    metrics["runtime.cache.put.bytes"] = _attr_sum(
        spans, "runtime.cache.put", "bytes"
    )
    gets = calls("runtime.cache.get")
    hits = _attr_sum(spans, "runtime.cache.get", "hit")
    metrics["runtime.cache.get.hits"] = hits
    metrics["runtime.cache.get.bytes"] = _attr_sum(
        spans, "runtime.cache.get", "bytes"
    )
    metrics["runtime.cache.hit_ratio"] = hits / gets if gets else 0.0
    trials = _attr_sum(spans, "sim.kernels", "trials")
    trial_rounds = sum(
        span[6]["trials"] * span[6]["rounds"]
        for span in spans
        if span[0] == "sim.kernels" and "trials" in span[6]
    )
    metrics["sim.kernels.trial_rounds"] = trial_rounds
    kernel_calls = calls("sim.kernels")
    metrics["sim.kernels.trials_per_call"] = (
        trials / kernel_calls if kernel_calls else 0.0
    )
    for cls in kernel_classes:
        metrics[f"sim.kernels.{cls}.calls"] = calls(f"sim.kernels.{cls}")
        metrics[f"sim.kernels.{cls}.s"] = seconds(f"sim.kernels.{cls}")
    for cls in network_classes:
        metrics[f"chainsim.network.{cls}.s"] = seconds(f"chainsim.network.{cls}")
    metrics["chainsim.node_rounds"] = _attr_sum(
        spans, "chainsim.network", "node_rounds"
    )
    covered = _union_ns(
        (max(span[4], start_ns), min(span[5], end_ns))
        for span in spans
        if span[5] > start_ns and span[4] < end_ns
    )
    metrics["unattributed_s"] = (end_ns - start_ns - covered) / 1e9
    return metrics


def reached_classes(spans: List[list], name: str) -> List[str]:
    """The ``cls`` attributes seen on spans called ``name``."""
    return sorted({span[6]["cls"] for span in spans if span[0] == name and "cls" in span[6]})
