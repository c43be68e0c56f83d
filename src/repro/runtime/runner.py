"""The parallel runner: plan shards, fan out, merge, cache.

:class:`ParallelRunner` is the façade of :mod:`repro.runtime`.  Given
a :class:`~repro.runtime.spec.SimulationSpec` (Monte Carlo ensemble)
or a system experiment (node-level repeats) it

1. checks the content-addressed cache for a previous merged result,
2. splits the work into a worker-count-independent shard plan,
3. executes the shards on the configured backend — each task is a
   *fused group* of contiguous shards of one spec, stacked into one
   state and advanced by one kernel call per segment, with every
   shard keeping its own generator and rows — and
4. merges shard results in plan order as they stream in: each task's
   per-shard parts fold into a
   :class:`~repro.core.results.MergeAccumulator` the moment the task
   clears the :class:`ReorderBuffer`, so at most ``O(workers)`` task
   results are in flight instead of ``O(shards)``, and the merged
   ensemble is byte-identical to
   :func:`~repro.core.results.merge_parts` over the full shard list.

Because the plan and the merge order are independent of the executor
(grouping only decides which shards share a task; a shard's bits are
the same in any group), ``workers=1`` and ``workers=8`` produce
bit-identical merged arrays for the same spec and shard count.

Grids of specs (the per-``(a, w, v)`` cells of the paper's figure
sweeps) go through :meth:`ParallelRunner.run_many` /
:meth:`ParallelRunner.run_system_many`: per-spec cache checks and
plans, but one pool dispatch for every uncached shard of every spec —
bit-identical to running the specs one at a time, without the per-cell
dispatch latency or the worker idling between cells.

The shard task functions are module-level so they pickle by reference
under every multiprocessing start method.
"""

from __future__ import annotations

import pathlib
import threading
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .._validation import ensure_positive_int
from ..core.results import EnsembleResult, MergeAccumulator, merge_parts
from ..core.stats import DEFAULT_BINS, ensure_reduce_mode
from ..obs import ShardEnvelope, ingest_envelope
from ..obs.metrics import MetricsRegistry, get_metrics, using_worker_metrics
from ..obs.trace import Tracer, get_tracer, using_worker_tracer
from ..sim.checkpoints import linear_checkpoints
from ..sim.kernels import GROUP_MAX_PART_BYTES, GROUP_MAX_ROWS
from ..sim.rng import RandomSource, SeedLike
from .cache import ResultCache
from .executor import (
    Executor,
    ProgressCallback,
    ShardExecutionError,
    _failure_triple,
    _format_exception,
    make_executor,
)
from .faults import RetryPolicy
from .journal import RunJournal, shard_fingerprint
from .sharding import (
    DEFAULT_SHARD_COUNT,
    Shard,
    ShardPlan,
    plan_shards,
    pristine_sequence,
    split_evenly,
)
from .spec import SimulationSpec, SystemSpec, spec_fingerprint

__all__ = ["ParallelRunner", "ReorderBuffer"]


class ReorderBuffer:
    """Stage out-of-order completions, releasing them in index order.

    The streaming merge must fold shard results in *plan* order (the
    order that makes merged bits worker-count-independent), but a pool
    completes shards in whatever order they finish.  The buffer holds
    the completions that arrived early; :meth:`push` returns every item
    that just became consumable, in index order.

    Occupancy is bounded by the executor's submission window, not the
    task count: at most ``window`` tasks are in flight, so at most
    ``window - 1`` completions can be staged ahead of the next index.

    Parameters
    ----------
    total:
        Number of indices the buffer will see (0..total-1, each exactly
        once).
    """

    def __init__(self, total: int) -> None:
        if total < 0:
            raise ValueError(f"total must be non-negative, got {total}")
        self.total = total
        self._next = 0
        self._staged: Dict[int, Any] = {}

    @property
    def staged(self) -> int:
        """Completions held waiting for an earlier index."""
        return len(self._staged)

    @property
    def released(self) -> int:
        """Completions already handed out in index order."""
        return self._next

    @property
    def complete(self) -> bool:
        """Whether every index has been pushed and released."""
        return self._next == self.total and not self._staged

    def push(self, index: int, item: Any) -> List[Tuple[int, Any]]:
        """Stage one completion; return the items now consumable, in order."""
        if not 0 <= index < self.total:
            raise IndexError(
                f"index {index} out of range for a {self.total}-item buffer"
            )
        if index < self._next or index in self._staged:
            raise ValueError(f"index {index} was already pushed")
        self._staged[index] = item
        released: List[Tuple[int, Any]] = []
        while self._next in self._staged:
            released.append((self._next, self._staged.pop(self._next)))
            self._next += 1
        return released

    def __repr__(self) -> str:
        return (
            f"ReorderBuffer(next={self._next}, total={self.total}, "
            f"staged={self.staged})"
        )


class _Pending(NamedTuple):
    """One uncached spec of a dispatch: which tasks carry its shards,
    which plan ordinals each task runs, and where its merged result
    goes.  With a journal, shards recovered from a prior (interrupted)
    run ride along as ``preloaded`` and are *not* dispatched — the
    merge interleaves both sources in plan order."""

    position: int  # slot in the caller's result list
    key: Optional[str]  # cache fingerprint, None when caching is off
    start: int  # first task index of this spec's groups
    groups: Tuple[Tuple[int, ...], ...]  # per task: the ordinals it runs
    trials: int  # total trials across the shards (the plan total)
    shards: int  # total shards in the plan (dispatched + preloaded)
    preloaded: Tuple[Tuple[int, Any], ...]  # (ordinal, result) recovered


def _error_triple(index: int, error: Exception) -> Tuple[int, str, str]:
    """A ``failures`` triple for an error raised in the parent."""
    return index, repr(error), _format_exception(error)


def _estimated_part_bytes(spec: SimulationSpec, rows: int) -> int:
    """Rough bytes of one shard result of ``rows`` trials of ``spec``."""
    checkpoints = len(
        spec.checkpoints
        if spec.checkpoints is not None
        else linear_checkpoints(spec.horizon)
    )
    miners = spec.allocation.size
    if spec.reduce == "stats":
        # Per-checkpoint histograms dominate, whatever the row count.
        return checkpoints * miners * (DEFAULT_BINS + 4) * 8
    return rows * checkpoints * miners * 8


def _pack_groups(
    spec: SimulationSpec,
    shard_list: Sequence[Shard],
    ordinals: Sequence[int],
    least: int,
) -> List[Tuple[int, ...]]:
    """Split a spec's dispatched ordinals into contiguous fused groups.

    At least ``least`` groups (so a lone spec still feeds every
    worker), and as many more as keep each group within
    :data:`~repro.sim.kernels.GROUP_MAX_ROWS` trial rows and
    :data:`~repro.sim.kernels.GROUP_MAX_PART_BYTES` of estimated
    results.  Grouping never changes a shard's bits, only how many
    shards one task runs.
    """
    rows = [shard_list[o].trials for o in ordinals]
    sizes = [_estimated_part_bytes(spec, r) for r in rows]
    count = max(
        least,
        -(-sum(rows) // GROUP_MAX_ROWS),
        -(-sum(sizes) // GROUP_MAX_PART_BYTES),
    )
    while True:
        count = min(count, len(ordinals))
        groups: List[Tuple[int, ...]] = []
        fits = True
        cut = 0
        for length in split_evenly(len(ordinals), count):
            span = slice(cut, cut + length)
            cut += length
            groups.append(tuple(ordinals[span]))
            if length > 1 and (
                sum(rows[span]) > GROUP_MAX_ROWS
                or sum(sizes[span]) > GROUP_MAX_PART_BYTES
            ):
                fits = False
        if fits:
            return groups
        count += 1


def _traced_group(body, spec, shards, index: int, kind: str) -> ShardEnvelope:
    """Run one task under a fresh worker-local tracer and registry.

    The worker must not record into a forked copy of the parent's
    tracer (its buffer dies with the child) nor — on the threads
    backend — into the parent's live tracer (the shipped spans would
    then be ingested twice).  A private pair, installed as thread-local
    overrides so nested kernel/cache/chainsim instrumentation lands in
    it, sidesteps both; the envelope carries everything home.
    """
    tracer = Tracer()
    metrics = MetricsRegistry()
    with using_worker_tracer(tracer), using_worker_metrics(metrics):
        with tracer.span(
            "shard.run",
            task=index,
            shard=shards[0].index,
            shards=len(shards),
            trials=sum(shard.trials for shard in shards),
            kind=kind,
        ):
            payload = body(spec, shards)
    return ShardEnvelope(payload, tracer.drain(), metrics.snapshot())


def _simulation_shard_body(spec: SimulationSpec, shard: Shard):
    """One shard's result, exactly as its group would produce it."""
    return _simulation_group_body(spec, (shard,))[0]


def _simulation_group_body(spec: SimulationSpec, shards: Sequence[Shard]):
    from ..sim.engine import MonteCarloEngine

    # Each shard seeds from a pristine copy of its sequence: spawning
    # mutates a SeedSequence, and a retried or re-run shard must draw
    # exactly what its first attempt drew.
    engine = MonteCarloEngine(
        spec.protocol,
        spec.allocation,
        kernel=spec.kernel,
        blocks=[
            (shard.trials, RandomSource(pristine_sequence(shard.seed)))
            for shard in shards
        ],
    )
    # Under reduce="stats" the engine folds checkpoints straight into
    # one StatsSummary per shard — no trajectory cube is allocated.
    return engine.run(
        spec.horizon,
        spec.checkpoints,
        events=spec.events,
        record_terminal_stakes=spec.record_terminal_stakes,
        reduce=spec.reduce,
    )


def _run_simulation_shard(task) -> Any:
    """Worker entry point: run one fused group of a Monte Carlo ensemble.

    ``task`` is ``(spec, shards)`` on an untraced dispatch or ``(spec,
    shards, task_index)`` when telemetry is on, in which case the
    return value is a :class:`~repro.obs.ShardEnvelope` carrying the
    worker's spans and metrics alongside the result.  ``shards`` are
    contiguous shards of ``spec``'s plan, run as one stacked kernel
    call; the result is their per-shard parts, in order, each
    byte-identical to running that shard alone.
    """
    if len(task) == 2:
        spec, shards = task
        return _simulation_group_body(spec, shards)
    spec, shards, index = task
    return _traced_group(_simulation_group_body, spec, shards, index, "sim")


def _system_shard_body(spec: SystemSpec, shard: Shard):
    # Calls the experiment's serial path directly — never its public
    # ``run`` — so a forked worker that inherited an ambient runtime
    # cannot recurse into the pool.  A pristine seed copy keeps re-runs
    # identical (see _simulation_group_body).
    result = spec.experiment._run_serial(
        spec.rounds,
        shard.trials,
        checkpoints=spec.checkpoints,
        seed=RandomSource(pristine_sequence(shard.seed)),
    )
    if spec.reduce == "stats":
        # The node-level harness produces full per-repeat results; the
        # shard reduces them before they cross the process boundary, so
        # only sketch state is pickled and merged.
        from ..core.stats import StatsSummary

        return StatsSummary.from_ensemble(result)
    return result


def _system_group_body(spec: SystemSpec, shards: Sequence[Shard]):
    return [_system_shard_body(spec, shard) for shard in shards]


def _run_system_shard(task) -> Any:
    """Worker entry point: run one group of node-level system repeats.

    Task shapes and envelope semantics mirror
    :func:`_run_simulation_shard`; the node-level harness has no
    stacked form, so the group's shards simply run in turn.
    """
    if len(task) == 2:
        spec, shards = task
        return _system_group_body(spec, shards)
    spec, shards, index = task
    return _traced_group(_system_group_body, spec, shards, index, "system")


class ParallelRunner:
    """Sharded, cached execution of ensemble workloads.

    A spec's shards run in *fused groups*: contiguous shards of one
    spec that one task advances as a single stacked kernel call.  A
    spec gets at least ``ceil(workers / uncached specs)`` groups, so a
    lone spec still feeds every worker; a group holds at most about
    :data:`~repro.sim.kernels.GROUP_MAX_ROWS` trials and
    :data:`~repro.sim.kernels.GROUP_MAX_PART_BYTES` of estimated
    results.  Grouping never changes a shard's bits, only how many
    shards share a task — which is also the unit of retries, deadlines
    and failures.  Node-level system repeats have no stacked form and
    run one shard per task.

    Parameters
    ----------
    workers:
        Worker count; 1 runs in-process.
    backend:
        ``"processes"`` (default) or ``"threads"`` — how workers > 1
        fan out.  Threads suit the GIL-releasing batched kernels and
        small specs; processes suit Python-bound work.  Either way the
        merged bits depend only on the shard plan.
    cache:
        A :class:`ResultCache`, a directory path to create one in, or
        None to disable caching.
    shards:
        Default shard count per run; None uses
        ``max(DEFAULT_SHARD_COUNT, workers)`` clamped to the trial
        count, so plans are identical for any worker count up to
        :data:`~repro.runtime.sharding.DEFAULT_SHARD_COUNT` while
        larger pools still get one shard per worker.  The shard count
        — not the worker count — determines the merged bits, so pin it
        when comparing runs.
    progress:
        Optional ``callback(completed, total_shards)`` fired as shard
        results are *merged*, in plan order.  ``total_shards`` covers
        the whole dispatch — for :meth:`run_many` that is every
        uncached shard of every spec in the grid.  Counting merged
        (not dispatched) shards means the count can never overshoot
        the total, even when a shard fails mid-grid and the completed
        specs are salvaged.
    retry:
        Optional :class:`~repro.runtime.faults.RetryPolicy` (or an int
        shorthand for ``RetryPolicy(max_attempts=n)``): transiently
        failing tasks — each a fused group of shards — are re-run whole
        with deterministic backoff before a failure is reported.
        Shards are pure functions of the plan, so retried runs stay
        bit-identical.  :attr:`shards_retried` counts retried task
        attempts.  Only valid when the runner builds its own executor;
        configure a custom executor directly.
    timeout:
        Optional per-task deadline in seconds, covering one fused group
        (pool backends only): hung workers are abandoned or killed, the
        failure classifies as a retryable
        :class:`~repro.runtime.faults.WorkerTimeoutError`, and an
        unrecoverable pool degrades to serial with a warning.
    journal:
        A :class:`~repro.runtime.journal.RunJournal` (or a path to
        one); requires a cache.  Completed shards are checkpointed as
        cache artifacts and journaled as their task returns, so an
        interrupted grid resumes — recomputing only unjournaled shards,
        which is every shard of a task that failed or never ran — by
        re-running with the same journal.  None of ``retry``,
        ``timeout`` or ``journal`` enters cache fingerprints: a
        fault-tolerant run shares its artifacts with a plain one.
    reduce:
        Ambient default for the specs this runner *builds* (grid
        helpers, :meth:`run_system`): ``"full"`` keeps whole
        trajectories, ``"stats"`` keeps mergeable sufficient
        statistics in O(1) memory per shard.  Unlike every knob above
        this one is *physics* — it lands on the specs and enters their
        fingerprints, so stats and full runs never share artifacts.
        :meth:`run`/:meth:`run_many` honour each spec's own ``reduce``
        field and ignore this default.

    Examples
    --------
    >>> from repro.protocols import MultiLotteryPoS
    >>> from repro.core.miners import Allocation
    >>> from repro.runtime import ParallelRunner, SimulationSpec
    >>> spec = SimulationSpec(MultiLotteryPoS(0.01),
    ...                       Allocation.two_miners(0.2),
    ...                       trials=100, horizon=200, seed=11)
    >>> ParallelRunner(workers=1).run(spec).trials
    100
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[ResultCache, str, pathlib.Path, None] = None,
        *,
        shards: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        executor: Optional[Executor] = None,
        backend: str = "processes",
        retry: Union[RetryPolicy, int, None] = None,
        timeout: Optional[float] = None,
        journal: Union[RunJournal, str, pathlib.Path, None] = None,
        reduce: str = "full",
    ) -> None:
        if executor is not None and (retry is not None or timeout is not None):
            raise ValueError(
                "retry/timeout configure the runner-built executor; with "
                "a custom executor, set them on the executor itself "
                "(e.g. via make_executor)"
            )
        self.executor = (
            executor
            if executor is not None
            else make_executor(workers, backend=backend, retry=retry,
                               timeout=timeout)
        )
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        if journal is None or isinstance(journal, RunJournal):
            self.journal = journal
        else:
            self.journal = RunJournal(journal)
        if self.journal is not None and self.cache is None:
            raise ValueError(
                "journal requires a cache: resume checkpoints are stored "
                "as cache artifacts"
            )
        self.default_shards = shards
        self.progress = progress
        # Ambient default for spec builders (the experiments grid
        # helpers, run_system).  A *physics* knob: it lands on the
        # specs themselves and enters their fingerprints — run()/
        # run_many() honour each spec's own ``reduce`` field.
        self.reduce = ensure_reduce_mode(reduce)
        # Tally counters are shared state: the threads backend fires
        # retry callbacks from pool threads, so updates must hold this
        # lock or concurrent completions lose increments.
        self._retry_lock = threading.Lock()
        #: Retry attempts consumed across this runner's dispatches.
        self.shards_retried = 0
        #: Shards recovered from journal checkpoints instead of dispatched.
        self.shards_resumed = 0
        try:
            # Tally retries (and forward them to progress callbacks that
            # care) without ever touching the per-shard completion
            # counts — retried shards must not double-count.
            self.executor.retry_listener = self._on_retry
        except AttributeError:
            pass  # duck-typed executor without the knob: no tally

    def _on_retry(self, index: int, attempt: int) -> None:
        with self._retry_lock:
            self.shards_retried += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("runner.shards_retried").inc()
        note = getattr(self.progress, "retry", None)
        if note is not None:
            note(index, attempt)

    @property
    def workers(self) -> int:
        """Degree of parallelism of the configured executor."""
        return self.executor.workers

    @property
    def is_parallel(self) -> bool:
        """Whether this runner fans work out across processes."""
        return self.executor.workers > 1

    # -- execution -------------------------------------------------------

    def run(
        self,
        spec: SimulationSpec,
        *,
        shards: Optional[int] = None,
    ) -> EnsembleResult:
        """Run (or load) the Monte Carlo ensemble described by ``spec``."""
        return self.run_many([spec], shards=shards)[0]

    def run_many(
        self,
        specs: Sequence[SimulationSpec],
        *,
        shards: Optional[int] = None,
    ) -> List[EnsembleResult]:
        """Run (or load) a whole grid of Monte Carlo ensembles at once.

        Equivalent to ``[self.run(s) for s in specs]`` — bit-identical
        results, same cache reads and writes — but every uncached shard
        of every spec goes to the pool in a *single* dispatch, so
        workers never idle between grid cells and pool latency is paid
        once per grid instead of once per cell.  Progress callbacks see
        ``(completed, total)`` across the whole grid.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, SimulationSpec):
                raise TypeError(
                    f"specs must be SimulationSpecs, got {type(spec).__name__}"
                )
        return self._execute_many(
            [(spec, spec.trials) for spec in specs],
            _run_simulation_shard,
            shards,
            span_name="runner.run_many",
            fuse=True,
        )

    def run_system(
        self,
        experiment: Any,
        rounds: int,
        repeats: int,
        *,
        checkpoints: Optional[Sequence[int]] = None,
        seed: SeedLike = None,
        shards: Optional[int] = None,
    ) -> EnsembleResult:
        """Run (or load) ``repeats`` node-level deployments of ``experiment``.

        ``experiment`` is a
        :class:`~repro.chainsim.harness.SystemExperiment`; arguments
        mirror its ``run`` method.
        """
        spec = SystemSpec(
            experiment=experiment,
            rounds=rounds,
            repeats=repeats,
            checkpoints=None if checkpoints is None else tuple(checkpoints),
            seed=seed,
            reduce=self.reduce,
        )
        return self.run_system_many([spec], shards=shards)[0]

    def run_system_many(
        self,
        specs: Sequence[SystemSpec],
        *,
        shards: Optional[int] = None,
    ) -> List[EnsembleResult]:
        """Run (or load) many node-level system ensembles at once.

        The :class:`~repro.runtime.spec.SystemSpec` counterpart of
        :meth:`run_many`: bit-identical to calling :meth:`run_system`
        per spec, but all uncached shards share one pool dispatch.
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, SystemSpec):
                raise TypeError(
                    f"specs must be SystemSpecs, got {type(spec).__name__}"
                )
        return self._execute_many(
            [(spec, spec.repeats) for spec in specs],
            _run_system_shard,
            shards,
            span_name="runner.run_system_many",
            fuse=False,
        )

    def _resolve_shards(self, total: int, shards: Optional[int]) -> int:
        """The effective shard count for ``total`` trials.

        Explicit counts (argument or ``default_shards``) are clamped to
        the trial count like the default plan — 16 shards of a 4-trial
        spec is 4 shards, not an error.
        """
        if shards is None:
            shards = self.default_shards
        if shards is None:
            # Workers above the default shard count would otherwise sit
            # idle; give big pools one shard each (cache keys carry the
            # shard count, so plans never silently collide).
            shards = max(DEFAULT_SHARD_COUNT, self.workers)
        return min(total, ensure_positive_int("shards", shards))

    def _execute_many(
        self,
        entries,
        shard_fn,
        shards: Optional[int],
        span_name: str,
        fuse: bool,
    ):
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                span_name, specs=len(entries), workers=self.workers
            ) as root:
                return self._dispatch(entries, shard_fn, shards, root, fuse)
        return self._dispatch(entries, shard_fn, shards, None, fuse)

    def _dispatch(
        self,
        entries,
        shard_fn,
        shards: Optional[int],
        root,
        fuse: bool,
    ):
        """Plan, check the cache, group the uncached shards into tasks,
        and fold.

        With ``fuse`` each task is a contiguous group of one spec's
        shards (see :func:`_pack_groups`); otherwise — node-level
        system repeats, which have no stacked form and gain nothing
        from grouping — each task holds one shard.
        """
        merged: List[Optional[EnsembleResult]] = [None] * len(entries)
        # (position, key, spec, plan shards, dispatched ordinals, preloaded)
        # Uncached specs: (position, key, spec, plan, ordinals to
        # dispatch, journal-preloaded parts).
        work: List[Tuple[int, Optional[str], Any, ShardPlan,
                         Tuple[int, ...], Tuple[Tuple[int, Any], ...]]] = []
        first_pending: dict = {}
        duplicates: List[Tuple[int, int, str]] = []
        metrics = get_metrics()
        for position, (spec, total) in enumerate(entries):
            plan = plan_shards(
                total, spec.seed_sequence, self._resolve_shards(total, shards)
            )
            key = None
            preloaded: Tuple[Tuple[int, Any], ...] = ()
            ordinals: Tuple[int, ...] = tuple(range(len(plan)))
            if self.cache is not None:
                key = spec_fingerprint(spec, shards=len(plan))
                if key in first_pending:
                    # A duplicate of a spec already in this dispatch:
                    # the per-cell loop would have loaded it as a hit
                    # once the first copy landed, so compute it once
                    # and load it back the same way (no planning-time
                    # get — the loop never saw a miss for it either).
                    duplicates.append((position, first_pending[key], key))
                    continue
                cached = self.cache.get(key)
                if cached is not None:
                    merged[position] = cached
                    continue
                if self.journal is not None:
                    # Resume: shards an interrupted run journaled load
                    # from their checkpoint artifacts instead of
                    # dispatching.  The journal is advisory — a
                    # journaled shard whose artifact was evicted (the
                    # get counts a miss) simply recomputes.
                    recovered: Dict[int, Any] = {}
                    journaled = self.journal.completed_shards(key)
                    for ordinal, shard_key in journaled.items():
                        if not 0 <= ordinal < len(plan):
                            continue
                        part = self.cache.get(shard_key)
                        if part is not None:
                            recovered[ordinal] = part
                    if recovered:
                        preloaded = tuple(sorted(recovered.items()))
                        ordinals = tuple(
                            o for o in range(len(plan)) if o not in recovered
                        )
                        with self._retry_lock:
                            self.shards_resumed += len(recovered)
                        if metrics.enabled:
                            metrics.counter("runner.shards_resumed").inc(
                                len(recovered)
                            )
                    if not ordinals:
                        # Every shard was journaled: finalize without
                        # dispatching anything.
                        result = merge_parts(
                            [part for _, part in preloaded]
                        )
                        self.cache.put(key, result)
                        self.journal.record_spec(key)
                        for ordinal in range(len(plan)):
                            self.cache.discard(shard_fingerprint(key, ordinal))
                        merged[position] = result
                        continue
                first_pending[key] = position
            work.append((position, key, spec, plan, ordinals, preloaded))
        tasks: List[Tuple[Any, Tuple[Shard, ...]]] = []
        pending: List[_Pending] = []
        # Enough groups per spec that a small grid (or a lone spec)
        # still gives every worker a task.
        least = -(-self.workers // max(1, len(work)))
        for position, key, spec, plan, ordinals, preloaded in work:
            if fuse:
                groups = _pack_groups(spec, plan.shards, ordinals, least)
            else:
                groups = [(ordinal,) for ordinal in ordinals]
            pending.append(
                _Pending(
                    position, key, len(tasks), tuple(groups), plan.total,
                    len(plan), preloaded,
                )
            )
            tasks.extend(
                (spec, tuple(plan.shards[o] for o in group)) for group in groups
            )
        dispatched = sum(len(group) for entry in pending for group in entry.groups)
        if root is not None:
            # Traced dispatches widen tasks to (spec, shards, task_index)
            # so workers can stamp shard.run spans with the index the
            # executor's submit/complete events carry; untraced
            # dispatches keep the bare 2-tuples.
            tasks = [
                (spec, group, index)
                for index, (spec, group) in enumerate(tasks)
            ]
            root.set("tasks", len(tasks))
            root.set("shards", dispatched)
            root.set("cached_specs", len(entries) - len(pending) - len(duplicates))
        if metrics.enabled:
            metrics.counter("runner.specs").inc(len(entries))
            metrics.counter("runner.shards_dispatched").inc(dispatched)
        try:
            if tasks:
                self._fold_streamed(tasks, pending, shard_fn, merged, dispatched)
        finally:
            # Give line-oriented progress callbacks (e.g. the CLI's
            # carriage-return shard ticker) a chance to terminate their
            # output even when a shard failure propagates out.
            close = getattr(self.progress, "close", None)
            if close is not None:
                close()
        for position, original, key in duplicates:
            loaded = self.cache.get(key)
            merged[position] = loaded if loaded is not None else merged[original]
        return merged

    def _journal_shard(self, entry: _Pending, ordinal: int, part) -> None:
        """Checkpoint one completed shard for resume: artifact + record."""
        if self.journal is None or entry.key is None:
            return
        shard_key = shard_fingerprint(entry.key, ordinal)
        self.cache.put(shard_key, part)
        self.journal.record_shard(entry.key, ordinal, shard_key)

    def _journal_spec_done(self, entry: _Pending) -> None:
        """Journal a finalized spec and drop its shard checkpoints (the
        merged artifact supersedes them)."""
        if self.journal is None or entry.key is None:
            return
        self.journal.record_spec(entry.key)
        for ordinal in range(entry.shards):
            self.cache.discard(shard_fingerprint(entry.key, ordinal))

    def _fold_streamed(self, tasks, pending, shard_fn, merged, total) -> None:
        """Fold shard results in plan order as their tasks complete.

        Completions arrive from :meth:`Executor.stream` in whatever
        order the pool finishes them; a :class:`ReorderBuffer` (bounded
        by the executor's submission window) restores task order, and
        each released task's per-shard parts fold straight into their
        spec's :class:`~repro.core.results.MergeAccumulator` and are
        dropped — at most ``O(workers)`` task results are ever held,
        against ``O(shards)`` for a collect-then-merge, while the
        folded ensemble stays bit-identical to ``merge_parts`` over the
        full shard list.

        A spec whose shards all folded is finalized — and cached —
        immediately, so a later failure in another spec never discards
        completed work.  A failed task fails every shard it carried.
        Progress fires once per *merged* shard (``total`` is the
        dispatched shard count), in plan order, and therefore cannot
        overshoot when tasks fail — and counts each shard's final
        outcome exactly once, however many retry attempts its task
        took.

        With a journal, shards recovered from a prior run (``entry
        .preloaded``) interleave with dispatched completions at their
        plan ordinals, and every fresh shard is checkpointed (artifact
        + journal record) the moment its task returns — including
        shards of specs already poisoned by a failure, so an aborted
        grid leaves the maximum behind for ``--resume``.
        """
        owner: Dict[int, int] = {}
        for slot, entry in enumerate(pending):
            for index in range(entry.start, entry.start + len(entry.groups)):
                owner[index] = slot
        accumulators: List[Optional[MergeAccumulator]] = [None] * len(pending)
        # Per-slot plan-order fold state: `cursors` is the next ordinal
        # to fold, `staged` maps ordinal -> result for parts that cannot
        # fold yet (journal preloads ahead of the dispatched cursor).
        cursors = [0] * len(pending)
        staged: List[Dict[int, Any]] = [
            dict(entry.preloaded) for entry in pending
        ]
        poisoned = [False] * len(pending)
        failures: List[Tuple[int, str, str]] = []
        buffer = ReorderBuffer(len(tasks))
        tracer = get_tracer()
        metrics = get_metrics()
        folded = 0  # shards merged (or failed), for progress

        def poison(slot: int, failure: Tuple[int, str, str]) -> None:
            failures.append(failure)
            poisoned[slot] = True
            accumulators[slot] = None  # free the partial fold
            staged[slot].clear()

        def advance(slot: int, task_index: int) -> None:
            """Fold every consumable staged part; finalize when done."""
            entry = pending[slot]
            while not poisoned[slot] and cursors[slot] in staged[slot]:
                part = staged[slot].pop(cursors[slot])
                accumulator = accumulators[slot]
                if accumulator is None:
                    accumulator = MergeAccumulator(
                        expected_trials=entry.trials
                    )
                    accumulators[slot] = accumulator
                try:
                    accumulator.add(part)
                except Exception as error:  # noqa: BLE001 - poisoned, re-raised
                    # A malformed payload (e.g. from a duck-typed
                    # executor) must fail its spec, not crash the whole
                    # fold loop mid-grid.
                    poison(slot, _error_triple(task_index, error))
                    return
                cursors[slot] += 1
            if cursors[slot] == entry.shards and not poisoned[slot]:
                result = accumulators[slot].result()
                accumulators[slot] = None
                if entry.key is not None:
                    self.cache.put(entry.key, result)
                    self._journal_spec_done(entry)
                merged[entry.position] = result

        for slot in range(len(pending)):
            # A resumed spec may already be able to fold its leading
            # preloaded shards; folding them up front keeps the staging
            # dict (and peak memory) bounded by the reorder window.
            if staged[slot]:
                advance(slot, pending[slot].start)
        def fold(task_index: int, item_ok: bool, item) -> None:
            """Fold (or fail) every shard of one released task."""
            nonlocal folded
            slot = owner[task_index]
            entry = pending[slot]
            group = entry.groups[task_index - entry.start]
            failure = None
            if not item_ok:
                failure = _failure_triple(task_index, item)
            else:
                # Traced workers ship telemetry with the payload;
                # unwrap (a bare payload passes through) before it
                # reaches the accumulator.
                item = ingest_envelope(item)
                if not isinstance(item, list) or len(item) != len(group):
                    failure = _error_triple(task_index, TypeError(
                        f"task {task_index} returned {type(item).__name__}"
                        f", not a list of {len(group)} shard results"
                    ))
            if failure is not None:
                poison(slot, failure)
                if metrics.enabled:
                    metrics.counter("runner.shards_failed").inc(len(group))
            else:
                for ordinal, part in zip(group, item):
                    # Checkpoint before folding: even shards of a spec
                    # that already failed are worth journaling — resume
                    # will not recompute them.
                    self._journal_shard(entry, ordinal, part)
                    if not poisoned[slot]:
                        staged[slot][ordinal] = part
                advance(slot, task_index)
            if tracer.enabled:
                tracer.event("shard.merge", task=task_index, ok=failure is None)
            if self.progress is not None:
                for _ in group:
                    folded += 1
                    self.progress(folded, total)

        for index, ok, payload in self.executor.stream(shard_fn, tasks):
            released = buffer.push(index, (ok, payload))
            # Hold no reference to a folded task's parts while the
            # executor computes the next one.
            del payload
            while released:
                task_index, (item_ok, item) = released.pop(0)
                fold(task_index, item_ok, item)
                del item
        if not buffer.complete:
            # A custom stream() that drops tasks instead of yielding
            # them as failures would otherwise surface as silent None
            # results far downstream.
            raise RuntimeError(
                f"executor stream yielded {buffer.released + buffer.staged} "
                f"of {buffer.total} tasks — every task must be yielded "
                "exactly once (as a failure if it did not run)"
            )
        if failures:
            # Completed specs were already cached as they finalized;
            # the drained per-task results are deliberately not
            # retained (retaining them is exactly what streaming
            # avoids).
            raise ShardExecutionError(failures)

    def __repr__(self) -> str:
        return (
            f"ParallelRunner(workers={self.workers}, "
            f"cache={self.cache!r}, shards={self.default_shards})"
        )
