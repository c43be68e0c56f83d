"""Executor backends: serial, multiprocessing and thread-pool engines.

Each backend implements one engine, :meth:`Executor.stream`: tasks run
under a bounded submission window and completions are yielded as
``(task_index, ok, payload)`` the moment they resolve, so at most
``O(workers)`` results exist between the pool and the consumer.  The
runner's merge folds these through a reorder buffer in plan order,
which is how 100k-trial ensembles merge without ever materializing
every shard result at once.  :meth:`Executor.map` is a collect over
that stream: results *in task order* — the property the sharding layer
relies on for bit-identical merges — with failures aggregated rather
than raised at first error, so every shard runs, then a single
:class:`ShardExecutionError` reports all failing shards with their
tracebacks.

The same engine carries the fault tolerance (see
:mod:`repro.runtime.faults`).  :func:`make_executor`'s ``retry`` knob
gives each shard up to ``RetryPolicy.max_attempts`` attempts with
deterministic exponential backoff, and its ``timeout`` knob sets a
per-shard deadline that abandons hung workers.  Dead worker processes
are always detected and the pool respawned, and an unrecoverable pool
degrades the remaining shards to serial in-process execution behind a
loud :class:`PoolDegradedWarning`.  Because shards are idempotent pure
functions of their plan, a retried run is **bit-identical** to a clean
one.  Every index is yielded exactly once — with its *final* outcome —
so plan-order consumers are oblivious to the attempts underneath.
With both knobs at their ``None`` defaults the engine simply makes one
attempt per shard and sets no deadlines.

The multiprocessing backend prefers the ``fork`` start method where
available (cheap on Linux, and shard tasks are read-only after fork)
and falls back to ``spawn`` elsewhere, which is why task functions
must be module-level (picklable by reference).

The thread backend (``backend="threads"``) skips pickling and process
spawn entirely.  It pays off when the shard work releases the GIL —
which the batched NumPy kernels of :mod:`repro.sim.kernels` do for
their array dispatches — and for small specs where process start-up
would dominate; pure-Python-bound shards should stay on processes.
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .._validation import ensure_positive_int
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .faults import (
    PoolDegradedWarning,
    RetryPolicy,
    ShardFailure,
    WorkerCrashError,
    WorkerTimeoutError,
    exception_lineage,
)

__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "ThreadExecutor",
    "ShardExecutionError",
    "StreamItem",
    "make_executor",
]

#: Valid values of the ``backend`` knob.
EXECUTOR_BACKENDS = ("processes", "threads")

#: Progress callback signature: ``callback(completed, total)``.
ProgressCallback = Callable[[int, int], None]

#: One streamed completion: ``(task_index, ok, payload)`` where
#: ``payload`` is the task's return value when ``ok`` and an
#: ``(error_repr, traceback_text)`` pair otherwise.
StreamItem = Tuple[int, bool, Any]

#: How often (seconds) the process backend checks worker liveness while
#: waiting on completions — a crashed worker never delivers a callback,
#: so liveness must be polled.
_LIVENESS_TICK = 0.25


class ShardExecutionError(RuntimeError):
    """One or more shards failed; carries every failure, not just the first.

    Attributes
    ----------
    failures:
        List of ``(task_index, error_repr, traceback_text)`` tuples.
        When retries were enabled, the ``error_repr`` of a shard that
        exhausted its attempts is suffixed with the attempt count.
    results:
        The drained per-task results of :meth:`Executor.map`, in task
        order, with None at the failed indices — so callers batching
        independent workloads can salvage the tasks that did complete.
        **None** when the runner raises: its streaming merge
        deliberately does not retain per-task results — that retention
        is what streaming eliminates — and instead caches completed
        specs as they finalize.
    """

    def __init__(
        self,
        failures: Sequence[Tuple[int, str, str]],
        results: Optional[Sequence[Any]] = None,
    ) -> None:
        self.failures = list(failures)
        self.results = None if results is None else list(results)
        summary = "; ".join(
            f"shard {index}: {error}" for index, error, _ in self.failures
        )
        details = "\n\n".join(tb for _, _, tb in self.failures)
        super().__init__(
            f"{len(self.failures)} shard(s) failed — {summary}\n{details}"
        )


def _format_exception(error: BaseException) -> str:
    """Full traceback text for an exception object (transport failures
    arrive as objects, not active exceptions, so format_exc() is out)."""
    return "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )


def _guarded_call(payload: Tuple[Callable[[Any], Any], Any]) -> Tuple[bool, Any]:
    """Run one task, capturing any exception as data (workers can't raise
    rich tracebacks across process boundaries).  The failure payload is
    a :class:`ShardFailure` — it unpacks as ``(error_repr, traceback)``
    and additionally carries the exception's class lineage so the
    parent can classify it for retry without the exception object."""
    fn, task = payload
    try:
        return True, fn(task)
    except Exception as error:  # noqa: BLE001 - aggregated and re-raised
        return False, ShardFailure.from_exception(error, traceback.format_exc())


def _failure_triple(index: int, payload) -> Tuple[int, str, str]:
    """Normalize a failure payload into the ``failures`` triple shape,
    annotating the error with the attempt count when retries ran."""
    error, tb = payload
    attempts = getattr(payload, "attempts", 1)
    if attempts > 1:
        error = f"{error} (after {attempts} attempts)"
    return index, error, tb


def _resolve_window(window: Optional[int], pool_size: int) -> int:
    """The in-flight cap for a streaming dispatch.

    Defaults to twice the pool so workers never starve while the
    consumer folds, and is clamped to at least the pool size — a
    smaller window would leave workers permanently idle.
    """
    if window is None:
        return pool_size * 2
    return max(ensure_positive_int("window", window), pool_size)


class Executor:
    """Protocol for executor backends.

    Subclasses implement :meth:`stream`, the one engine of a backend;
    :meth:`map` collects it.  ``workers`` reports the degree of
    parallelism (1 for serial).

    Fault-tolerance knobs (all optional, all ``None`` by default — one
    attempt per shard, no deadlines):

    ``retry``
        A :class:`~repro.runtime.faults.RetryPolicy`; failed shards
        whose exception classifies as transient are re-run with
        deterministic backoff before being reported.
    ``timeout``
        Per-shard deadline in seconds.  Enforced by the pool backends
        (an expired shard is abandoned/killed and counts as a
        :class:`WorkerTimeoutError` failure, retryable under the
        policy); the serial backend cannot preempt in-process work and
        ignores it.
    ``retry_listener``
        Optional ``callback(task_index, attempt)`` fired once per
        retry — the runner uses it to keep its retry tally without
        double-counting shards.
    """

    workers: int = 1
    retry: Optional[RetryPolicy] = None
    timeout: Optional[float] = None
    retry_listener: Optional[Callable[[int, int], None]] = None
    #: Pool rebuilds allowed per dispatch before degrading to serial.
    max_respawns: int = 3

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Yield ``(task_index, ok, payload)`` as tasks complete.

        Every task runs (failures are yielded as data, never raised),
        and each index appears exactly once — with its *final* outcome
        when retries are configured.  The pool backends keep at most
        ``window`` tasks in flight (default ``2 * workers``), so the
        number of completed-but-unconsumed results — and hence the
        reorder buffer a plan-order consumer needs — is bounded by the
        window, not the task count.
        """
        raise NotImplementedError

    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every task, returning results in task order.

        A collect over :meth:`stream`.  Progress fires once per task on
        its *final* outcome (never per attempt, so retried shards are
        not double-counted), in completion order.  Failures are
        aggregated into one :class:`ShardExecutionError` raised after
        every task has run.
        """
        tasks = list(tasks)
        results: List[Any] = [None] * len(tasks)
        failures: List[Tuple[int, str, str]] = []
        done = 0
        for index, ok, payload in self.stream(fn, tasks):
            done += 1
            if ok:
                results[index] = payload
            else:
                failures.append(_failure_triple(index, payload))
            if progress is not None:
                progress(done, len(tasks))
        if failures:
            failures.sort(key=lambda item: item[0])
            raise ShardExecutionError(failures, results)
        return results

    # -- fault-tolerance plumbing (shared by the backends) ---------------

    def _note_retry(self, index: int, attempt: int, delay: float) -> None:
        """Record one retry in telemetry and toward the caller's tally."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "shard.retry", task=index, attempt=attempt, delay=delay
            )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("executor.retries").inc()
        listener = self.retry_listener
        if listener is not None:
            listener(index, attempt)

    def _decide_failure(
        self, index: int, attempt: int, payload, scheduled: list
    ) -> Optional[StreamItem]:
        """Route one failed attempt: schedule a retry (returns None) or
        finalize the failure (returns the stream item)."""
        policy = self.retry
        if (
            policy is not None
            and policy.allows(attempt)
            and policy.is_retryable(payload)
        ):
            delay = policy.delay(index, attempt)
            self._note_retry(index, attempt, delay)
            heapq.heappush(
                scheduled, (time.monotonic() + delay, index, attempt + 1)
            )
            return None
        if isinstance(payload, ShardFailure):
            payload = payload.with_attempts(attempt)
        return index, False, payload

    def _synthetic_failure(self, error: Exception) -> ShardFailure:
        """A failure payload for a shard that never reported back (the
        worker was abandoned or killed, so no traceback exists)."""
        return ShardFailure(
            repr(error),
            f"{type(error).__name__}: {error}\n"
            "  (no worker traceback: the worker was abandoned or "
            "terminated before the shard reported back)",
            exception_lineage(error),
        )

    def _run_with_retries(
        self,
        fn: Callable[[Any], Any],
        task: Any,
        index: int,
        first_attempt: int = 1,
    ) -> StreamItem:
        """Run one task in-process under the retry policy (the serial
        execution path, also used for pool degradation)."""
        tracer = get_tracer()
        attempt = first_attempt
        while True:
            if tracer.enabled:
                tracer.event("shard.submit", task=index, attempt=attempt)
            ok, value = _guarded_call((fn, task))
            if tracer.enabled:
                tracer.event("shard.complete", task=index, ok=ok)
            if ok:
                return index, True, value
            policy = self.retry
            if (
                policy is None
                or not policy.allows(attempt)
                or not policy.is_retryable(value)
            ):
                if isinstance(value, ShardFailure):
                    value = value.with_attempts(attempt)
                return index, False, value
            delay = policy.delay(index, attempt)
            self._note_retry(index, attempt, delay)
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def _degrade_remaining(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        remaining: Sequence[Tuple[int, int]],
        reason: str,
    ) -> Iterator[StreamItem]:
        """Run ``remaining`` ``(index, attempt)`` pairs serially after the
        pool became unrecoverable.  Loud by design: losing parallelism
        mid-run is worth a warning even though the results (being pure
        functions of the plan) are unaffected."""
        remaining = sorted(set(remaining))
        deadlines = (
            ""
            if self.timeout is None
            else f"  Per-shard deadlines ({self.timeout:.4g}s) are no "
            "longer enforced: in-process work cannot be preempted."
        )
        warnings.warn(
            f"{type(self).__name__} pool is unrecoverable ({reason}); "
            f"running the remaining {len(remaining)} shard task(s) "
            "serially in-process.  Results are unaffected — shards are "
            "deterministic — but parallelism is lost for the rest of "
            f"this dispatch.{deadlines}",
            PoolDegradedWarning,
            stacklevel=3,
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "pool.degraded", reason=reason, remaining=len(remaining)
            )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("executor.degraded").inc()
        for index, attempt in remaining:
            yield self._run_with_retries(
                fn, tasks[index], index, first_attempt=attempt
            )


class SerialExecutor(Executor):
    """In-process execution: the reference backend and the 1-worker case.

    With a retry policy configured, each task gets its attempts inline
    (same deterministic backoff as the pools).  ``timeout`` is ignored:
    in-process work cannot be preempted, and serial execution has no
    worker to lose.
    """

    workers = 1

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Serial streaming: tasks complete (and yield) in index order,
        so exactly one result is ever in flight."""
        for index, task in enumerate(list(tasks)):
            yield self._run_with_retries(fn, task, index)

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _serial_clone(executor: Executor) -> SerialExecutor:
    """A serial executor inheriting ``executor``'s fault-tolerance knobs
    (for the 1-task delegation paths, so retries still apply)."""
    clone = SerialExecutor()
    clone.retry = executor.retry
    clone.timeout = executor.timeout
    clone.retry_listener = executor.retry_listener
    return clone


class MultiprocessingExecutor(Executor):
    """Process-pool execution via :mod:`multiprocessing`.

    Parameters
    ----------
    workers:
        Pool size.  The pool never exceeds the task count.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it, else the platform default.  Task functions
        must be module-level either way so ``spawn`` keeps working.

    The engine enforces per-shard deadlines (when ``timeout`` is set)
    and polls worker liveness: an expired or crashed shard terminates
    the pool (a single
    hung worker cannot be killed individually), salvages every
    completion already delivered, respawns the pool, resubmits the
    innocent in-flight shards at no attempt cost, and charges only the
    suspects (the expired shard, or every in-flight shard on a crash —
    the victim is unknowable) a retry attempt.  After
    :attr:`Executor.max_respawns` rebuilds the remaining shards degrade
    to serial in-process execution with a
    :class:`~repro.runtime.faults.PoolDegradedWarning`.
    """

    def __init__(self, workers: int, start_method: Optional[str] = None) -> None:
        self.workers = ensure_positive_int("workers", workers)
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else None
        self.start_method = start_method

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Yield completions as worker processes finish, out of order.

        Windowed ``apply_async`` submission: a new task ships only when
        a result is finalized, so at most ``window`` results ever exist
        between the pool and the consumer.  A worker that dies mid-shard
        (which never delivers a callback) is caught by the liveness
        poll and reported as a :class:`WorkerCrashError` failure.
        """
        tasks = list(tasks)
        if not tasks:
            return
        pool_size = min(self.workers, len(tasks))
        if pool_size == 1:
            yield from _serial_clone(self).stream(fn, tasks)
            return
        window = _resolve_window(window, pool_size)
        timeout = self.timeout
        tracer = get_tracer()
        metrics = get_metrics()
        context = multiprocessing.get_context(self.start_method)
        completions: "queue.SimpleQueue" = queue.SimpleQueue()
        total = len(tasks)
        in_flight: dict = {}  # index -> (attempt, deadline or None)
        scheduled: list = []  # heap of (ready_time, index, next_attempt)
        unfinal: set = set()
        submitted = 0
        finalized = 0
        respawns = 0
        pool = None
        procs: list = []

        def spawn_pool() -> None:
            nonlocal pool, procs
            pool = context.Pool(pool_size)
            # Snapshot the worker Process objects for liveness checks;
            # guard the private attribute so an exotic Pool subclass
            # merely loses crash detection, not correctness.
            procs = list(getattr(pool, "_pool", []))

        def submit(index: int, attempt: int) -> None:
            if tracer.enabled:
                tracer.event("shard.submit", task=index, attempt=attempt)
            deadline = None if timeout is None else time.monotonic() + timeout
            in_flight[index] = (attempt, deadline)
            pool.apply_async(
                _guarded_call,
                ((fn, tasks[index]),),
                callback=lambda outcome, index=index: completions.put(
                    (index, outcome)
                ),
                # _guarded_call captures task exceptions as data, so
                # this only fires on transport failures (e.g. an
                # unpicklable result); surface those as shard failures
                # too rather than hanging the drain.
                error_callback=lambda error, index=index: completions.put(
                    (index, (False, ShardFailure.from_exception(
                        error, _format_exception(error)
                    )))
                ),
            )

        # Submission is gated on the lowest *unfinalized* index — the
        # plan-order cursor a reorder-buffer consumer is waiting on —
        # not on raw completion count.  If one early shard is slow,
        # submission stalls at its index + window, so no more than
        # `window` completions can ever pile up ahead of the cursor,
        # even under extreme shard-time skew.
        def fill() -> None:
            nonlocal submitted
            low = min(unfinal, default=submitted)
            while submitted < total and submitted < low + window:
                unfinal.add(submitted)
                submit(submitted, 1)
                submitted += 1

        def absorb(index: int, ok: bool, value) -> Optional[StreamItem]:
            """Handle one delivered completion; final item or None."""
            attempt, _ = in_flight.pop(index)
            if tracer.enabled:
                tracer.event("shard.complete", task=index, ok=ok)
            if ok:
                return index, True, value
            return self._decide_failure(index, attempt, value, scheduled)

        def recover(expired: set, crashed: bool):
            """Tear down the pool, salvage delivered completions, charge
            the suspects an attempt, and respawn (or signal degrade).

            Returns ``(final_outcomes, degrade)``.
            """
            nonlocal respawns
            pool.terminate()
            pool.join()
            outcomes: List[StreamItem] = []
            # Completions delivered before the teardown are real results
            # — honor them before deciding who was at fault.
            while True:
                try:
                    index, (ok, value) = completions.get_nowait()
                except queue.Empty:
                    break
                if index not in in_flight:
                    continue
                outcome = absorb(index, ok, value)
                if outcome is not None:
                    outcomes.append(outcome)
            # Whatever is still in flight died with the pool.  Expired
            # shards (and, on a crash, every survivor — the victim is
            # unknowable) are suspects and pay an attempt; the rest are
            # innocent and resubmit free.
            innocents: List[Tuple[int, int]] = []
            for index in list(in_flight):
                attempt, _ = in_flight.pop(index)
                if index in expired:
                    if metrics.enabled:
                        metrics.counter("executor.timeouts").inc()
                    if tracer.enabled:
                        tracer.event(
                            "shard.complete", task=index, ok=False,
                            timeout=True,
                        )
                    failure = self._synthetic_failure(WorkerTimeoutError(
                        f"shard task {index} exceeded the {timeout:.4g}s "
                        f"deadline on attempt {attempt}"
                    ))
                    outcome = self._decide_failure(
                        index, attempt, failure, scheduled
                    )
                    if outcome is not None:
                        outcomes.append(outcome)
                elif crashed:
                    if tracer.enabled:
                        tracer.event(
                            "shard.complete", task=index, ok=False,
                            crashed=True,
                        )
                    failure = self._synthetic_failure(WorkerCrashError(
                        f"a worker process died while shard task {index} "
                        f"was in flight (attempt {attempt})"
                    ))
                    outcome = self._decide_failure(
                        index, attempt, failure, scheduled
                    )
                    if outcome is not None:
                        outcomes.append(outcome)
                else:
                    innocents.append((index, attempt))
            respawns += 1
            if respawns > self.max_respawns:
                # Put the innocents back so the degrade sweep sees them.
                for index, attempt in innocents:
                    in_flight[index] = (attempt, None)
                return outcomes, True
            spawn_pool()
            if tracer.enabled:
                tracer.event(
                    "pool.respawn", crashed=crashed, expired=len(expired),
                    resubmitted=len(innocents),
                )
            if metrics.enabled:
                metrics.counter("executor.respawns").inc()
            # Innocent resubmissions bypass the window gate: their
            # indices are already counted in `submitted`/`unfinal`.
            for index, attempt in innocents:
                submit(index, attempt)
            return outcomes, False

        try:
            spawn_pool()
            fill()
            while finalized < total:
                now = time.monotonic()
                while scheduled and scheduled[0][0] <= now:
                    _, index, attempt = heapq.heappop(scheduled)
                    submit(index, attempt)
                marks = [
                    deadline
                    for _, deadline in in_flight.values()
                    if deadline is not None
                ]
                if scheduled:
                    marks.append(scheduled[0][0])
                if in_flight and procs:
                    marks.append(now + _LIVENESS_TICK)
                block = None if not marks else max(0.0, min(marks) - now)
                try:
                    if block is None:
                        index, (ok, value) = completions.get()
                    else:
                        index, (ok, value) = completions.get(timeout=block)
                except queue.Empty:
                    now = time.monotonic()
                    expired = {
                        index
                        for index, (_, deadline) in in_flight.items()
                        if deadline is not None and deadline <= now
                    }
                    crashed = any(
                        proc.exitcode is not None for proc in procs
                    )
                    if expired or crashed:
                        outcomes, degrade = recover(expired, crashed)
                        for outcome in outcomes:
                            unfinal.discard(outcome[0])
                            finalized += 1
                            yield outcome
                        if degrade:
                            remaining = [
                                (index, attempt)
                                for index, (attempt, _) in in_flight.items()
                            ]
                            remaining += [
                                (index, attempt)
                                for _, index, attempt in scheduled
                            ]
                            remaining += [
                                (index, 1)
                                for index in range(submitted, total)
                            ]
                            in_flight.clear()
                            scheduled.clear()
                            reason = (
                                "worker crash" if crashed else "hung worker"
                            ) + f" after {self.max_respawns} pool respawns"
                            pool.terminate()
                            yield from self._degrade_remaining(
                                fn, tasks, remaining, reason
                            )
                            return
                        fill()
                    continue
                if index not in in_flight:
                    continue  # stale delivery from a recycled pool
                outcome = absorb(index, ok, value)
                if outcome is not None:
                    unfinal.discard(index)
                    finalized += 1
                    fill()
                    yield outcome
        finally:
            if pool is not None:
                pool.terminate()
                pool.join()

    def __repr__(self) -> str:
        return f"MultiprocessingExecutor(workers={self.workers})"


class ThreadExecutor(Executor):
    """Thread-pool execution via :class:`concurrent.futures.ThreadPoolExecutor`.

    No pickling, no process spawn: tasks run in-process and share
    memory.  Worth it exactly when the task body releases the GIL —
    the fused NumPy kernels do — or when the spec is small enough that
    process start-up would swamp the work.

    Parameters
    ----------
    workers:
        Pool size.  The pool never exceeds the task count.

    The engine retries per the policy and enforces per-shard
    deadlines by *abandoning* expired futures — threads cannot be
    killed, so a hung thread keeps its pool slot until it returns (its
    late result is discarded).  If every slot ends up hung, the
    remaining shards degrade to serial in-process execution with a
    :class:`~repro.runtime.faults.PoolDegradedWarning`.
    """

    def __init__(self, workers: int) -> None:
        self.workers = ensure_positive_int("workers", workers)

    def stream(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        *,
        window: Optional[int] = None,
    ) -> Iterator[StreamItem]:
        """Yield completions as pool threads finish, out of order.

        At most ``window`` futures are outstanding at a time — each
        finalized completion releases the next submission — which
        bounds completed-but-unconsumed results by the window.
        """
        tasks = list(tasks)
        if not tasks:
            return
        pool_size = min(self.workers, len(tasks))
        if pool_size == 1:
            yield from _serial_clone(self).stream(fn, tasks)
            return
        window = _resolve_window(window, pool_size)
        timeout = self.timeout
        tracer = get_tracer()
        metrics = get_metrics()
        total = len(tasks)
        pool = ThreadPoolExecutor(max_workers=pool_size)
        pending: dict = {}  # future -> (index, attempt, deadline or None)
        scheduled: list = []  # heap of (ready_time, index, next_attempt)
        abandoned: list = []  # expired futures that may still be running
        unfinal: set = set()
        submitted = 0
        finalized = 0

        def submit(index: int, attempt: int) -> None:
            if tracer.enabled:
                tracer.event("shard.submit", task=index, attempt=attempt)
            future = pool.submit(_guarded_call, (fn, tasks[index]))
            deadline = None if timeout is None else time.monotonic() + timeout
            pending[future] = (index, attempt, deadline)

        # Same gate as the process backend: new submissions stop at
        # (lowest unfinalized index) + window, so completions can never
        # outrun a plan-order consumer by more than the window.
        def fill() -> None:
            nonlocal submitted
            low = min(unfinal, default=submitted)
            while submitted < total and submitted < low + window:
                unfinal.add(submitted)
                submit(submitted, 1)
                submitted += 1

        try:
            fill()
            while finalized < total:
                now = time.monotonic()
                while scheduled and scheduled[0][0] <= now:
                    _, index, attempt = heapq.heappop(scheduled)
                    submit(index, attempt)
                # A thread cannot be killed: if every pool slot is held
                # by an abandoned (timed-out) task, nothing queued can
                # start — degrade the rest to serial.
                abandoned[:] = [f for f in abandoned if not f.done()]
                if len(abandoned) >= pool_size and finalized < total:
                    remaining = [
                        (index, attempt)
                        for index, attempt, _ in pending.values()
                    ]
                    remaining += [
                        (index, attempt) for _, index, attempt in scheduled
                    ]
                    remaining += [
                        (index, 1) for index in range(submitted, total)
                    ]
                    for future in pending:
                        future.cancel()
                    pending.clear()
                    scheduled.clear()
                    yield from self._degrade_remaining(
                        fn, tasks, remaining,
                        f"all {pool_size} pool threads hung past the "
                        f"{timeout:.4g}s deadline",
                    )
                    return
                marks = [
                    deadline
                    for _, _, deadline in pending.values()
                    if deadline is not None
                ]
                if scheduled:
                    marks.append(scheduled[0][0])
                wait_for = None if not marks else max(0.0, min(marks) - now)
                if pending:
                    done, _ = wait(
                        pending, timeout=wait_for,
                        return_when=FIRST_COMPLETED,
                    )
                elif wait_for is not None:
                    time.sleep(wait_for)
                    done = ()
                else:
                    break  # defensive: nothing pending, nothing scheduled
                for future in done:
                    index, attempt, _ = pending.pop(future)
                    ok, value = future.result()
                    if tracer.enabled:
                        tracer.event("shard.complete", task=index, ok=ok)
                    if ok:
                        outcome: Optional[StreamItem] = (index, True, value)
                    else:
                        outcome = self._decide_failure(
                            index, attempt, value, scheduled
                        )
                    if outcome is not None:
                        unfinal.discard(index)
                        finalized += 1
                        fill()
                        yield outcome
                if timeout is not None:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, _, deadline) in pending.items()
                        if deadline is not None and deadline <= now
                    ]
                    for future in expired:
                        index, attempt, _ = pending.pop(future)
                        if not future.cancel():
                            # Already running: the thread is lost to us
                            # until it returns; its late result will be
                            # discarded because the future left
                            # `pending`.
                            abandoned.append(future)
                        if metrics.enabled:
                            metrics.counter("executor.timeouts").inc()
                        if tracer.enabled:
                            tracer.event(
                                "shard.complete", task=index, ok=False,
                                timeout=True,
                            )
                        failure = self._synthetic_failure(WorkerTimeoutError(
                            f"shard task {index} exceeded the "
                            f"{timeout:.4g}s deadline on attempt {attempt}"
                        ))
                        outcome = self._decide_failure(
                            index, attempt, failure, scheduled
                        )
                        if outcome is not None:
                            unfinal.discard(index)
                            finalized += 1
                            fill()
                            yield outcome
        finally:
            # An abandoned generator (the consumer raised mid-stream)
            # must not sit through the whole submission window: cancel
            # everything still queued.  Without deadlines nothing is
            # known to hang, so wait for the tasks actually running;
            # with them, a running task may be hung and must not block
            # the consumer's exit (it dies with the interpreter).
            for future in pending:
                future.cancel()
            pool.shutdown(wait=timeout is None)

    def __repr__(self) -> str:
        return f"ThreadExecutor(workers={self.workers})"


def make_executor(
    workers: int,
    start_method: Optional[str] = None,
    backend: str = "processes",
    *,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
) -> Executor:
    """The executor for a worker count and backend.

    One worker is always the serial reference backend; above that,
    ``backend="processes"`` builds a :class:`MultiprocessingExecutor`
    and ``backend="threads"`` a :class:`ThreadExecutor`.

    ``retry`` (a :class:`~repro.runtime.faults.RetryPolicy`, or an int
    shorthand for ``RetryPolicy(max_attempts=n)``) and ``timeout``
    (per-shard deadline, seconds) configure the engine's retries and
    deadlines; both default to off — one attempt per shard, no
    deadline.
    """
    workers = ensure_positive_int("workers", workers)
    if backend not in EXECUTOR_BACKENDS:
        raise ValueError(
            f"backend must be one of {EXECUTOR_BACKENDS}, got {backend!r}"
        )
    if workers == 1:
        executor: Executor = SerialExecutor()
    elif backend == "threads":
        executor = ThreadExecutor(workers)
    else:
        executor = MultiprocessingExecutor(workers, start_method)
    if retry is not None:
        if isinstance(retry, int):
            retry = RetryPolicy(max_attempts=retry)
        if not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or int, got {type(retry).__name__}"
            )
        executor.retry = retry
    if timeout is not None:
        timeout = float(timeout)
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        executor.timeout = timeout
    return executor
