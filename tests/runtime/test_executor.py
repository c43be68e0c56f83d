"""Tests for repro.runtime.executor — serial/process/thread backends."""

import time

import pytest

from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
    ShardExecutionError,
    ThreadExecutor,
    make_executor,
)


def square(x):
    return x * x


def fail_on_odd(x):
    if x % 2 == 1:
        raise ValueError(f"odd input {x}")
    return x


def slow_head(x):
    """Task 0 finishes last, guaranteeing out-of-order completion."""
    if x == 0:
        time.sleep(0.25)
    return x * x


class TestSerialExecutor:
    def test_maps_in_order(self):
        assert SerialExecutor().map(square, [1, 2, 3]) == [1, 4, 9]

    def test_empty_tasks(self):
        assert SerialExecutor().map(square, []) == []

    def test_progress_callback_fires_in_order(self):
        seen = []
        SerialExecutor().map(
            square, [1, 2, 3], progress=lambda done, total: seen.append((done, total))
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_aggregates_all_failures(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            SerialExecutor().map(fail_on_odd, [0, 1, 2, 3])
        failures = excinfo.value.failures
        assert [index for index, _, _ in failures] == [1, 3]
        assert "odd input 3" in str(excinfo.value)

    def test_later_tasks_still_run_after_a_failure(self):
        seen = []
        with pytest.raises(ShardExecutionError):
            SerialExecutor().map(
                fail_on_odd,
                [0, 1, 2],
                progress=lambda done, total: seen.append(done),
            )
        assert seen == [1, 2, 3]


class TestMultiprocessingExecutor:
    def test_matches_serial_results_in_order(self):
        tasks = list(range(20))
        assert MultiprocessingExecutor(4).map(square, tasks) == [
            x * x for x in tasks
        ]

    def test_single_worker_pool_degrades_to_serial(self):
        assert MultiprocessingExecutor(4).map(square, [3]) == [9]

    def test_error_aggregation_across_processes(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            MultiprocessingExecutor(2).map(fail_on_odd, [0, 1, 2, 3])
        assert [index for index, _, _ in excinfo.value.failures] == [1, 3]
        # Tracebacks survive the process boundary as text.
        assert "ValueError" in str(excinfo.value)

    def test_progress_callback(self):
        seen = []
        MultiprocessingExecutor(2).map(
            square,
            list(range(4)),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            MultiprocessingExecutor(0)


class TestThreadExecutor:
    def test_matches_serial_results_in_order(self):
        tasks = list(range(20))
        assert ThreadExecutor(4).map(square, tasks) == [x * x for x in tasks]

    def test_empty_tasks(self):
        assert ThreadExecutor(4).map(square, []) == []

    def test_single_task_degrades_to_serial(self):
        assert ThreadExecutor(4).map(square, [3]) == [9]

    def test_error_aggregation(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            ThreadExecutor(2).map(fail_on_odd, [0, 1, 2, 3])
        assert [index for index, _, _ in excinfo.value.failures] == [1, 3]
        assert "odd input 3" in str(excinfo.value)

    def test_progress_callback_fires_in_order(self):
        seen = []
        ThreadExecutor(2).map(
            square,
            list(range(4)),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)


STREAM_EXECUTORS = [
    pytest.param(SerialExecutor(), id="serial"),
    pytest.param(ThreadExecutor(3), id="threads"),
    pytest.param(MultiprocessingExecutor(3), id="processes"),
]


class TestStream:
    @pytest.mark.parametrize("executor", STREAM_EXECUTORS)
    def test_yields_every_index_exactly_once_with_results(self, executor):
        tasks = list(range(10))
        items = list(executor.stream(square, tasks))
        assert sorted(index for index, _, _ in items) == tasks
        assert all(ok for _, ok, _ in items)
        assert {index: value for index, _, value in items} == {
            x: x * x for x in tasks
        }

    @pytest.mark.parametrize("executor", STREAM_EXECUTORS)
    def test_failures_streamed_as_data_not_raised(self, executor):
        items = list(executor.stream(fail_on_odd, [0, 1, 2, 3]))
        outcomes = {index: (ok, value) for index, ok, value in items}
        assert outcomes[0] == (True, 0)
        assert outcomes[2] == (True, 2)
        for index in (1, 3):
            ok, payload = outcomes[index]
            assert not ok
            error_repr, tb = payload
            assert f"odd input {index}" in error_repr

    @pytest.mark.parametrize("executor", STREAM_EXECUTORS)
    def test_empty_tasks(self, executor):
        assert list(executor.stream(square, [])) == []

    def test_serial_stream_is_in_order(self):
        items = list(SerialExecutor().stream(square, list(range(6))))
        assert [index for index, _, _ in items] == list(range(6))

    @pytest.mark.parametrize(
        "executor",
        [pytest.param(ThreadExecutor(2), id="threads"),
         pytest.param(MultiprocessingExecutor(2), id="processes")],
    )
    def test_submission_gated_on_lowest_unyielded_index(self, executor):
        # Task 0 is slow while every later task is instant.  Submission
        # must stall at (lowest unyielded index) + window, so no more
        # than window completions can ever be yielded ahead of the
        # plan-order cursor — the bound the runner's reorder buffer
        # relies on.  Without the gate, all nine fast tasks would
        # complete and yield before task 0.
        items = list(executor.stream(slow_head, list(range(10)), window=3))
        order = [index for index, _, _ in items]
        assert sorted(order) == list(range(10))
        assert order.index(0) <= 3

    def test_thread_stream_completes_out_of_order(self):
        # Task 0 sleeps; with 2 workers the later tasks finish (and
        # must be yielded) before it — the reorder buffer's raison
        # d'être.
        items = list(ThreadExecutor(2).stream(slow_head, list(range(4))))
        order = [index for index, _, _ in items]
        assert sorted(order) == [0, 1, 2, 3]
        assert order[0] != 0

    @pytest.mark.parametrize(
        "executor",
        [pytest.param(ThreadExecutor(2), id="threads"),
         pytest.param(MultiprocessingExecutor(2), id="processes")],
    )
    def test_window_smaller_than_pool_is_clamped(self, executor):
        tasks = list(range(8))
        items = list(executor.stream(square, tasks, window=1))
        assert sorted(index for index, _, _ in items) == tasks

    def test_abandoned_thread_stream_cancels_queued_tasks(self):
        # A consumer that raises mid-stream must not wait out the whole
        # submission window: queued-but-unstarted tasks are cancelled
        # when the generator is closed, so shutdown only waits for the
        # tasks actually on a worker.
        import threading

        started = []
        release = threading.Event()

        def gated(x):
            started.append(x)
            if x != 0:
                release.wait(timeout=5)
            return x

        stream = ThreadExecutor(2).stream(gated, list(range(12)), window=8)
        index, ok, value = next(stream)  # submits the window; task 0 lands
        assert (index, ok, value) == (0, True, 0)
        # Unblock the in-flight workers shortly after close() starts
        # waiting on them.
        threading.Timer(0.15, release.set).start()
        stream.close()  # what an exception in the consumer loop does
        # Only task 0 and the tasks already picked up by the two
        # workers ran; the queued remainder of the 8-task window was
        # cancelled rather than executed during shutdown.
        assert len(started) <= 5

    def test_single_worker_pools_degrade_to_serial_stream(self):
        for executor in (ThreadExecutor(4), MultiprocessingExecutor(4)):
            items = list(executor.stream(square, [5]))
            assert items == [(0, True, 25)]

    def test_base_class_requires_a_stream_engine(self):
        # Subclasses implement stream() only; the base map() collects
        # it, and there is no map-replay fallback to hide a missing
        # engine.
        with pytest.raises(NotImplementedError):
            Executor().map(square, [1, 2, 3])


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_workers_is_pool(self):
        executor = make_executor(4)
        assert isinstance(executor, MultiprocessingExecutor)
        assert executor.workers == 4

    def test_threads_backend(self):
        executor = make_executor(4, backend="threads")
        assert isinstance(executor, ThreadExecutor)
        assert executor.workers == 4

    def test_one_worker_is_serial_for_any_backend(self):
        for backend in EXECUTOR_BACKENDS:
            assert isinstance(make_executor(1, backend=backend), SerialExecutor)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            make_executor(4, backend="rayon")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_executor(0)
