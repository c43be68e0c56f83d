"""Perf contract: a disabled tracer costs <2% on the kernel hot loop.

Mirrors the ``bench_kernels`` smoke configuration (ML-PoS, the paper's
headline protocol).  The instrumented entry point
(:func:`~repro.sim.kernels.batched_advance` under the ambient
:data:`~repro.obs.NULL_TRACER`) is timed against calling the registered
kernel directly — the exact code the tracer guard wraps — so the
measured gap *is* the telemetry overhead, not run-to-run noise in the
kernel itself.  Min-of-N timing discards scheduler jitter.

Excluded from the default run by the ``-m "not perf"`` addopts; CI's
perf-smoke job runs it explicitly.
"""

import time

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.obs.trace import NULL_TRACER, get_tracer
from repro.protocols import MultiLotteryPoS
from repro.sim.kernels import RowStreams, batched_advance, find_kernel
from repro.sim.rng import RandomSource

pytestmark = pytest.mark.perf

# The bench_kernels --smoke configuration: ML-PoS, 4,000 trials,
# 600 rounds per advance.
TRIALS = 4_000
ROUNDS = 600
SEGMENTS = 1
REPEATS = 7
MAX_OVERHEAD = 0.02


def _min_time(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


class TestDisabledTracerOverhead:
    def test_ambient_default_is_disabled(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_disabled_tracer_under_two_percent_on_kernel_hot_loop(self):
        protocol = MultiLotteryPoS(reward=0.01)
        allocation = Allocation.two_miners(0.2)
        kernel = find_kernel(protocol)
        assert kernel is not None  # ML-PoS always has a fused kernel

        def run_instrumented():
            state = protocol.make_state(allocation, TRIALS)
            rng = RandomSource(77).spawn_one().generator()
            for _ in range(SEGMENTS):
                batched_advance(protocol, state, ROUNDS, rng)
            return state

        def run_direct():
            state = protocol.make_state(allocation, TRIALS)
            rng = RandomSource(77).spawn_one().generator()
            from repro.sim.kernels import ScratchBuffers

            state.scratch = ScratchBuffers()
            for _ in range(SEGMENTS):
                kernel(
                    protocol, state, ROUNDS, RowStreams([(TRIALS, rng)]),
                    state.scratch, None,
                )
            return state

        # Same bits either way — the guard must be observationally
        # invisible, not just cheap.
        np.testing.assert_array_equal(
            run_instrumented().stakes, run_direct().stakes
        )

        # Warm-up, then min-of-N for both paths.
        run_instrumented(), run_direct()
        instrumented = _min_time(run_instrumented)
        direct = _min_time(run_direct)
        overhead = (instrumented - direct) / direct
        assert overhead < MAX_OVERHEAD, (
            f"disabled-tracer overhead {overhead:.2%} exceeds "
            f"{MAX_OVERHEAD:.0%} (instrumented {instrumented * 1e3:.1f}ms "
            f"vs direct {direct * 1e3:.1f}ms)"
        )
