"""Run ``repro-experiments`` with its layer boundaries wrapped in spans.

Usage::

    python3 perfbench/traced_cli.py SPAN_DIR <repro-experiments args...>

``src`` must be on ``PYTHONPATH``.  Spans land in
``SPAN_DIR/spans-<pid>.jsonl``, one file per process; see
:mod:`layers`.
"""

import sys
import time

if __name__ == "__main__":
    import pathlib

    from layers import SpanRecorder, install

    recorder = SpanRecorder(pathlib.Path(sys.argv[1]))
    start = time.perf_counter_ns()
    import repro.experiments.runner as cli

    install(recorder)
    recorder.spans.append(
        ["startup.import", recorder.main_pid, -1, None, start,
         time.perf_counter_ns(), {}]
    )
    try:
        status = cli.main(sys.argv[2:])
    finally:
        recorder.flush()
    sys.exit(status)
