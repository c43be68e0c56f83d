"""Benchmark of real ``repro-experiments`` invocations.

Usage, from the repository root::

    python3 perfbench/run.py --workload ci-all-cold --seed 1 --seconds 32 --trace 0

Each workload is one CLI command, run in fresh interpreters with
``src`` on ``PYTHONPATH``.  A run repeats the workload's command with
``--seed`` set to the workload seed until the invocations add up to
about ``--seconds`` seconds, and checks every invocation's ``--json``
output (see :mod:`checks`).  ``setup_s`` (a fresh interpreter importing
``repro.experiments.runner`` and building its parser) is sampled once
before the first invocation and once after each, so that its median
spans the same stretch of time as the invocations' medians.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``
(medians over the run's invocations).  ``--trace 1`` runs the command
once untraced and once under :mod:`traced_cli`, prints the per-layer
table and reports the ``per_layer`` metrics.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for the workloads and the
layers each one loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import checks
import layers

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

#: Every process must have ended by then, counted from the run's start.
HARD_LIMIT_S = 165.0
IMPORTTIME_REPEATS = 3
SETUP_CODE = (
    "import repro.experiments.runner as cli; cli.build_parser(); "
    "print(cli.__file__)"
)
EXPERIMENT_KEYS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "sec64", "tab1")
IMPORT_PACKAGES = ("repro", "scipy", "numpy")


@dataclass(frozen=True)
class Workload:
    """One CLI command and what its output is checked against.

    ``cache`` is ``"none"`` (no ``--cache``) or ``"empty"`` (a fresh
    directory per invocation).  ``trial_rounds`` is the workload's
    fixed Monte Carlo trials x rounds plus chainsim repeats x rounds,
    the numerator of ``trial_rounds_per_s``.  ``fig3_trials`` is the
    trial count behind each Figure 3 point, for the exact-law check.
    ``warm_check`` adds a checked re-run of the command on the last
    invocation's cache at the end of a run: untimed in an end-to-end
    run, traced in a per-layer run, where the cache-read metrics come
    from it.
    """

    args: Tuple[str, ...]
    cache: str
    trial_rounds: int
    fig3_trials: Optional[int]
    warm_check: bool = False


# The trial-round counts are properties of the experiment definitions:
# the traced run's sim.kernels.trial_rounds (plus, for fig2 at default,
# its chainsim repeats x rounds: 5x300 PoW, 50x500 ML-PoS, 50x1500
# SL-PoS, 50x300 C-PoS) at the seed commit.
WORKLOADS: Dict[str, Workload] = {
    "ci-all-cold": Workload(
        ("all", "--preset", "ci", "--workers", "2"),
        "empty",
        19_140_000,
        300,
        warm_check=True,
    ),
    "fig2-default-serial": Workload(
        ("fig2", "--preset", "default"), "none", 40_000_000 + 116_500, None
    ),
    "fig3-default-stats": Workload(
        ("fig3", "--preset", "default", "--reduce", "stats", "--workers", "2"),
        "empty",
        120_000_000,
        2000,
    ),
}
FIG3_EPSILON = 0.1


class SetupError(RuntimeError):
    """The program could not be imported from this checkout."""


@dataclass
class Invocation:
    """One finished child process, measured from outside."""

    status: Optional[int]  # exit code; None when killed at the deadline
    start_ns: int
    end_ns: int
    cpu_s: float
    rss_mb: float
    span_dir: Optional[pathlib.Path] = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, timeout: float = 5.0) -> None:
    """Stop whatever is left of a finished child's process group."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    _kill_group(pgid)
    limit = time.perf_counter() + timeout
    while time.perf_counter() < limit:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv, out_path, err_path, env, deadline: float) -> Invocation:
    """Run ``argv`` in its own session; measure wall, CPU and peak RSS.

    ``os.wait4`` reports the user+sys time and the peak RSS of the
    child together with every descendant it reaped (its pool workers).
    The whole process group is killed at ``deadline``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter_ns()
    pid = os.posix_spawnp(argv[0], argv, env, file_actions=actions, setsid=True)
    timer = threading.Timer(
        max(0.0, deadline - time.perf_counter()), _kill_group, (pid,)
    )
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill_group(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    end = time.perf_counter_ns()
    _wait_group_gone(pid)
    code = os.waitstatus_to_exitcode(status)
    return Invocation(
        status=None if code == -signal.SIGKILL else code,
        start_ns=start,
        end_ns=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, work: pathlib.Path) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.env = dict(os.environ)
        paths = [str(ROOT / "src")]
        if self.env.get("PYTHONPATH"):
            paths.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[Dict[str, bytes]] = None
        self.checked_laws: Dict[str, List[str]] = {}
        self.last_cache: Optional[pathlib.Path] = None

    # -- processes -----------------------------------------------------------

    def python(self, args: List[str]) -> Tuple[Invocation, pathlib.Path, pathlib.Path]:
        self.count += 1
        out = self.work / f"out-{self.count}.txt"
        err = self.work / f"err-{self.count}.txt"
        argv = [sys.executable, *args]
        return spawn(argv, out, err, self.env, self.deadline), out, err

    def setup_times(self, repeats: int) -> List[float]:
        """Wall times of fresh interpreters importing the CLI.

        Each one must import the program from this checkout's ``src``.
        Only the first import in a fresh checkout writes the bytecode
        cache; the median over a run's samples absorbs it.
        """
        times = []
        for _ in range(repeats):
            invocation, out, err = self.python(["-c", SETUP_CODE])
            if invocation.status != 0:
                raise SetupError(err.read_text()[-2000:])
            location = pathlib.Path(out.read_text().strip()).resolve()
            if not location.is_relative_to((ROOT / "src").resolve()):
                raise SetupError(
                    f"repro imported from {location}, not {ROOT / 'src'}"
                )
            times.append(invocation.wall_s)
        return times

    def import_times(self, repeats: int) -> Dict[str, float]:
        """Median per-package import self time, from ``-X importtime``."""
        samples: Dict[str, List[float]] = {name: [] for name in IMPORT_PACKAGES}
        for _ in range(repeats):
            invocation, _, err = self.python(["-X", "importtime", "-c", SETUP_CODE])
            if invocation.status != 0:
                raise SetupError(err.read_text()[-2000:])
            totals = dict.fromkeys(IMPORT_PACKAGES, 0)
            for line in err.read_text().splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                fields = line[len("import time:"):].split("|")
                if not fields[0].strip().isdigit():
                    continue  # the header line
                package = fields[2].strip().split(".")[0]
                if package in totals:
                    totals[package] += int(fields[0])
            for name in IMPORT_PACKAGES:
                samples[name].append(totals[name] / 1e6)
        return {
            f"startup.import.{name}_s": statistics.median(values)
            for name, values in samples.items()
        }

    # -- the workload ----------------------------------------------------------

    def cli_argv(self, json_dir: pathlib.Path, cache_dir: Optional[pathlib.Path]):
        argv = [*self.workload.args, "--seed", str(self.seed), "--json", str(json_dir)]
        if cache_dir is not None:
            argv += ["--cache", str(cache_dir)]
        return argv

    def cache_for(self, index: int) -> Optional[pathlib.Path]:
        if self.workload.cache == "none":
            return None
        for old in self.work.glob("cache-*"):
            shutil.rmtree(old)  # keep one cold cache on disk at a time
        self.last_cache = self.work / f"cache-{index}"
        return self.last_cache

    def invoke(self, traced: bool = False, warm: bool = False) -> Invocation:
        """One checked invocation of the workload's command.

        ``warm`` re-runs it on the last invocation's cache instead of a
        fresh one.  Every result is then a verified cache read: the
        output must equal the cold invocations' and the cache must gain
        or change no file.
        """
        index = self.count + 1
        json_dir = self.work / f"json-{index}"
        cache_dir = self.last_cache if warm else self.cache_for(index)
        before = checks.cache_listing(cache_dir) if warm else None
        argv = self.cli_argv(json_dir, cache_dir)
        span_dir = None
        if traced:
            span_dir = self.work / f"spans-{index}"
            span_dir.mkdir()
            argv = [str(BENCH_DIR / "traced_cli.py"), str(span_dir), *argv]
        else:
            argv = ["-m", "repro.experiments.runner", *argv]
        invocation, _, err = self.python(argv)
        self.attempted += 1
        problems = self.problems(invocation, err, json_dir, before, cache_dir)
        label = ("traced" if traced else "untraced") + (" warm" if warm else "")
        self.report(label, invocation, problems)
        invocation.span_dir = span_dir
        return invocation

    def report(self, label: str, invocation: Invocation, problems: List[str]) -> None:
        verdict = "ok" if not problems else "FAILED"
        print(
            f"  {label} invocation: {invocation.wall_s:.3f} s wall, "
            f"{invocation.cpu_s:.3f} s cpu, {invocation.rss_mb:.1f} MB peak RSS, "
            f"{verdict}"
        )
        for problem in problems:
            print(f"    FAIL: {problem}")
        if problems:
            self.failed += 1

    def problems(
        self, invocation, err, json_dir, cache_before=None, cache_dir=None
    ) -> List[str]:
        """Everything wrong with one finished invocation.

        With ``cache_before`` (a :func:`checks.cache_listing`) the
        invocation must also have left ``cache_dir`` unchanged.
        """
        if invocation.status != 0:
            reason = (
                "killed at the deadline"
                if invocation.status is None
                else f"exit status {invocation.status}"
            )
            tail = err.read_text(errors="replace").strip().splitlines()[-3:]
            return [f"{reason}: {' | '.join(tail)}"]
        outputs = checks.read_outputs(json_dir)
        if self.reference is None:
            self.reference = outputs
        problems = checks.same_outputs(self.reference, outputs, "--json series")
        if cache_before is not None:
            problems += checks.no_new_entries(
                cache_before, checks.cache_listing(cache_dir), "warm run"
            )
        if self.workload.fig3_trials is not None and "fig3.json" in outputs:
            problems += self.law_problems(outputs["fig3.json"])
        return problems

    def law_problems(self, fig3_bytes: bytes) -> List[str]:
        digest = hashlib.sha256(fig3_bytes).hexdigest()
        if digest not in self.checked_laws:
            if str(ROOT / "src") not in sys.path:
                sys.path.insert(0, str(ROOT / "src"))
            from repro.theory.polya import pow_fair_probability

            document = json.loads(fig3_bytes)
            trials = self.workload.fig3_trials
            self.checked_laws[digest] = checks.pow_law(
                document, trials, FIG3_EPSILON, pow_fair_probability, "fig3 PoW"
            )
            z = checks.worst_z(document, trials, FIG3_EPSILON, pow_fair_probability)
            print(f"  fig3 PoW vs exact law: worst |z| = {z:.2f}")
        return self.checked_laws[digest]

    def room_for(self, seconds: float) -> bool:
        return time.perf_counter() + seconds < self.deadline

    # -- the two kinds of run ------------------------------------------------

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        setup = self.setup_times(1)
        runs: List[Invocation] = []
        while True:
            runs.append(self.invoke())
            setup += self.setup_times(1)
            # Start another invocation only if the invocations' total
            # should end less than half an invocation past ``seconds``.
            typical = statistics.median(run.wall_s for run in runs)
            longest = max(run.wall_s for run in runs)
            measured = sum(run.wall_s for run in runs)
            if measured + typical / 2 > seconds or not self.room_for(2 * longest):
                break
        if self.workload.warm_check and self.room_for(2 * longest):
            self.invoke(warm=True)
        wall = statistics.median(run.wall_s for run in runs)
        return {
            "wall_s": wall,
            "cpu_s": statistics.median(run.cpu_s for run in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(run.rss_mb for run in runs),
            "trial_rounds_per_s": self.workload.trial_rounds / wall,
            "success_rate": 1.0 - self.failed / self.attempted,
        }

    def per_layer(self, spec: dict) -> Dict[str, float]:
        self.setup_times(1)
        metrics = self.import_times(IMPORTTIME_REPEATS)
        untraced = self.invoke()
        traced = self.invoke(traced=True)
        spans = layers.load_spans(traced.span_dir)
        names = [metric["name"] for metric in spec["per_layer"]]
        kernel_classes = _classes(names, "sim.kernels.", ".calls")
        network_classes = _classes(names, "chainsim.network.", ".s")
        metrics.update(
            layers.layer_metrics(
                spans,
                traced.start_ns,
                traced.end_ns,
                experiment_keys=EXPERIMENT_KEYS,
                kernel_classes=kernel_classes,
                network_classes=network_classes,
            )
        )
        if self.workload.warm_check:
            # Cache reads are measured on a traced warm re-run, where
            # every get is a hit.
            warm = self.invoke(traced=True, warm=True)
            metrics.update(
                (name, value)
                for name, value in layers.layer_metrics(
                    layers.load_spans(warm.span_dir),
                    warm.start_ns,
                    warm.end_ns,
                    experiment_keys=EXPERIMENT_KEYS,
                    kernel_classes=kernel_classes,
                    network_classes=network_classes,
                ).items()
                if name.startswith("runtime.cache.get.")
                or name == "runtime.cache.hit_ratio"
            )
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        print_layer_table(spans, traced, untraced)
        for name, known in (
            ("sim.kernels", kernel_classes),
            ("chainsim.network", network_classes),
        ):
            for cls in layers.reached_classes(spans, name):
                if cls not in known:
                    print(f"  note: {name}.{cls} is reached but not in BENCHMARK.json")
        return metrics


def _classes(names: List[str], prefix: str, suffix: str) -> List[str]:
    return [
        name[len(prefix):-len(suffix)]
        for name in names
        if name.startswith(prefix)
        and name.endswith(suffix)
        and name[len(prefix)].isupper()
    ]


def print_layer_table(spans, traced: Invocation, untraced: Invocation) -> None:
    table = layers.layer_table(spans)
    print(f"  {'layer':<42} {'calls':>8} {'total s':>10} {'self s':>10}")
    for name in sorted(table):
        layer = table[name]
        print(
            f"  {name:<42} {layer.calls:>8} {layer.ns / 1e9:>10.3f} "
            f"{layer.self_ns / 1e9:>10.3f}"
        )
    print(
        f"  traced wall {traced.wall_s:.3f} s, untraced wall "
        f"{untraced.wall_s:.3f} s"
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Stopped from outside: unwind, so that spawn() kills the running
    # child's process group and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "experiments" / "runner.py").is_file():
        print(
            f"perfbench: {ROOT} holds no src/repro; run from the repository root",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Seeds the CLI accepts: non-negative, and the same for equal inputs.
        bench = Bench(args.workload, args.seed % (1 << 32), work)
        print(f"workload {args.workload}, seed {bench.seed}")
        try:
            if args.trace:
                values = bench.per_layer(spec)
            else:
                values = bench.end_to_end(args.seconds)
        except SetupError as error:
            print(f"perfbench: the program failed to start: {error}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if set(values) != set(units):
        print(
            f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
            f"the {section} list of BENCHMARK.json",
            file=sys.stderr,
        )
        return 1
    for name in sorted(values):
        print(f"  {name} = {values[name]!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": values[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
