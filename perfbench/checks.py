"""Output checks of the benchmark.

Each check returns a list of problems; an empty list means the output
passed.  Within one run every invocation of a workload uses the same
seed, so its ``--json`` series must be byte-identical.  Outputs are
never compared across workloads: ``--cache`` changes the random stream
layout, so the same seed gives different numbers with and without it.
"""

from __future__ import annotations

import math
import pathlib
from typing import Callable, Dict, List

#: Family-wise false-failure rate of the exact-law check, Bonferroni-split
#: over the checked points.
LAW_ALPHA = 1e-3


def read_outputs(json_dir: pathlib.Path) -> Dict[str, bytes]:
    """The ``--json`` files of one invocation, by file name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(pathlib.Path(json_dir).glob("*.json"))
    }


def same_outputs(
    reference: Dict[str, bytes], outputs: Dict[str, bytes], label: str
) -> List[str]:
    """Problems if ``outputs`` is not byte-identical to ``reference``."""
    if not reference:
        return [f"{label}: the reference run wrote no --json series"]
    if sorted(outputs) != sorted(reference):
        return [
            f"{label}: wrote {sorted(outputs)}, expected {sorted(reference)}"
        ]
    return [
        f"{label}: {name} differs from the reference run"
        for name in sorted(reference)
        if outputs[name] != reference[name]
    ]


def cache_listing(cache_dir: pathlib.Path) -> Dict[str, int]:
    """Every file under ``cache_dir`` with its size."""
    root = pathlib.Path(cache_dir)
    return {
        str(path.relative_to(root)): path.stat().st_size
        for path in root.rglob("*")
        if path.is_file()
    }


def no_new_entries(
    before: Dict[str, int], after: Dict[str, int], label: str
) -> List[str]:
    """Problems if a warm run wrote to the cache it should only read."""
    added = sorted(set(after) - set(before))
    changed = sorted(
        name for name in set(after) & set(before) if after[name] != before[name]
    )
    problems = []
    if added:
        problems.append(f"{label}: {len(added)} new cache files, e.g. {added[0]}")
    if changed:
        problems.append(f"{label}: {len(changed)} cache files rewritten")
    return problems


def _binom_pvalue(k: int, trials: int, p: float, binom) -> float:
    """Two-sided exact binomial test of ``k`` successes in ``trials``."""
    lower = binom.cdf(k, trials, p)
    upper = binom.sf(k - 1, trials, p)
    return min(1.0, 2.0 * min(lower, upper))


def pow_law(
    fig3: dict,
    trials: int,
    epsilon: float,
    fair_probability: Callable[[float, int, float], float],
    label: str,
) -> List[str]:
    """Problems if a Figure 3 PoW series strays from the exact law.

    Each point of every ``PoW|a`` series is the share of ``trials``
    independent games that ended outside the fair area after ``n``
    blocks.  Under PoW that count is Binomial(``trials``, ``1 -
    fair_probability(a, n, epsilon)``) exactly, so each point gets an
    exact two-sided binomial test at level ``LAW_ALPHA / points``.
    """
    from scipy.stats import binom

    checkpoints = fig3["checkpoints"]
    series = {
        key: values
        for key, values in fig3["series"].items()
        if key.startswith("PoW|")
    }
    if not series:
        return [f"{label}: fig3 has no PoW series"]
    points = sum(len(values) for values in series.values())
    threshold = LAW_ALPHA / points
    problems = []
    for key, values in sorted(series.items()):
        share = float(key.split("|", 1)[1])
        if len(values) != len(checkpoints):
            problems.append(f"{label}: {key} has {len(values)} points")
            continue
        for n, estimate in zip(checkpoints, values):
            count = estimate * trials
            k = round(count)
            if not math.isclose(count, k, abs_tol=1e-6) or not 0 <= k <= trials:
                problems.append(
                    f"{label}: {key} at n={n} is {estimate!r}, not a count "
                    f"out of {trials} trials"
                )
                continue
            p = 1.0 - fair_probability(share, int(n), epsilon)
            pvalue = _binom_pvalue(k, trials, p, binom)
            if pvalue < threshold:
                problems.append(
                    f"{label}: {key} at n={n} is {estimate:.4f}, the exact "
                    f"law gives {p:.4f} (p={pvalue:.2e} < {threshold:.2e})"
                )
    return problems


def worst_z(fig3: dict, trials: int, epsilon: float, fair_probability) -> float:
    """The largest |z| of the PoW points against the exact law (for display)."""
    worst = 0.0
    for key, values in fig3["series"].items():
        if not key.startswith("PoW|"):
            continue
        share = float(key.split("|", 1)[1])
        for n, estimate in zip(fig3["checkpoints"], values):
            p = 1.0 - fair_probability(share, int(n), epsilon)
            sd = math.sqrt(p * (1.0 - p) / trials)
            if sd > 0:
                worst = max(worst, abs(estimate - p) / sd)
    return worst
