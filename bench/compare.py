"""Compare two result files of ``bench/run.py``: A is the parent, B the change.

usage: python3 bench/compare.py A.json B.json

One row per gated workload x metric: every end-to-end metric on every
workload, plus the workload-specific figures of
``spec.WORKLOAD_BOUNDS`` when both files carry a traced run.  A row is

- ``ok``          B's median is no worse than A's by more than the bound;
- ``regressed``   it is worse by more than the bound;
- ``unresolved``  the run-to-run quartile spread of either side is
                  wider than the bound, so the runs cannot tell --
                  unless every run of B reads better than every run of
                  A, which is ``ok``.

Exact counts (bound 0) may not worsen at all.  Exit status 1 when any row
regressed, 2 when none regressed but some are unresolved, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

if not __package__:  # run as a script: make ``bench`` importable
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench import spec  # noqa: E402


def _values(document: Dict, workload: str, metric: str) -> List[float]:
    """The metric's value in each run of *document* that reports it."""
    found = []
    for run in document["runs"]:
        result = run.get(workload, {})
        for section in ("end_to_end", "per_layer"):
            if metric in result.get(section, {}):
                found.append(result[section][metric])
    return found


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    # Inclusive: with the three runs a set may hold, the default method
    # would place the quartiles outside the sample.
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return (high - low) / abs(mid) if mid else 0.0


def verdict(
    a: List[float], b: List[float], bound: float, better: str
) -> Tuple[str, float, float]:
    """(verdict, share by which B's median is worse, widest spread)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else (
        0.0 if median_b == median_a else float("inf")
    )
    spread = max(_spread(a), _spread(b))
    if bound == 0.0:  # an exact count: any worsening at all is a regression
        return ("regressed" if worse > 0 else "ok"), worse, spread
    if spread > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("ok" if all_better else "unresolved"), worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def compare(a: Dict, b: Dict) -> List[Tuple[str, str, str, float, float, Optional[float]]]:
    rows = []
    gated = [
        (metric.name, workload)
        for workload in spec.WORKLOADS
        for metric in spec.END_TO_END
    ] + list(spec.WORKLOAD_BOUNDS)
    for metric, workload in gated:
        values_a = _values(a, workload, metric)
        values_b = _values(b, workload, metric)
        if not values_a or not values_b:
            continue  # a file without the traced run has no layer figures
        bound = spec.bound_for(metric, workload)
        outcome, worse, spread = verdict(
            values_a, values_b, bound, spec.direction_of(metric)
        )
        rows.append((workload, metric, outcome, worse, spread, bound))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 64
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    if a["seed"] != b["seed"] or a["seconds"] != b["seconds"] or a["smoke"] != b["smoke"]:
        print("compare.py: the two files were not run with the same settings")
        return 64
    rows = compare(a, b)
    print(f"{'workload':<22}{'metric':<24}{'verdict':<12}{'worse by':>9}{'spread':>9}{'bound':>8}")
    for workload, metric, outcome, worse, spread, bound in rows:
        print(
            f"{workload:<22}{metric:<24}{outcome:<12}"
            f"{worse:>+9.1%}{spread:>9.1%}{bound:>8.0%}"
        )
    outcomes = {row[2] for row in rows}
    return 1 if "regressed" in outcomes else 2 if "unresolved" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
