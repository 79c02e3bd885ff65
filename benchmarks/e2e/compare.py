#!/usr/bin/env python3
"""Compare two sets of e2e results, metric by metric.

    python3 benchmarks/e2e/compare.py base.jsonl new.jsonl

Each file holds results appended by ``run.py --out`` — several runs
(seeds) per workload make a set.  For every workload x end-to-end
metric the table gives each side's median and quartiles, the relative
difference (positive = *new* is worse), the metric's bound from
BENCHMARK.json and a verdict:

``same``        medians within the bound of each other
``better``      new wins at least 9 in 10 of all base/new pairings and
                the medians differ by more than base's own quartile
                spread
``worse``       new's median is worse by more than the bound
``unresolved``  the run-to-run spread of either side exceeds the bound,
                so neither ``same`` nor ``worse`` can be told — unless
                every new run beats (or loses to) every base run

Exit status 1 on any ``worse``, 2 when the sets cannot be compared
(quick against full runs, or different tick counts).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[str, List[dict]]:
    """Results of one JSONL file, by workload."""
    by_workload: Dict[str, List[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                result = json.loads(line)
                by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run has no
    spread to speak of."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(
    base: List[float], new: List[float], lower_is_better: bool, bound: float
) -> Tuple[str, float]:
    """(verdict, relative worsening of new's median over base's)."""
    sign = 1.0 if lower_is_better else -1.0
    b_first, b_median, b_third = quartiles(base)
    n_first, n_median, n_third = quartiles(new)
    worsening = sign * (n_median - b_median) / b_median
    pairs = [(b, n) for b in base for n in new]
    wins = sum(sign * (n - b) < 0 for b, n in pairs) / len(pairs)
    losses = sum(sign * (n - b) > 0 for b, n in pairs) / len(pairs)
    base_spread = (b_third - b_first) / b_median
    spread = max(base_spread, (n_third - n_first) / n_median)
    if wins >= 0.9 and -worsening > base_spread:
        return "better", worsening
    if worsening > bound and (losses == 1.0 or spread <= bound):
        return "worse", worsening
    if spread > bound and wins < 1.0:
        return "unresolved", worsening
    return "same", worsening


def comparable(base: List[dict], new: List[dict]) -> str:
    """Why the two sets cannot be compared ('' if they can)."""
    runs = base + new
    if len({run["quick"] for run in runs}) > 1:
        return "quick runs cannot be compared with full runs"
    if len({(run["ticks"], run["seconds"]) for run in runs}) > 1:
        return "the runs measured different tick counts"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="JSONL of the parent's runs")
    parser.add_argument("new", help="JSONL of the change's runs")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    base_sets, new_sets = load(args.base), load(args.new)

    status = 0
    header = (
        f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'diff':>8} {'bound':>6}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        base, new = base_sets.get(workload), new_sets.get(workload)
        if not base or not new:
            continue
        reason = comparable(base, new)
        if reason:
            print(f"{workload}: {reason}")
            status = max(status, 2)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run["metrics"][name] for run in base]
            n = [run["metrics"][name] for run in new]
            word, worsening = verdict(
                b, n, metric["better"] == "lower", metric["bound"]
            )
            if word == "worse":
                status = max(status, 1)
            cells = []
            for values in (b, n):
                first, median, third = quartiles(values)
                cells.append(
                    f"{median:>12.3f} [{first:>8.3f}, {third:>8.3f}]"
                )
            print(
                f"{workload:<12} {name:<16} {cells[0]:>34} {cells[1]:>34} "
                f"{worsening * 100:>+7.1f}% {metric['bound'] * 100:>5.0f}%"
                f"  {word}"
            )
        # Same seed, same decisions: parent and change must agree.
        digests = {run["seed"]: run["decision_digest"] for run in base}
        shared = [run for run in new if run["seed"] in digests]
        agree = sum(
            run["decision_digest"] == digests[run["seed"]] for run in shared
        )
        failed = sum(run["ops_failed"] for run in base + new)
        print(
            f"{workload:<12} runs base={len(base)} new={len(new)}  "
            f"decisions identical on {agree}/{len(shared)} shared seeds  "
            f"failed ops={failed}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
