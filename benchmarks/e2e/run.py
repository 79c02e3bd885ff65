#!/usr/bin/env python3
"""e2e: wire bytes in, injected UPDATEs out — the repo's benchmark.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload sflow_flood
    python3 benchmarks/e2e/run.py --trace               # + per-layer run
    python3 benchmarks/e2e/run.py --quick --trace       # smoke, < 60 s

Each workload runs in its own fresh subprocess, one after another.  For
every workload the run prints its metrics by name with their units and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
— the end-to-end metrics of the untraced run, or with ``--trace`` the
per-layer metrics of a second, traced run of the same workload and seed
(whose decisions must match the untraced run's).  Exit status is
non-zero on any failed tick.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: One child may not outlive this (the caller allows 180 s per run).
_CHILD_TIMEOUT = 170.0


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print its result as JSON."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import measure

    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        args.quick,
        bool(args.trace),
        args.spans,
    )
    json.dump(result, sys.stdout)
    return 0


def _spawn(args: argparse.Namespace, workload: str, trace: bool) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
    ]
    if args.quick:
        command.append("--quick")
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        command += ["--spans", str(out / f"{workload}.spans.jsonl")]
    # run() kills the child and waits for it if the timeout expires.
    done = subprocess.run(
        command, stdout=subprocess.PIPE, timeout=_CHILD_TIMEOUT, check=False
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: measuring process exited {done.returncode}"
        )
    return json.loads(done.stdout)


def _run_workload(args: argparse.Namespace, workload: str, spec: dict) -> bool:
    """Run one workload (and its traced twin); print; True if correct."""
    plain = _spawn(args, workload, trace=False)
    runs = [plain]
    if args.trace:
        traced = _spawn(args, workload, trace=True)
        runs.append(traced)
        layers = traced["layers"]
        layers["bench.trace_overhead_pct"] = (
            traced["metrics"]["tick_ms_p50"] / plain["metrics"]["tick_ms_p50"]
            - 1.0
        ) * 100.0
        plain["layers"] = layers
        plain["traced_decision_digest"] = traced["decision_digest"]
    same_decisions = len({run["decision_digest"] for run in runs}) == 1
    attempted = sum(run["ops_attempted"] for run in runs)
    failed = sum(run["ops_failed"] for run in runs)
    correct = failed == 0 and same_decisions

    section = "per_layer" if args.trace else "end_to_end"
    values = plain["layers"] if args.trace else plain["metrics"]
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = [
        name
        for name in units
        if not math.isfinite(values.get(name, math.nan))
    ]
    if missing:
        raise SystemExit(f"{workload}: no finite value for {missing}")

    print(
        f"== {workload}  seed={args.seed} ticks={plain['ticks']}"
        f"{' QUICK' if plain['quick'] else ''}"
        f"{' TRUNCATED' if plain['truncated'] else ''}"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(f"  {name:<40}{plain['metrics'][name]:>14.4f} {metric['unit']}")
    if args.trace:
        for name, unit in units.items():
            print(f"  {name:<40}{values[name]:>14.4f} {unit}")
    print(
        f"  ops_attempted={attempted} ops_failed={failed} "
        f"tick_iqr_pct={plain['tick_iqr_pct']:.2f} "
        f"host_spin_ms={plain['host']['bench.host_spin_ms']:.2f} "
        f"host_spin_spread_pct="
        f"{plain['host']['bench.host_spin_spread_pct']:.1f}"
    )
    print(f"  decision_digest={plain['decision_digest']}")
    if not same_decisions:
        print("  FAILED: traced and untraced runs decided differently")
    for run in runs:
        for text in run["failures"]:
            print(f"  FAILED: {text}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(plain) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        help="nominal length of the measured phase; sets the tick count "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="also make the traced run and report per-layer metrics",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: tables / 10, 32 ticks; stamped quick, never "
        "comparable with full runs",
    )
    parser.add_argument(
        "--out", help="append each workload's result to this JSONL file"
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    chosen = names if args.workload is None else [args.workload]
    # Every workload runs even after a failure, so one report shows all.
    verdicts = [_run_workload(args, name, spec) for name in chosen]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
