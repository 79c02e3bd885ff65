"""Fleet-scale bench: one machine steering a 20-PoP deployment.

The paper runs one controller per PoP with no cross-PoP coordination;
this bench proves the repo can carry a realistic fleet of them on a
single machine, two ways over the same seeded workload:

- **serial** — every PoP stepped in-process; the ground truth.
- **pool** — the persistent worker pool: workers forked once, stepped
  through every segment with their live state intact, state pickled
  back through one final ``collect()``.  Must be **byte-identical** to
  serial (records, unresolved-overload cycles, override sets, per-PoP
  telemetry and audit trails, merged registry).

``--max-regression`` gates the pool wall clock against the committed
``BENCH_fleet_baseline.json``.  Pool vs serial wall clock is reported,
not gated: the ratio is a property of how many cores the host has.

Run directly (not a pytest benchmark)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from common import (
    HERE,
    check_regression,
    deterministic_view,
    ensure_src_on_path,
    load_baseline,
    write_results,
)

ensure_src_on_path()

from repro.core.fleet import FleetDeployment  # noqa: E402


def _compare(candidate, serial) -> list:
    """Byte-identity mismatches between a pooled fleet and serial."""
    mismatches = []
    if deterministic_view(candidate.merged_registry()) != (
        deterministic_view(serial.merged_registry())
    ):
        mismatches.append("merged registries differ")
    for name, serial_pop in serial.deployments.items():
        candidate_pop = candidate.deployments[name]
        if candidate_pop.record.ticks != serial_pop.record.ticks:
            mismatches.append(f"{name}: tick records differ")
        if candidate_pop.current_time != serial_pop.current_time:
            mismatches.append(f"{name}: clocks differ")
        if (
            candidate_pop.controller.monitor.unresolved_overload_cycles()
            != serial_pop.controller.monitor.unresolved_overload_cycles()
        ):
            mismatches.append(f"{name}: unresolved cycles differ")
        candidate_overrides = candidate_pop.controller.overrides
        serial_overrides = serial_pop.controller.overrides
        if (
            candidate_overrides.active_targets()
            != serial_overrides.active_targets()
            or candidate_overrides.completed != serial_overrides.completed
        ):
            mismatches.append(f"{name}: override sets differ")
        if deterministic_view(candidate_pop.telemetry.registry) != (
            deterministic_view(serial_pop.telemetry.registry)
        ):
            mismatches.append(f"{name}: telemetry differs")
        if [
            event.to_dict()
            for event in candidate_pop.telemetry.audit.events()
        ] != [
            event.to_dict()
            for event in serial_pop.telemetry.audit.events()
        ]:
            mismatches.append(f"{name}: audit trails differ")
    return mismatches


def run_bench(
    pops: int,
    segments: int,
    ticks_per_segment: int,
    workers: int,
    seed: int,
    tick_seconds: float,
) -> dict:
    seg_seconds = ticks_per_segment * tick_seconds
    build_started = time.perf_counter()
    serial = FleetDeployment.build(
        pop_count=pops, seed=seed, tick_seconds=tick_seconds
    )
    pooled = FleetDeployment.build(
        pop_count=pops, seed=seed, tick_seconds=tick_seconds
    )
    build_wall = time.perf_counter() - build_started
    start = next(iter(serial.deployments.values())).demand.config.peak_time
    bounds = [
        (start + index * seg_seconds, seg_seconds)
        for index in range(segments)
    ]

    started = time.perf_counter()
    for seg_start, seg_len in bounds:
        serial.run(seg_start, seg_len)
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    for seg_start, seg_len in bounds:
        pooled.run(seg_start, seg_len, parallel=workers, sync=False)
    pooled.collect()
    pool_wall = time.perf_counter() - started
    pooled.close_pool()

    mismatches = _compare(pooled, serial)
    return {
        "workload": (
            f"pops={pops},segments={segments},"
            f"ticks_per_segment={ticks_per_segment},"
            f"workers={workers},seed={seed}"
        ),
        "pops": pops,
        "segments": segments,
        "ticks_per_segment": ticks_per_segment,
        "workers": workers,
        "seed": seed,
        "byte_identical": not mismatches,
        "mismatches": mismatches[:10],
        "parallel_fallbacks": pooled.telemetry.registry.counter(
            "fleet_parallel_fallback_total"
        ).value(),
        "build_wall_seconds": round(build_wall, 2),
        "serial_wall_seconds": round(serial_wall, 2),
        "pool_wall_seconds": round(pool_wall, 2),
        "total_offered_bps": serial.total_offered().bits_per_second,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pops",
        type=int,
        default=20,
        help="fleet size (default 20, the acceptance bar)",
    )
    parser.add_argument(
        "--segments",
        type=int,
        default=12,
        help="run() calls issued per mode (default 12)",
    )
    parser.add_argument(
        "--ticks-per-segment",
        type=int,
        default=1,
        help="simulation ticks per segment (default 1)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="parallel worker processes (default 2 — conservative "
        "enough for single-core machines; raise it on real hardware)",
    )
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--tick-seconds", type=float, default=60.0)
    parser.add_argument(
        "--quick", action="store_true", help="short run for CI (6 PoPs, 8 segments)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write results (default BENCH_fleet.json)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline to compare against (default "
        "BENCH_fleet_baseline.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        help="fail if the pool wall clock exceeds the baseline by more "
        "than this fraction",
    )
    args = parser.parse_args(argv)

    pops = 6 if args.quick else args.pops
    segments = 8 if args.quick else args.segments
    output = args.output or HERE / "BENCH_fleet.json"
    baseline_path = args.baseline or HERE / "BENCH_fleet_baseline.json"
    results = run_bench(
        pops=pops,
        segments=segments,
        ticks_per_segment=args.ticks_per_segment,
        workers=args.workers,
        seed=args.seed,
        tick_seconds=args.tick_seconds,
    )

    baseline_wall = load_baseline(
        baseline_path, results["workload"], "pool_wall_seconds"
    )
    if baseline_wall is not None:
        results["baseline_pool_wall_seconds"] = baseline_wall

    write_results(output, results)

    print(
        f"{pops} PoPs, {segments} segments x "
        f"{args.ticks_per_segment} tick(s), {args.workers} workers"
    )
    print(f"serial:        {results['serial_wall_seconds']:.2f} s")
    print(
        f"pool:          {results['pool_wall_seconds']:.2f} s "
        "(1 fork, 1 collect)"
    )
    print(f"wrote {output}")

    failed = False
    if not results["byte_identical"]:
        print("FAIL: pooled run diverged from serial:")
        for mismatch in results["mismatches"]:
            print(f"  - {mismatch}")
        failed = True
    if results["parallel_fallbacks"]:
        print(
            "FAIL: parallel runs fell back "
            f"({results['parallel_fallbacks']:.0f} times)"
        )
        failed = True
    failed |= check_regression(
        results["pool_wall_seconds"],
        baseline_wall,
        args.max_regression,
        "pool wall",
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
