"""Fleet-scale bench: one machine steering a 20-PoP deployment.

The paper runs one controller per PoP with no cross-PoP coordination;
this bench proves the repo can carry a realistic fleet of them on a
single machine, two ways over the same seeded workload:

- **serial** — every PoP stepped in-process; the ground truth.
- **pool** — the persistent worker pool: workers forked once, stepped
  through every segment with their live state intact, state pickled
  back through one final ``collect()``.  Must be **byte-identical** to
  serial (records, per-PoP telemetry, merged registry).

``--max-regression`` gates the pool wall clock against the committed
``BENCH_fleet_baseline.json``.  Pool vs serial wall clock is reported,
not gated: the ratio is a property of how many cores the host has.

``--shared-substrate`` benches the zero-copy worker memory story
instead: the same fleet is run through the fork pool (workers inherit
the parent's whole image) and through the substrate pool (workers
*spawned*, rebuilding only their partition and mapping the fleet's
read-mostly bulk from one shared-memory :class:`FrozenTable`), over a
synthetic Internet scaled up with ``--stubs`` so table state dominates
per-worker memory the way a real full table does.  Both pools must
stay byte-identical to serial; ``--min-rss-reduction`` gates the
fork-vs-substrate mean per-worker RSS ratio (acceptance bar: 3x), and
``--max-regression`` gates the substrate pool's segmented wall clock
against ``BENCH_fleet_substrate_baseline.json``.  Per-worker RSS and
pool spin-up times land in the JSON either way.

Run directly (not a pytest benchmark)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from common import (
    HERE,
    check_maximum,
    check_minimum,
    check_regression,
    deterministic_view,
    ensure_src_on_path,
    load_baseline,
    write_results,
)

ensure_src_on_path()

from repro.core.fleet import FleetDeployment  # noqa: E402
from repro.topology.internet import InternetConfig  # noqa: E402


def _build(pops, seed, tick, internet_config=None) -> FleetDeployment:
    return FleetDeployment.build(
        pop_count=pops,
        seed=seed,
        tick_seconds=tick,
        internet_config=internet_config,
    )


def _segment_bounds(start: float, segments: int, seg_seconds: float):
    return [
        (start + index * seg_seconds, seg_seconds)
        for index in range(segments)
    ]


def _compare(candidate, serial, label: str = "") -> list:
    """Byte-identity mismatches between a parallel fleet and serial."""
    prefix = f"{label}: " if label else ""
    mismatches = []
    if (
        candidate.summary_table().render()
        != serial.summary_table().render()
    ):
        mismatches.append(f"{prefix}summary tables differ")
    if deterministic_view(candidate.merged_registry()) != (
        deterministic_view(serial.merged_registry())
    ):
        mismatches.append(f"{prefix}merged registries differ")
    for name, serial_pop in serial.deployments.items():
        candidate_pop = candidate.deployments[name]
        if candidate_pop.record.ticks != serial_pop.record.ticks:
            mismatches.append(f"{prefix}{name}: tick records differ")
        if candidate_pop.current_time != serial_pop.current_time:
            mismatches.append(f"{prefix}{name}: clocks differ")
        if deterministic_view(candidate_pop.telemetry.registry) != (
            deterministic_view(serial_pop.telemetry.registry)
        ):
            mismatches.append(f"{prefix}{name}: telemetry differs")
        if [
            event.to_dict()
            for event in candidate_pop.telemetry.audit.events()
        ] != [
            event.to_dict()
            for event in serial_pop.telemetry.audit.events()
        ]:
            mismatches.append(f"{prefix}{name}: audit trails differ")
    return mismatches


def _fallbacks(*fleets) -> float:
    return sum(
        fleet.telemetry.registry.counter(
            "fleet_parallel_fallback_total"
        ).value()
        for fleet in fleets
    )


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
    serial = _build(pops, seed, tick_seconds)
    pooled = _build(pops, seed, tick_seconds)
    build_wall = time.perf_counter() - build_started
    start = next(
        iter(serial.deployments.values())
    ).demand.config.peak_time
    bounds = _segment_bounds(start, segments, seg_seconds)

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
        "parallel_fallbacks": _fallbacks(pooled),
        "build_wall_seconds": round(build_wall, 2),
        "serial_wall_seconds": round(serial_wall, 2),
        "pool_wall_seconds": round(pool_wall, 2),
        "total_offered_bps": serial.total_offered().bits_per_second,
    }


def _run_pool(fleet, bounds, workers: int, substrate: bool) -> dict:
    """Run a pooled fleet over *bounds*; spin-up, wall and RSS stats.

    The pool is created by a zero-duration run so spin-up (fork or
    spawn + partition rebuild + substrate build/attach) is measured
    apart from stepping.  RSS is polled after the last segment, while
    the workers still hold their live state.
    """
    start = bounds[0][0]
    started = time.perf_counter()
    fleet.run(
        start, 0.0, parallel=workers, sync=False, substrate=substrate
    )
    spinup = time.perf_counter() - started
    started = time.perf_counter()
    for seg_start, seg_len in bounds:
        fleet.run(
            seg_start,
            seg_len,
            parallel=workers,
            sync=False,
            substrate=substrate,
        )
    rss = fleet.worker_rss_bytes()
    fleet.collect()
    wall = time.perf_counter() - started
    fleet.close_pool()
    mean_rss = sum(rss.values()) / len(rss) if rss else 0.0
    return {
        "spinup_seconds": round(spinup, 2),
        "wall_seconds": round(wall, 2),
        "worker_rss_bytes": {
            worker: int(value) for worker, value in sorted(rss.items())
        },
        "worker_rss_mean_bytes": int(mean_rss),
    }


def run_substrate_bench(
    pops: int,
    segments: int,
    ticks_per_segment: int,
    workers: int,
    seed: int,
    tick_seconds: float,
    stubs: int,
) -> dict:
    internet_config = InternetConfig(stub_count=stubs)
    seg_seconds = ticks_per_segment * tick_seconds

    # The fork pool is built and forked FIRST, while the parent holds
    # only this one fleet — the realistic image a fork-copied worker
    # inherits.  Serial and the substrate fleet come after (spawned
    # substrate workers rebuild from the picklable spec, so the
    # parent's size never reaches them).
    build_started = time.perf_counter()
    pooled = _build(pops, seed, tick_seconds, internet_config)
    build_wall = time.perf_counter() - build_started
    start = next(
        iter(pooled.deployments.values())
    ).demand.config.peak_time
    bounds = _segment_bounds(start, segments, seg_seconds)
    fork_stats = _run_pool(pooled, bounds, workers, substrate=False)

    serial = _build(pops, seed, tick_seconds, internet_config)
    started = time.perf_counter()
    for seg_start, seg_len in bounds:
        serial.run(seg_start, seg_len)
    serial_wall = time.perf_counter() - started

    shared = _build(pops, seed, tick_seconds, internet_config)
    substrate_stats = _run_pool(shared, bounds, workers, substrate=True)

    mismatches = _compare(pooled, serial, "fork-pool") + _compare(
        shared, serial, "substrate"
    )
    fork_rss = fork_stats["worker_rss_mean_bytes"]
    substrate_rss = substrate_stats["worker_rss_mean_bytes"]
    reduction = (
        fork_rss / substrate_rss if substrate_rss > 0 else None
    )
    return {
        "workload": (
            f"pops={pops},segments={segments},"
            f"ticks_per_segment={ticks_per_segment},"
            f"workers={workers},seed={seed},stubs={stubs},substrate"
        ),
        "pops": pops,
        "segments": segments,
        "ticks_per_segment": ticks_per_segment,
        "workers": workers,
        "seed": seed,
        "stubs": stubs,
        "byte_identical": not mismatches,
        "mismatches": mismatches[:10],
        "parallel_fallbacks": _fallbacks(pooled, shared),
        "build_wall_seconds": round(build_wall, 2),
        "serial_wall_seconds": round(serial_wall, 2),
        "fork_pool": fork_stats,
        "substrate_pool": substrate_stats,
        "substrate_wall_seconds": substrate_stats["wall_seconds"],
        "rss_reduction": (
            round(reduction, 2) if reduction else None
        ),
        "total_offered_bps": serial.total_offered().bits_per_second,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pops",
        type=int,
        default=20,
        help="fleet size (default 20, the acceptance bar; 8 with "
        "--shared-substrate)",
    )
    parser.add_argument(
        "--segments",
        type=int,
        default=12,
        help="run() calls issued per mode (default 12; 4 with "
        "--shared-substrate)",
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
        "enough for single-core machines; raise it on real hardware; "
        "8 with --shared-substrate, where each worker's memory is the "
        "point and the partition must be a small slice of the fleet)",
    )
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--tick-seconds", type=float, default=60.0
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short run for CI (6 PoPs, 8 segments; with "
        "--shared-substrate: 6 PoPs, 2 segments, 6 workers)",
    )
    parser.add_argument(
        "--shared-substrate",
        action="store_true",
        help="bench the spawned substrate pool (shared-memory "
        "FrozenTable) against fork-copied workers: per-worker RSS, "
        "spin-up, byte-identity",
    )
    parser.add_argument(
        "--stubs",
        type=int,
        default=None,
        help="stub-AS count of the synthetic Internet with "
        "--shared-substrate (scales table state per worker; default "
        "2000, 1200 with --quick)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write results (default BENCH_fleet.json, or "
        "BENCH_fleet_substrate.json with --shared-substrate)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline to compare against (default "
        "BENCH_fleet_baseline.json, or "
        "BENCH_fleet_substrate_baseline.json with --shared-substrate)",
    )
    parser.add_argument(
        "--min-rss-reduction",
        type=float,
        default=None,
        help="with --shared-substrate: fail unless mean fork-worker "
        "RSS is at least this multiple of mean substrate-worker RSS "
        "(the acceptance bar is 3)",
    )
    parser.add_argument(
        "--max-spinup-seconds",
        type=float,
        default=None,
        help="with --shared-substrate: fail if substrate pool spin-up "
        "(spawn + partition rebuild + substrate mapping) exceeds this",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        help="fail if the gated pool wall clock exceeds the baseline "
        "by more than this fraction",
    )
    args = parser.parse_args(argv)

    if args.shared_substrate:
        return _main_substrate(args)

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

    failed = _check_shared_gates(results)
    failed |= check_regression(
        results["pool_wall_seconds"],
        baseline_wall,
        args.max_regression,
        "pool wall",
    )
    return 1 if failed else 0


def _check_shared_gates(results: dict) -> bool:
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
    return failed


def _main_substrate(args) -> int:
    pops = 6 if args.quick else (8 if args.pops == 20 else args.pops)
    segments = (
        2 if args.quick else (4 if args.segments == 12 else args.segments)
    )
    workers = (
        6 if args.quick else (8 if args.workers == 2 else args.workers)
    )
    stubs = args.stubs or (1200 if args.quick else 2000)
    output = args.output or HERE / "BENCH_fleet_substrate.json"
    baseline_path = (
        args.baseline or HERE / "BENCH_fleet_substrate_baseline.json"
    )
    results = run_substrate_bench(
        pops=pops,
        segments=segments,
        ticks_per_segment=args.ticks_per_segment,
        workers=workers,
        seed=args.seed,
        tick_seconds=args.tick_seconds,
        stubs=stubs,
    )

    baseline_wall = load_baseline(
        baseline_path, results["workload"], "substrate_wall_seconds"
    )
    if baseline_wall is not None:
        results["baseline_substrate_wall_seconds"] = baseline_wall

    write_results(output, results)

    fork = results["fork_pool"]
    substrate = results["substrate_pool"]
    print(
        f"{pops} PoPs over {stubs} stubs, {segments} segments x "
        f"{args.ticks_per_segment} tick(s), {workers} workers"
    )
    print(f"serial:          {results['serial_wall_seconds']:.2f} s")
    print(
        f"fork pool:       {fork['wall_seconds']:.2f} s "
        f"(spin-up {fork['spinup_seconds']:.2f} s, mean worker RSS "
        f"{fork['worker_rss_mean_bytes'] / 1e6:.0f} MB)"
    )
    print(
        f"substrate pool:  {substrate['wall_seconds']:.2f} s "
        f"(spin-up {substrate['spinup_seconds']:.2f} s, mean worker "
        f"RSS {substrate['worker_rss_mean_bytes'] / 1e6:.0f} MB)"
    )
    print(f"per-worker RSS reduction: {results['rss_reduction']}x")
    print(f"wrote {output}")

    failed = _check_shared_gates(results)
    failed |= check_minimum(
        results["rss_reduction"],
        args.min_rss_reduction,
        "RSS reduction",
    )
    failed |= check_maximum(
        substrate["spinup_seconds"],
        args.max_spinup_seconds,
        "substrate spin-up",
        unit="s",
        fmt=".2f",
    )
    failed |= check_regression(
        results["substrate_wall_seconds"],
        baseline_wall,
        args.max_regression,
        "substrate wall",
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
