"""Command-line interface: run demos, experiments, and telemetry views.

Usage::

    python -m repro quickstart [--pop pop-a] [--minutes 10] [--seed 7]
    python -m repro experiment fig4 [--hours 2.0]
    python -m repro list
    python -m repro metrics [--format prometheus|json] [--minutes 5]
    python -m repro trace [--span controller.cycle] [--limit 10]
    python -m repro explain 11.1.209.0/24   (or --list to see candidates)
    python -m repro chaos [--seed 7] [--plan examples/plans/chaos_basic.json]

``experiment`` accepts the short names below and prints the same tables
and series the benchmark harness does.  The telemetry verbs (``metrics``,
``trace``, ``explain``) run a deterministic peak-hour workload on the
study PoP and report what the observability layer recorded — the same
views a long-lived deployment would expose live.

Progress chatter goes through the structured logger (stderr), quiet by
default; pass ``-v`` for INFO-level run logs and ``--log-jsonl PATH`` to
also capture them as JSON lines.  Results stay on stdout.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from . import experiments
from .core.config import ControllerConfig
from .core.pipeline import PopDeployment
from .obs.logs import configure_logging, get_logger, log_event

__all__ = ["main", "EXPERIMENTS"]

_log = get_logger("repro.cli")

EXPERIMENTS: Dict[str, Callable] = {
    "table1": experiments.table1_pops.run,
    "fig2": experiments.fig2_route_diversity.run,
    "fig3": experiments.fig3_preferred_placement.run,
    "fig4": experiments.fig4_overload_no_te.run,
    "fig5": experiments.fig5_overload_magnitude.run,
    "fig6": experiments.fig6_detour_volume.run,
    "fig7": experiments.fig7_detour_durations.run,
    "fig8": experiments.fig8_altpath_rtt.run,
    "fig9": experiments.fig9_altpath_loss.run,
    "table2": experiments.table2_controller.run,
    "a1": experiments.ablation_stability.run,
    "a2": experiments.ablation_threshold.run,
    "a3": experiments.ablation_sampling.run,
    "a4": experiments.ablation_perfaware.run,
    "a5": experiments.ablation_splitting.run,
}

#: Experiments that accept an ``hours`` keyword.
_TAKES_HOURS = {
    "fig4", "fig5", "fig6", "fig7", "fig9", "table2", "a1", "a2", "a3",
    "a4", "a5",
}


def _controller_config(args: argparse.Namespace) -> ControllerConfig:
    """Build the controller config a workload verb asked for."""
    kwargs = {}
    if getattr(args, "full_recompute", False):
        kwargs["incremental_engine"] = False
    if getattr(args, "steering", False):
        kwargs["performance_aware"] = True
    return ControllerConfig(**kwargs)


def _steering_kwargs(config: ControllerConfig) -> dict:
    """Deployment kwargs the closed loop needs: measurement rounds.

    The engine votes on alternate-path statistics, so a steering-armed
    workload must actually run DSCP measurement rounds.
    """
    if not config.performance_aware:
        return {}
    return {"altpath_every_ticks": 2, "altpath_prefix_count": 100}


def _run_peak_deployment(
    pop: str,
    minutes: float,
    seed: int,
    controller_config: ControllerConfig = ControllerConfig(),
) -> PopDeployment:
    """The telemetry verbs' shared workload: *minutes* at the peak."""
    deployment = PopDeployment.build(
        pop_name=pop,
        seed=seed,
        controller_config=controller_config,
        **_steering_kwargs(controller_config),
    )
    start = deployment.demand.config.peak_time
    ticks = int(minutes * 60 / deployment.tick_seconds)
    log_event(
        _log,
        "cli.run",
        pop=pop,
        seed=seed,
        minutes=minutes,
        ticks=ticks,
    )
    for index in range(ticks):
        deployment.step(start + index * deployment.tick_seconds)
    return deployment


def _cmd_quickstart(args: argparse.Namespace) -> int:
    deployment = PopDeployment.build(
        pop_name=args.pop,
        seed=args.seed,
        controller_config=_controller_config(args),
    )
    start = deployment.demand.config.peak_time
    ticks = int(args.minutes * 60 / deployment.tick_seconds)
    log_event(
        _log,
        "cli.quickstart",
        pop=args.pop,
        seed=args.seed,
        minutes=args.minutes,
    )
    for index in range(ticks):
        deployment.step(start + index * deployment.tick_seconds)
        tick = deployment.record.ticks[-1]
        print(
            f"t={tick.time - start:5.0f}s offered={str(tick.offered):>14} "
            f"dropped={str(tick.dropped):>12} "
            f"overrides={tick.active_overrides}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENTS.get(args.name)
    if runner is None:
        print(
            f"unknown experiment {args.name!r}; try: "
            + ", ".join(sorted(EXPERIMENTS)),
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.name in _TAKES_HOURS and args.hours is not None:
        kwargs["hours"] = args.hours
    log_event(_log, "cli.experiment", name=args.name, **kwargs)
    result = runner(**kwargs)
    print(result.render())
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    return 0


# -- telemetry verbs ------------------------------------------------------------


def _cmd_metrics(args: argparse.Namespace) -> int:
    deployment = _run_peak_deployment(
        args.pop, args.minutes, args.seed, _controller_config(args)
    )
    registry = deployment.telemetry.registry
    if args.format == "json":
        print(registry.to_json(indent=2))
    else:
        print(registry.to_prometheus(), end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    deployment = _run_peak_deployment(
        args.pop, args.minutes, args.seed, _controller_config(args)
    )
    tracer = deployment.telemetry.tracer
    names = sorted(tracer.counts())
    print(
        f"spans: {tracer.recorded} recorded, {len(tracer)} buffered, "
        f"{tracer.dropped} dropped by the ring"
    )
    print(
        f"{'span':<20} {'count':>6} {'mean ms':>9} {'max ms':>9}"
    )
    for name in names:
        durations = tracer.durations(name)
        mean_ms = sum(durations) / len(durations) * 1000.0
        max_ms = max(durations) * 1000.0
        print(
            f"{name:<20} {len(durations):>6} {mean_ms:>9.2f} "
            f"{max_ms:>9.2f}"
        )
    spans = tracer.recent(limit=args.limit, name=args.span)
    if spans:
        print(f"\nmost recent {len(spans)} spans (newest last):")
        for span in spans:
            tags = " ".join(
                f"{key}={value}" for key, value in span.tags
            )
            print(
                f"  {span.name:<18} {span.duration_ms:>8.2f} ms  {tags}"
            )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    deployment = _run_peak_deployment(
        args.pop, args.minutes, args.seed, _controller_config(args)
    )
    audit = deployment.telemetry.audit
    if args.list or args.prefix is None:
        detoured = audit.detoured_prefixes()
        if not detoured:
            print("no prefixes are currently detoured")
        else:
            print(
                f"{len(detoured)} prefixes currently detoured "
                "(pass one to `repro explain`):"
            )
            for prefix in detoured:
                print(f"  {prefix}")
        engine = deployment.controller.steering
        if engine is not None:
            counts = engine.tier_counts()
            print(
                "steering tiers: "
                f"GREEN={counts['GREEN']} YELLOW={counts['YELLOW']} "
                f"RED={counts['RED']}"
            )
            for state in engine.states():
                if state.tier != "GREEN":
                    print(
                        f"  {state.tier:<6} {state.prefix} "
                        f"via {state.path}"
                    )
        return 0
    explanation = deployment.telemetry.explain(args.prefix)
    print(explanation.render())
    return 0 if explanation.events else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import (
        FaultInjector,
        FaultPlan,
        build_chaos_deployment,
        build_chaos_report,
    )

    if args.plan:
        plan = FaultPlan.load(args.plan)
    else:
        plan = FaultPlan.random(args.seed, duration=args.minutes * 60.0)
    injector = FaultInjector(plan)
    if args.pop == "chaos-mini":
        deployment = build_chaos_deployment(
            seed=args.seed,
            faults=injector,
            safety_checks=True,
            steering=args.steering,
        )
    else:
        config = ControllerConfig(performance_aware=args.steering)
        deployment = PopDeployment.build(
            pop_name=args.pop,
            seed=args.seed,
            faults=injector,
            safety_checks=True,
            controller_config=config,
            **_steering_kwargs(config),
        )
    start = deployment.demand.config.peak_time
    ticks = max(1, int(args.minutes * 60 / deployment.tick_seconds))
    log_event(
        _log,
        "cli.chaos",
        pop=args.pop,
        seed=args.seed,
        events=len(plan),
        ticks=ticks,
    )
    for index in range(ticks):
        deployment.step(start + index * deployment.tick_seconds)
    report = build_chaos_report(deployment)
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"\nreport written to {args.report}")
    return 0 if report.clean else 1


def _cmd_health(args: argparse.Namespace) -> int:
    from .faults import FaultInjector, FaultPlan, build_chaos_deployment
    from .obs.health import SloSpec

    slo_spec = SloSpec.load(args.slo) if args.slo else None
    injector = None
    if args.plan:
        injector = FaultInjector(FaultPlan.load(args.plan))
    if args.pop == "chaos-mini":
        deployment = build_chaos_deployment(
            seed=args.seed,
            faults=injector,
            safety_checks=True,
            health_checks=True,
            slo_spec=slo_spec,
            steering=args.steering,
        )
    else:
        config = _controller_config(args)
        deployment = PopDeployment.build(
            pop_name=args.pop,
            seed=args.seed,
            faults=injector,
            safety_checks=True,
            health_checks=True,
            slo_spec=slo_spec,
            controller_config=config,
            **_steering_kwargs(config),
        )
    start = deployment.demand.config.peak_time
    ticks = max(1, int(args.minutes * 60 / deployment.tick_seconds))
    log_event(
        _log,
        "cli.health",
        pop=args.pop,
        seed=args.seed,
        ticks=ticks,
        faulted=injector is not None,
    )
    for index in range(ticks):
        deployment.step(start + index * deployment.tick_seconds)
    report = deployment.health.report()
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 1 if report.firing else 0


def _render_top_frame(fleet, now: float) -> str:
    """One frame of the fleet console, as plain text.

    Pure function of the fleet's current state so tests can assert on
    frames without a terminal.
    """
    lines = [
        f"repro top — fleet of {len(fleet.deployments)} PoPs "
        f"at t={now:.0f}s",
        f"{'pop':<10} {'offered':>14} {'detoured':>14} "
        f"{'ovr':>5} {'cyc':>5} {'skip':>5} {'alerts':<24}",
    ]
    total_firing = 0
    for name, deployment in sorted(fleet.deployments.items()):
        ticks = deployment.record.ticks
        offered = str(ticks[-1].offered) if ticks else "-"
        detoured = str(ticks[-1].detoured) if ticks else "-"
        overrides = len(deployment.controller.overrides)
        monitor = deployment.controller.monitor
        health = deployment.health
        if health is not None:
            firing = health.firing_alerts()
            total_firing += len(firing)
            pending = [
                a
                for a in health.alerts.values()
                if a.state == "pending"
            ]
            if firing:
                alerts = "FIRING: " + ",".join(
                    sorted(a.rule.name for a in firing)
                )
            elif pending:
                alerts = "pending: " + ",".join(
                    sorted(a.rule.name for a in pending)
                )
            else:
                alerts = "ok"
        else:
            alerts = "(health off)"
        lines.append(
            f"{name:<10} {offered:>14} {detoured:>14} "
            f"{overrides:>5} {monitor.cycles():>5} "
            f"{monitor.skipped_cycles():>5} {alerts:<24}"
        )
    verdict = (
        f"{total_firing} alerts FIRING" if total_firing else "healthy"
    )
    lines.append(f"fleet: {verdict}")
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_top(args: argparse.Namespace) -> int:
    from .core.fleet import FleetDeployment

    fleet = FleetDeployment.build(
        pop_count=args.pops,
        seed=args.seed,
        health_checks=True,
    )
    ticks = max(
        1, int(args.minutes * 60 / fleet.tick_seconds)
    )
    log_event(
        _log,
        "cli.top",
        pops=args.pops,
        seed=args.seed,
        ticks=ticks,
        plain=args.plain,
    )
    start = 0.0
    now = start
    for index in range(ticks):
        now = start + index * fleet.tick_seconds
        fleet.step(now)
        if index % args.every and index != ticks - 1:
            continue
        frame = _render_top_frame(fleet, now)
        if args.plain:
            print(frame)
            print()
        else:
            # Clear screen + home cursor, then the frame.
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
    firing = fleet.firing_alerts()
    if firing:
        print()
        for pop, alerts in firing.items():
            for alert in alerts:
                print(
                    f"{pop}: {alert.rule.name} FIRING "
                    f"({alert.message or alert.rule.description})"
                )
    return 1 if firing else 0


def _cmd_capture(args: argparse.Namespace) -> int:
    from .io import record_capture

    meta = record_capture(
        args.path,
        ticks=args.ticks,
        seed=args.seed,
        tick_seconds=args.tick_seconds,
    )
    log_event(_log, "cli.capture", path=args.path, **meta)
    print(
        f"captured {meta['ticks']} ticks to {args.path}: "
        f"{meta['frames']} frames, {meta['datagrams']} sFlow "
        f"datagrams, {meta['bmp_bytes']} BMP bytes"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .io import (
        build_twin_from_meta,
        decision_fingerprint,
        read_capture_meta,
        replay_capture,
    )

    meta = read_capture_meta(args.path)
    twin = build_twin_from_meta(meta)
    report = replay_capture(args.path, twin)
    log_event(
        _log,
        "cli.replay",
        path=args.path,
        ticks=report.ticks,
        cycles=report.cycles,
    )
    print(
        f"replayed {report.ticks} ticks over loopback sockets: "
        f"{report.datagrams_sent} datagrams, "
        f"{report.bmp_bytes_sent} BMP bytes, "
        f"{report.cycles} controller cycles"
    )
    print(f"ingest: {report.ingest}")
    if not args.verify:
        return 0
    # Verification: re-run the captured deployment in-process and
    # require decision-identical cycle reports.
    from .faults.scenario import build_chaos_deployment

    reference = build_chaos_deployment(
        seed=int(meta["seed"]),
        tick_seconds=float(meta["tick_seconds"]),
        steering=bool(meta.get("steering", False)),
        health_checks=bool(meta.get("health_checks", False)),
    )
    now = 0.0
    for _ in range(int(meta["ticks"])):
        now += float(meta["tick_seconds"])
        reference.step(now)
    expected = [
        decision_fingerprint(r) for r in reference.record.cycle_reports
    ]
    actual = [
        decision_fingerprint(r) for r in twin.record.cycle_reports
    ]
    if expected == actual:
        print(
            f"verify: PASS — {len(actual)} cycles decision-identical "
            "to the in-process run"
        )
        return 0
    print("verify: FAIL — wire-fed decisions diverged:")
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            diffs = {
                key: (want[key], got[key])
                for key in want
                if want[key] != got[key]
            }
            print(f"  cycle {index}: {diffs}")
    if len(expected) != len(actual):
        print(
            f"  cycle count differs: {len(expected)} in-process "
            f"vs {len(actual)} replayed"
        )
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .faults.scenario import build_chaos_deployment
    from .io import serve

    deployment = build_chaos_deployment(
        seed=args.seed,
        tick_seconds=args.tick_seconds,
        safety_checks=True,
        health_checks=True,
        external_ingest=True,
    )

    def on_ready(sflow_addr, bmp_addr):
        print(
            f"listening: sFlow udp://{sflow_addr[0]}:{sflow_addr[1]} "
            f"BMP tcp://{bmp_addr[0]}:{bmp_addr[1]}",
            flush=True,
        )

    duration = args.minutes * 60.0 if args.minutes else None
    result = serve(
        deployment, duration_seconds=duration, on_ready=on_ready
    )
    print(
        f"served {result['ticks']} ticks, {result['cycles']} cycles"
    )
    print(f"ingest: {result['ingest']}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    import json as _json

    from .io.soak import SoakConfig, run_soak

    config = SoakConfig(
        duration_seconds=args.minutes * 60.0,
        tick_seconds=args.tick_seconds,
        seed=args.seed,
        target_samples_per_minute=args.rate,
        min_samples_per_minute=args.min_rate,
    )
    report = run_soak(config)
    if args.report:
        with open(args.report, "w") as out:
            _json.dump(report, out, indent=1, sort_keys=True)
            out.write("\n")
    print(
        f"soak: {report['wall_seconds']:.0f}s, "
        f"{report['ticks']} ticks, {report['cycles']} cycles, "
        f"{report['achieved_samples_per_minute']:,.0f} samples/min "
        f"achieved (offered {args.rate:,.0f})"
    )
    print(
        f"  p99 tick {report['p99_tick_seconds'] * 1000:.1f}ms, "
        f"peak queue {report['peak_queue_depth']}, "
        f"RSS slope {report['rss_slope_bytes_per_minute'] / 1e6:+.1f} "
        "MB/min"
    )
    for name, gate in report["gates"].items():
        flag = "ok" if gate["ok"] else "FAIL"
        print(
            f"  gate {name}: {flag} "
            f"(value {gate['value']:.6g}, limit {gate['limit']:.6g})"
        )
    print("PASS" if report["ok"] else "FAIL")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Edge Fabric reproduction: demos and experiments",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="INFO-level structured run logs on stderr",
    )
    parser.add_argument(
        "--log-jsonl",
        default=None,
        metavar="PATH",
        help="also append structured logs as JSON lines to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_workload_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("--pop", default="pop-a")
        command.add_argument("--minutes", type=float, default=10.0)
        command.add_argument("--seed", type=int, default=7)
        command.add_argument(
            "--full-recompute",
            action="store_true",
            help=(
                "disable the incremental cycle engine: re-derive the "
                "full projection and allocation every cycle (the "
                "escape hatch while debugging delta-path suspicions)"
            ),
        )
        command.add_argument(
            "--steering",
            action="store_true",
            help=(
                "arm closed-loop performance-aware steering (the "
                "GREEN/YELLOW/RED engine) and run alternate-path "
                "measurement rounds; `explain` then shows tier "
                "transitions and the signals that voted"
            ),
        )

    quickstart = sub.add_parser(
        "quickstart", help="run a PoP with the controller at peak"
    )
    _add_workload_args(quickstart)
    quickstart.set_defaults(func=_cmd_quickstart)

    experiment = sub.add_parser(
        "experiment", help="regenerate one table/figure"
    )
    experiment.add_argument("name", help="e.g. fig4, table2, a1")
    experiment.add_argument("--hours", type=float, default=None)
    experiment.set_defaults(func=_cmd_experiment)

    lister = sub.add_parser("list", help="list experiment names")
    lister.set_defaults(func=_cmd_list)

    metrics = sub.add_parser(
        "metrics",
        help="run a peak workload and dump the metrics registry",
    )
    _add_workload_args(metrics)
    metrics.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
    )
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace",
        help="run a peak workload and summarize tick-path spans",
    )
    _add_workload_args(trace)
    trace.add_argument(
        "--span", default=None, help="filter recent spans by name"
    )
    trace.add_argument("--limit", type=int, default=10)
    trace.set_defaults(func=_cmd_trace)

    explain = sub.add_parser(
        "explain",
        help="reconstruct a prefix's override history "
        "(why is it detoured?)",
    )
    explain.add_argument(
        "prefix", nargs="?", help="e.g. 11.1.209.0/24"
    )
    explain.add_argument(
        "--list",
        action="store_true",
        help="list currently-detoured prefixes instead",
    )
    _add_workload_args(explain)
    explain.set_defaults(func=_cmd_explain)

    chaos = sub.add_parser(
        "chaos",
        help="replay a fault plan and print the violation/degradation "
        "report",
    )
    chaos.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan to replay (default: a seeded random plan)",
    )
    chaos.add_argument(
        "--pop",
        default="chaos-mini",
        help="'chaos-mini' (fast, default) or a study PoP name",
    )
    chaos.add_argument("--minutes", type=float, default=30.0)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the report as JSON to PATH",
    )
    chaos.add_argument(
        "--steering",
        action="store_true",
        help="arm closed-loop performance-aware steering; the report "
        "then carries tier counts and flap rates",
    )
    chaos.set_defaults(func=_cmd_chaos)

    health = sub.add_parser(
        "health",
        help="run a workload under the health engine and print the "
        "conformance/SLO report (exit 1 if an alert is firing)",
    )
    health.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report instead of the summary",
    )
    health.add_argument(
        "--slo",
        default=None,
        metavar="PATH",
        help="JSON SLO spec to evaluate (default: the stock posture)",
    )
    health.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="JSON fault plan to replay while watching health",
    )
    health.add_argument(
        "--pop",
        default="chaos-mini",
        help="'chaos-mini' (fast, default) or a study PoP name",
    )
    health.add_argument("--minutes", type=float, default=30.0)
    health.add_argument("--seed", type=int, default=7)
    health.add_argument(
        "--full-recompute",
        action="store_true",
        help="disable the incremental cycle engine (study PoPs only)",
    )
    health.add_argument(
        "--steering",
        action="store_true",
        help="arm closed-loop performance-aware steering; the health "
        "report then shows per-tier steering counts",
    )
    health.set_defaults(func=_cmd_health)

    top = sub.add_parser(
        "top",
        help="live per-PoP fleet console: traffic, overrides, alerts",
    )
    top.add_argument("--pops", type=_positive_int, default=4)
    top.add_argument("--minutes", type=float, default=30.0)
    top.add_argument("--seed", type=int, default=7)
    top.add_argument(
        "--every",
        type=_positive_int,
        default=1,
        metavar="TICKS",
        help="redraw every N ticks (default every tick)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append frames instead of redrawing (pipe-friendly)",
    )
    top.set_defaults(func=_cmd_top)

    capture = sub.add_parser(
        "capture",
        help="record a deployment run as a wire capture "
        "(sFlow datagrams + BMP bytes + utilization frames)",
    )
    capture.add_argument("path", help="capture file to write")
    capture.add_argument("--ticks", type=int, default=20)
    capture.add_argument("--seed", type=int, default=7)
    capture.add_argument(
        "--tick-seconds", type=float, default=2.0, dest="tick_seconds"
    )
    capture.set_defaults(func=_cmd_capture)

    replay = sub.add_parser(
        "replay",
        help="replay a wire capture through real loopback sockets "
        "into a twin deployment",
    )
    replay.add_argument("path", help="capture file to replay")
    replay.add_argument(
        "--verify",
        action="store_true",
        help="also re-run the capture in-process and require "
        "decision-identical controller cycles (exit 1 on divergence)",
    )
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="run a live wire-fed deployment: open sFlow/BMP sockets "
        "and cycle the controller on wall-clock ticks",
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--minutes",
        type=float,
        default=0.0,
        help="stop after this long (default: run until interrupted)",
    )
    serve.add_argument(
        "--tick-seconds", type=float, default=2.0, dest="tick_seconds"
    )
    serve.set_defaults(func=_cmd_serve)

    soak = sub.add_parser(
        "soak",
        help="blast wire-rate sFlow at a live deployment and gate "
        "throughput/latency/memory (exit 1 on any gate failure)",
    )
    soak.add_argument("--minutes", type=float, default=10.0)
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument(
        "--tick-seconds", type=float, default=2.0, dest="tick_seconds"
    )
    soak.add_argument(
        "--rate",
        type=float,
        default=1_500_000.0,
        help="offered load in samples/minute",
    )
    soak.add_argument(
        "--min-rate",
        type=float,
        default=1_000_000.0,
        dest="min_rate",
        help="gate: achieved samples/minute must reach this",
    )
    soak.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the full JSON report to PATH",
    )
    soak.set_defaults(func=_cmd_soak)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configure_logging(
            verbose=args.verbose, jsonl_path=args.log_jsonl
        )
    except OSError as error:
        print(
            f"cannot open log file {args.log_jsonl}: {error}",
            file=sys.stderr,
        )
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
