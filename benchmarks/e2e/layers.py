"""Per-layer metrics of one traced run, from its spans and tick records.

Every metric BENCHMARK.json lists under ``per_layer`` is produced for
every workload; a layer a workload does not reach reads 0.  Times are
medians over the measured ticks in which the span occurred, per-unit
costs are summed time over summed units, and the ``bench.share_*``
values are layer self time over summed tick wall.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from spans import Span, per_tick, self_times

#: Which share each span's self time is booked to.  The tick root's own
#: time is the pipeline's in ``pop_sim`` (``PopDeployment.step`` *is* the
#: root) and the harness's everywhere else.
_SHARE_OF = {
    "bmp.feed": "bmp",
    "sflow.feed_many": "sflow",
    "core.controller.run_cycle": "core",
    "core.inputs.snapshot": "core",
    "core.projection.apply": "core",
    "core.projection.rebuild": "core",
    "core.allocator.allocate": "core",
    "core.steering.run": "core",
    "core.overrides.reconcile": "core",
    "core.aggregate.reconcile": "core",
    "core.injector.apply": "core",
    "measurement.altpath.round": "measurement",
    "core.safety.check": "obs",
    "obs.audit.record_cycle": "obs",
    "obs.health.on_cycle": "obs",
    "dataplane.tick": "dataplane",
}


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(total: float, units: float) -> float:
    return total / units if units else 0.0


def layer_metrics(
    spans: List[Span],
    records: list,
    warmup: int,
    root_share: str,
    rib_prefixes: int,
) -> Dict[str, float]:
    """*records* are the post-set-up :class:`pops.TickRecord` s in tick
    order; the first *warmup* are excluded, as from the end-to-end
    metrics.  *root_share* names the share the tick root's self time
    belongs to (``core`` for ``pop_sim``, ``harness`` otherwise)."""
    measured = records[warmup:]
    own = self_times(spans)
    total = per_tick(spans, [s[3] - s[2] for s in spans], warmup)
    selfs = per_tick(spans, own, warmup)

    def ms_p50(name: str, source=total) -> float:
        return _p50(list(source.get(name, {}).values())) * 1e3

    def seconds(name: str) -> float:
        return sum(total.get(name, {}).values())

    routes = sum(r.routes for r in measured)
    samples = sum(r.samples for r in measured)
    out: Dict[str, float] = {}

    # bmp / bgp: feed = codec + RIB work; the replay isolates the codec.
    out["bmp.feed_ms_p50"] = ms_p50("bmp.feed")
    out["bmp.us_per_route"] = _ratio(seconds("bmp.feed"), routes) * 1e6
    out["bmp.decode_us_per_route"] = (
        _ratio(seconds("codec.bmp"), routes) * 1e6
    )
    out["bmp.routes"] = routes
    out["bmp.messages"] = sum(r.messages for r in measured)
    out["bgp.rib_us_per_route"] = max(
        0.0, out["bmp.us_per_route"] - out["bmp.decode_us_per_route"]
    )

    # sflow: feed = decode + group-by, resolve, estimator adds.
    out["sflow.feed_ms_p50"] = ms_p50("sflow.feed_many")
    out["sflow.ns_per_sample"] = (
        _ratio(seconds("sflow.feed_many"), samples) * 1e9
    )
    out["sflow.decode_ns_per_sample"] = (
        _ratio(seconds("codec.sflow"), samples) * 1e9
    )
    out["sflow.aggregate_ns_per_sample"] = max(
        0.0, out["sflow.ns_per_sample"] - out["sflow.decode_ns_per_sample"]
    )
    out["sflow.samples"] = samples
    out["sflow.datagrams"] = sum(r.datagrams for r in measured)

    # core.inputs: incremental snapshots carry a dirty-prefix count.
    snapshots = [
        s
        for s in spans
        if s[0] == "core.inputs.snapshot" and s[1] >= warmup
    ]
    incremental = [s for s in snapshots if s[5]["dirty"] is not None]
    dirty = [s[5]["dirty"] for s in incremental]
    out["core.inputs.snapshot_ms_p50"] = ms_p50("core.inputs.snapshot")
    out["core.inputs.dirty_prefixes_p50"] = _p50(dirty)
    out["core.inputs.us_per_dirty_prefix"] = (
        _ratio(sum(s[3] - s[2] for s in incremental), sum(dirty)) * 1e6
    )

    rebuilds = total.get("core.projection.rebuild", {})
    out["core.projection.apply_ms_p50"] = ms_p50("core.projection.apply")
    out["core.projection.rebuild_ms_p50"] = ms_p50(
        "core.projection.rebuild"
    )
    out["core.projection.rebuild_us_per_prefix"] = (
        _ratio(sum(rebuilds.values()), len(rebuilds) * rib_prefixes) * 1e6
    )
    out["core.projection.rebuilds"] = len(rebuilds)

    paths = [r.decision_path for r in measured]
    delta, reuse = paths.count("delta"), paths.count("reuse")
    out["core.allocator.allocate_ms_p50"] = ms_p50(
        "core.allocator.allocate"
    )
    out["core.allocator.calls"] = len(
        total.get("core.allocator.allocate", {})
    )
    out["core.allocator.reuse_ratio"] = _ratio(reuse, delta + reuse)
    out["core.allocator.detours_p50"] = _p50([r.detours for r in measured])

    out["core.steering.run_ms_p50"] = ms_p50("core.steering.run")
    out["core.steering.moves"] = sum(r.perf_moves for r in measured)
    out["measurement.altpath.round_ms_p50"] = ms_p50(
        "measurement.altpath.round"
    )

    updates = sum(r.injector_updates for r in measured)
    out["core.overrides.reconcile_ms_p50"] = ms_p50(
        "core.overrides.reconcile"
    )
    out["core.overrides.changes_p50"] = _p50([r.changes for r in measured])
    out["core.aggregate.reconcile_ms_p50"] = ms_p50(
        "core.aggregate.reconcile"
    )
    out["core.aggregate.install_ratio"] = _ratio(
        sum(r.detours for r in measured),
        sum(r.installed for r in measured),
    )
    out["core.injector.apply_ms_p50"] = ms_p50("core.injector.apply")
    out["core.injector.updates"] = updates
    out["core.injector.us_per_update"] = (
        _ratio(seconds("core.injector.apply"), updates) * 1e6
    )

    cycles = total.get("core.controller.run_cycle", {})
    by_path: Dict[str, List[float]] = {}
    for k, record in enumerate(records):
        if k >= warmup and k in cycles:
            by_path.setdefault(record.decision_path, []).append(cycles[k])
    out["core.controller.cycle_ms_p50"] = ms_p50(
        "core.controller.run_cycle"
    )
    out["core.controller.self_ms_p50"] = ms_p50(
        "core.controller.run_cycle", selfs
    )
    out["core.controller.delta_cycle_ms_p50"] = (
        _p50(by_path.get("delta", []) + by_path.get("reuse", [])) * 1e3
    )
    out["core.controller.rebuild_cycle_ms_p50"] = (
        _p50(by_path.get("rebuild", [])) * 1e3
    )
    out["core.controller.cold_cycle_ms"] = (
        _p50(
            [
                s[3] - s[2]
                for s in spans
                if s[0] == "core.controller.run_cycle" and s[1] < 0
            ]
        )
        * 1e3
    )
    out["core.controller.path.delta"] = delta
    out["core.controller.path.rebuild"] = paths.count("rebuild")
    out["core.controller.path.reuse"] = reuse
    out["core.controller.skipped"] = paths.count("")

    out["core.safety.check_ms_p50"] = ms_p50("core.safety.check")
    out["obs.audit.record_ms_p50"] = ms_p50("obs.audit.record_cycle")
    out["obs.health.on_cycle_ms_p50"] = ms_p50("obs.health.on_cycle")
    out["dataplane.tick_ms_p50"] = ms_p50("dataplane.tick")
    out["core.pipeline.self_ms_p50"] = (
        ms_p50("tick", selfs) if root_share == "core" else 0.0
    )

    # Shares: every span under a tick root books its self time to one
    # layer, so the shares sum to 100 % of summed tick wall.
    wall = sum(r.wall for r in measured)
    share = {"harness": 0.0, "measurement": 0.0}
    for name, by_tick in selfs.items():
        layer = root_share if name == "tick" else _SHARE_OF.get(name)
        if layer is not None:
            share[layer] = share.get(layer, 0.0) + sum(by_tick.values())
    for layer in (
        "bmp",
        "sflow",
        "core",
        "obs",
        "dataplane",
        "measurement",
        "harness",
    ):
        out[f"bench.share_{layer}_pct"] = _ratio(
            share.get(layer, 0.0), wall
        ) * 100.0
    out["bench.gc_ms_p50"] = _p50([r.gc for r in measured if r.gc]) * 1e3
    out["bench.tick_ms_max"] = max(r.wall for r in measured) * 1e3
    out["bench.ticks"] = len(measured)
    return out
