"""The Edge Fabric controller: the 30-second decision loop.

Each cycle:

1. assemble fresh inputs (skip the cycle if routes or traffic are stale),
2. project interface load assuming BGP-preferred placement,
3. allocate detours for every interface over the threshold,
4. optionally extend with performance-aware moves,
5. reconcile against the active override set and hand the diff to the
   BGP injector.

The controller holds no durable state: the capacity override set is
re-derived every cycle, so a crashed-and-restarted controller reaches
the same capacity decisions on its first cycle.  Performance-aware
steering memory (tiers, dwell counters, EWMAs) is lost with the process,
so performance detours re-trip over the following cycles.  The
injector's routes stay until withdrawn, and `shutdown()` withdraws them
all, restoring default routing.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Optional

from ..measurement.altpath import AltPathMonitor
from ..netbase.errors import StaleInputError
from ..obs.logs import get_logger, log_event
from ..obs.telemetry import Telemetry
from .aggregate import OverrideAggregator
from .allocator import Allocator
from .config import ControllerConfig
from .injector import BgpInjector
from .inputs import InputAssembler
from .monitoring import ControllerMonitor, CycleReport
from .overrides import OverrideDiff, OverrideSet
from .projection import IncrementalProjection, project
from .steering import SteeringEngine

__all__ = ["EdgeFabricController", "DRIFT_TOLERANCE"]

_log = get_logger("repro.core.controller")

#: Relative load disagreement between the incremental projection and a
#: full rebuild that counts as drift (ulp-scale float accumulation
#: differences sit far below this).
DRIFT_TOLERANCE = 1e-6


class EdgeFabricController:
    """One controller instance per PoP."""

    def __init__(
        self,
        assembler: InputAssembler,
        injector: BgpInjector,
        config: ControllerConfig = ControllerConfig(),
        altpath: Optional[AltPathMonitor] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.assembler = assembler
        self.injector = injector
        self.config = config
        self.allocator = Allocator(assembler.pop, config)
        self.overrides = OverrideSet()
        #: When aggregation is on, the *installed* table diverges from
        #: the desired per-prefix set: runs of same-target detours are
        #: injected as one covering prefix.  None = install 1:1.
        self.aggregator: Optional[OverrideAggregator] = (
            OverrideAggregator()
            if config.aggregate_overrides
            else None
        )
        self.monitor = ControllerMonitor()
        self.altpath = altpath
        #: Consecutive cycles skipped on stale inputs; drives fail-static.
        self._stale_cycles = 0
        #: Projected per-interface loads after the last completed
        #: allocation — what the controller *believed* each interface
        #: would carry.  The safety checker compares this against
        #: thresholds; empty until a cycle has run.
        self.last_final_loads: Dict = {}
        # Incremental-engine state: the maintained projection and how
        # many delta cycles have run since the last full reconciliation.
        self._incremental: Optional[IncrementalProjection] = None
        self._cycles_since_full = 0
        #: Interfaces whose incrementally-maintained load disagreed with
        #: the last full reconciliation beyond :data:`DRIFT_TOLERANCE`
        #: (relative), for the safety checker.  Cleared every cycle.
        self.last_drift: Dict = {}
        #: The per-prefix override diff the last completed cycle
        #: committed (None until a cycle runs, and after skipped cycles
        #: so stale diffs are never re-read).  The health engine's flap
        #: monitor consumes this.
        self.last_diff: Optional[OverrideDiff] = None
        if config.performance_aware and altpath is None:
            raise ValueError(
                "performance_aware requires an AltPathMonitor"
            )
        self.telemetry = telemetry or Telemetry(name=assembler.pop.name)
        #: The closed-loop steering engine; None unless
        #: ``config.performance_aware``.
        self.steering: Optional[SteeringEngine] = (
            SteeringEngine(config, telemetry=self.telemetry)
            if config.performance_aware
            else None
        )
        registry = self.telemetry.registry
        cycles = registry.counter(
            "controller_cycles_total",
            "Controller cycles, by outcome",
            ("status",),
        )
        self._m_cycles_run = cycles.labels(status="run")
        self._m_cycles_skipped = cycles.labels(status="skipped")
        self._m_announced = registry.counter(
            "controller_announced_total", "Override routes announced"
        )
        self._m_withdrawn = registry.counter(
            "controller_withdrawn_total", "Override routes withdrawn"
        )
        self._m_perf_moves = registry.counter(
            "controller_perf_moves_total",
            "Performance-aware pass moves",
        )
        self._m_active = registry.gauge(
            "controller_active_overrides", "Currently injected overrides"
        )
        self._m_overloaded = registry.gauge(
            "controller_overloaded_interfaces",
            "Interfaces over threshold before allocation (last cycle)",
        )
        self._m_unresolved = registry.gauge(
            "controller_unresolved_interfaces",
            "Interfaces still over threshold after allocation "
            "(last cycle)",
        )
        self._m_cycle_hist = registry.histogram(
            "controller_cycle_seconds", "Controller cycle compute time"
        )
        self._m_fail_static = registry.counter(
            "controller_fail_static_total",
            "Overrides withdrawn because inputs stayed stale",
        )
        self._m_cycle_path = registry.counter(
            "controller_cycle_path_total",
            "Cycles by decision path: full (engine off), rebuild "
            "(reconciliation / fallback), delta (incremental "
            "projection + fresh allocation)",
            ("path",),
        )
        self._m_drift_max = registry.gauge(
            "controller_projection_drift_max",
            "Largest relative projection drift found by the last "
            "full reconciliation",
        )
        self._m_drift = registry.counter(
            "controller_projection_drift_total",
            "Interfaces whose incremental load drifted beyond "
            "tolerance at a reconciliation cycle",
        )

    # -- the cycle ------------------------------------------------------------

    def run_cycle(
        self, now: float, utilization_of=None
    ) -> CycleReport:
        """Run one full decision cycle at simulation time *now*.

        *utilization_of* is the dataplane's per-interface utilization
        view (``InterfaceKey -> float``), consumed by the closed-loop
        steering engine's queue-pressure signal.  Optional — without it
        that signal abstains and steering runs on the measurement
        signals alone.
        """
        started = _time.perf_counter()
        tracer = self.telemetry.tracer
        self.last_diff = None
        try:
            inputs = self.assembler.snapshot(now)
        except StaleInputError as exc:
            self._stale_cycles += 1
            withdrawn = 0
            if (
                self._stale_cycles >= self.config.fail_static_after_cycles
                and len(self.overrides)
            ):
                withdrawn = self._fail_static(now)
            report = CycleReport(
                time=now,
                skipped=True,
                skip_reason=str(exc),
                withdrawn=withdrawn,
            )
            self.monitor.record(report)
            self._m_cycles_skipped.inc()
            tracer.record(
                "controller.cycle",
                started,
                _time.perf_counter() - started,
                {"time": now, "skipped": True},
            )
            log_event(
                _log,
                "controller.cycle.skipped",
                time=now,
                reason=str(exc),
                stale_cycles=self._stale_cycles,
                withdrawn=withdrawn,
            )
            return report
        self._stale_cycles = 0

        decision_started = _time.perf_counter()
        allocation, path = self._decide(inputs)
        tracer.record(
            "bgp.decision",
            decision_started,
            _time.perf_counter() - decision_started,
            {
                "time": now,
                "prefixes": len(inputs.traffic),
                "overloaded": len(allocation.overloaded_before),
                "path": path,
            },
        )
        perf_moves = 0
        if self.steering is not None:
            perf_moves = len(
                self.steering.run(
                    now,
                    allocation.detours,
                    allocation.final_loads,
                    inputs,
                    self.altpath,
                    self.assembler.pop,
                    utilization_of=utilization_of,
                )
            )

        diff = self.overrides.reconcile(allocation.detours, now)
        self.last_diff = diff
        if self.aggregator is not None:
            # Desired decisions stay per-prefix; what reaches the
            # injector is the aggregated install table.
            install_diff = self.aggregator.reconcile(
                allocation.detours,
                self.overrides.active_targets(),
                self.assembler.bmp.rib,
                now,
            )
        else:
            install_diff = diff
        self.injector.apply(install_diff)
        self.telemetry.audit.record_cycle(
            now,
            diff,
            allocation.detours,
            record_keeps=self.config.audit_keep_events,
        )
        if self.aggregator is not None:
            self.telemetry.audit.set_installed_aggregates(
                self.aggregator.covering_of
            )
        self.last_final_loads = dict(allocation.final_loads)

        runtime = _time.perf_counter() - started
        report = CycleReport(
            time=now,
            total_traffic=inputs.total_traffic(),
            prefixes_seen=len(inputs.traffic),
            overloaded_interfaces=tuple(allocation.overloaded_before),
            detour_count=len(allocation.detours),
            detoured_rate=allocation.detoured_rate(),
            announced=len(diff.announce),
            withdrawn=len(diff.withdraw),
            kept=len(diff.keep),
            unresolved=tuple(allocation.unresolved),
            perf_moves=perf_moves,
            runtime_seconds=runtime,
            decision_path=path,
            installed_overrides=(
                len(self.aggregator.installed)
                if self.aggregator is not None
                else len(self.overrides)
            ),
        )
        self.monitor.record(report)
        self._m_cycles_run.inc()
        self._m_announced.inc(len(diff.announce))
        self._m_withdrawn.inc(len(diff.withdraw))
        if perf_moves:
            self._m_perf_moves.inc(perf_moves)
        self._m_active.set(len(self.overrides))
        self._m_overloaded.set(len(allocation.overloaded_before))
        self._m_unresolved.set(len(allocation.unresolved))
        self._m_cycle_hist.observe(runtime)
        tracer.record(
            "controller.cycle",
            started,
            runtime,
            {
                "time": now,
                "detours": len(allocation.detours),
                "announced": len(diff.announce),
                "withdrawn": len(diff.withdraw),
            },
        )
        log_event(
            _log,
            "controller.cycle",
            time=now,
            detours=len(allocation.detours),
            announced=len(diff.announce),
            withdrawn=len(diff.withdraw),
            overloaded=len(allocation.overloaded_before),
            unresolved=len(allocation.unresolved),
            runtime_ms=round(runtime * 1000.0, 3),
        )
        return report

    # -- the decision paths --------------------------------------------------------

    def _decide(self, inputs):
        """Project and allocate, taking the cheapest path that is safe.

        Paths, in decreasing cost:

        - ``full``: the incremental engine is off — rebuild a fresh
          :class:`~.projection.Projection` and allocate from scratch
          (the reference semantics, and the ``--full-recompute``
          escape hatch).
        - ``rebuild``: incremental mode, but either the snapshot carried
          no delta (first cycle, BMP reset, journal overflow, capacity
          edit) or this is the periodic reconciliation cycle.  The
          maintained projection is replayed from the full table; on
          reconciliation cycles the replay is compared against the
          incrementally-maintained loads and any disagreement beyond
          :data:`DRIFT_TOLERANCE` lands in :attr:`last_drift` for
          the safety checker.
        - ``delta``: only dirty prefixes are re-placed, then the
          allocator runs against the maintained projection (cost
          proportional to overloaded-interface work, not table size).
        """
        previous_targets = self.overrides.active_targets()
        self.last_drift = {}
        if not self.config.incremental_engine:
            projection = project(self.assembler.pop, inputs)
            allocation = self.allocator.allocate(
                projection, inputs, previous_targets=previous_targets
            )
            self._m_cycle_path.labels(path="full").inc()
            return allocation, "full"

        incremental = self._incremental
        fresh = incremental is None
        if incremental is None:
            incremental = IncrementalProjection(self.assembler.pop)
            self._incremental = incremental

        if fresh or inputs.dirty_prefixes is None:
            # A fresh projection (first cycle, post-crash) must be built
            # from the full table even when the snapshot carries a delta
            # — the assembler's state can outlive the controller's.
            # Discontinuous: the pre-rebuild state describes a different
            # world (or no world), so this is not a drift measurement.
            incremental.rebuild(inputs)
            self._cycles_since_full = 0
            path = "rebuild"
        else:
            incremental.apply(inputs)
            self._cycles_since_full += 1
            if self._cycles_since_full >= self.config.full_recompute_every:
                drift = incremental.rebuild(inputs)
                self._cycles_since_full = 0
                path = "rebuild"
                worst = max(drift.values(), default=0.0)
                self._m_drift_max.set(worst)
                exceeded = {
                    key: value
                    for key, value in drift.items()
                    if value > DRIFT_TOLERANCE
                }
                if exceeded:
                    self.last_drift = exceeded
                    self._m_drift.inc(len(exceeded))
            else:
                path = "delta"

        allocation = self.allocator.allocate(
            incremental, inputs, previous_targets=previous_targets
        )
        self._m_cycle_path.labels(path=path).inc()
        return allocation, path

    # -- fail static ---------------------------------------------------------------

    @property
    def stale_cycles(self) -> int:
        """Consecutive cycles skipped on stale inputs, so far."""
        return self._stale_cycles

    def _fail_static(self, now: float) -> int:
        """Withdraw every override: inputs have been stale too long.

        The paper's safety posture — a controller that cannot see the
        network must stop steering it.  Withdrawing the injected routes
        returns every detoured prefix to vanilla BGP placement.
        """
        flushed = self.overrides.flush(now)
        self.injector.withdraw_all(self._flush_installed(now, flushed))
        self.telemetry.audit.record_cycle(
            now, OverrideDiff((), tuple(flushed), ()), {}
        )
        self._m_fail_static.inc(len(flushed))
        self._m_withdrawn.inc(len(flushed))
        self._m_active.set(0)
        self.last_final_loads = {}
        log_event(
            _log,
            "controller.fail_static",
            time=now,
            withdrawn=len(flushed),
            stale_cycles=self._stale_cycles,
        )
        return len(flushed)

    # -- lifecycle ----------------------------------------------------------------

    def crash(self, now: float) -> int:
        """Model a process crash: all in-memory state is lost.

        Unlike :meth:`shutdown`, nothing is *sent* — the injector's
        sessions are torn down separately and the routers withdraw the
        injected routes themselves.  The override table is flushed and
        the steering engine reset: a restarted controller re-derives
        its capacity decisions on the first cycle, but performance
        detours must re-trip through the steering tiers.
        """
        flushed = self.overrides.flush(now)
        if self.aggregator is not None:
            self.aggregator.flush(now)
        self.telemetry.audit.record_cycle(
            now, OverrideDiff((), tuple(flushed), ()), {}
        )
        self._stale_cycles = 0
        self.last_final_loads = {}
        self._incremental = None
        self._cycles_since_full = 0
        self.last_drift = {}
        self.last_diff = None
        if self.steering is not None:
            self.steering.reset()
        self._m_active.set(0)
        log_event(
            _log, "controller.crash", time=now, lost=len(flushed)
        )
        return len(flushed)

    def shutdown(self, now: float) -> int:
        """Withdraw every override, restoring pure-BGP routing."""
        flushed = self.overrides.flush(now)
        self.injector.withdraw_all(self._flush_installed(now, flushed))
        self._m_active.set(0)
        log_event(
            _log, "controller.shutdown", time=now, withdrawn=len(flushed)
        )
        return len(flushed)

    def _flush_installed(self, now: float, flushed):
        """The overrides actually on the wire, flushing both layers.

        Without aggregation the installed table *is* the desired one;
        with it, the injector holds the aggregator's covering prefixes
        and those are what a withdraw-everything must name.
        """
        if self.aggregator is None:
            return flushed
        return self.aggregator.flush(now)

    def installed_prefixes(self):
        """Prefixes the injector should currently hold, sorted."""
        if self.aggregator is not None:
            return sorted(self.aggregator.installed.active())
        return sorted(self.overrides.active())
