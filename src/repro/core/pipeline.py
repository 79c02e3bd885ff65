"""PopDeployment: the full Edge Fabric pipeline wired end to end.

One object assembles everything a PoP runs:

- the wired PoP (routers, sessions, RIBs) from :mod:`repro.topology`,
- BMP exporters on every PR feeding one :class:`BmpCollector`,
- sFlow agents (inside the dataplane simulator) feeding one
  :class:`SflowCollector`, with destination prefixes resolved against the
  BMP RIB — the same join production does,
- the dataplane simulator,
- the injector, the alternate-path monitor, and the controller.

``step(now)`` advances one tick; ``run(...)`` drives a whole experiment
and returns the accumulated record.  Benchmarks and examples build on
this object rather than re-wiring the parts.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bmp.collector import BmpCollector
from ..bmp.exporter import BmpExporter
from ..dataplane.fib import egress_interface
from ..dataplane.simulator import PopSimulator, TickResult
from ..measurement.altpath import AltPathMonitor
from ..measurement.pathmodel import PathModelConfig, PathPerformanceModel
from ..netbase.addr import Family, Prefix
from ..netbase.units import Rate, gbps
from ..obs.telemetry import Telemetry
from ..sflow.collector import SflowCollector
from ..topology.builder import WiredPop
from ..topology.scenarios import build_study_pop
from ..traffic.demand import DemandConfig, DemandModel
from .config import ControllerConfig
from .controller import EdgeFabricController
from .injector import BgpInjector
from .inputs import InputAssembler
from .monitoring import CycleReport

__all__ = [
    "TickSummary",
    "RunRecord",
    "CollectorResubscriber",
    "PopDeployment",
    "RESUBSCRIBE_BACKOFF",
]

#: Multiplier between successive collector resubscription attempts
#: (exponential backoff from ``resubscribe_initial_seconds``).
RESUBSCRIBE_BACKOFF = 2.0


class CollectorResubscriber:
    """Bounded retry-with-backoff repair for a stale BMP feed.

    Polled once per tick.  While the route feed is healthy this is one
    ``needs_resync`` check and one age comparison.  When the feed goes
    stale (or a collector reset demands a resync), it drives full-RIB
    re-exports — the BMP equivalent of reconnecting and receiving the
    initial dump — first immediately, then with exponential backoff.
    After ``resubscribe_max_attempts`` failures it raises an
    operator-facing gauge and keeps retrying at the capped interval, so
    a long outage is noisy but recovery is never abandoned.
    """

    def __init__(self, bmp, exporters, config, telemetry) -> None:
        self.bmp = bmp
        self.exporters = exporters
        self.config = config
        #: Attempts within the current outage (0 when healthy).
        self.attempts = 0
        self.total_attempts = 0
        self._next_attempt_at: Optional[float] = None
        self._resync_seen = False
        registry = telemetry.registry
        self._m_attempts = registry.counter(
            "bmp_resubscribe_attempts_total",
            "Full-RIB re-export attempts on a stale route feed",
        )
        self._m_exhausted = registry.gauge(
            "bmp_resubscribe_exhausted",
            "1 while retries have exceeded the attempt bound",
        )

    def poll(self, now: float) -> bool:
        """Check feed health; attempt repair if due.  True if attempted."""
        bmp = self.bmp
        stale = bmp.needs_resync or (
            bmp.age() > self.config.max_input_age_seconds
        )
        if not stale:
            if self.attempts:
                self.attempts = 0
                self._next_attempt_at = None
                self._m_exhausted.set(0)
            self._resync_seen = False
            return False
        if bmp.needs_resync and not self._resync_seen:
            # A *new* resync request means the feed's transport is back
            # (flap over, or a fresh collector) — attempt immediately
            # instead of waiting out backoff from the dead window.
            self._resync_seen = True
            self._next_attempt_at = None
        if self._next_attempt_at is not None and now < self._next_attempt_at:
            return False
        self.attempts += 1
        self.total_attempts += 1
        self._m_attempts.inc()
        if self.attempts > self.config.resubscribe_max_attempts:
            self._m_exhausted.set(1)
        needed_resync = bmp.needs_resync
        for exporter in self.exporters:
            exporter.export_full_rib()
        if needed_resync and bmp.age() <= self.config.max_input_age_seconds:
            bmp.mark_resynced()
        exponent = min(
            self.attempts - 1, self.config.resubscribe_max_attempts - 1
        )
        self._next_attempt_at = now + (
            self.config.resubscribe_initial_seconds
            * RESUBSCRIBE_BACKOFF ** exponent
        )
        return True


@dataclass(frozen=True)
class TickSummary:
    """Per-tick roll-up kept for the whole run."""

    time: float
    offered: Rate
    dropped: Rate
    detoured: Rate
    active_overrides: int


@dataclass
class RunRecord:
    """Everything a run accumulated."""

    ticks: List[TickSummary] = field(default_factory=list)
    cycle_reports: List[CycleReport] = field(default_factory=list)
    #: The run's :class:`~repro.obs.telemetry.Telemetry` (metrics,
    #: spans, decision audit), attached by :class:`PopDeployment` so
    #: experiments can persist telemetry alongside results.
    telemetry: Optional[Telemetry] = field(
        default=None, repr=False, compare=False
    )

    def total_dropped_bits(self, tick_seconds: float) -> float:
        return sum(
            t.dropped.bits_per_second * tick_seconds for t in self.ticks
        )

    def peak_detoured_fraction(self) -> float:
        fractions = (
            (t.detoured / t.offered) if t.offered else 0.0
            for t in self.ticks
        )
        return max(fractions, default=0.0)

    def detoured_fraction_series(self) -> List[tuple]:
        return [
            (
                t.time,
                (t.detoured / t.offered) if t.offered else 0.0,
            )
            for t in self.ticks
        ]


class PopDeployment:
    """A PoP with its full Edge Fabric stack."""

    def __init__(
        self,
        wired: WiredPop,
        demand: DemandModel,
        controller_config: ControllerConfig = ControllerConfig(),
        tick_seconds: float = 30.0,
        sampling_rate: int = 65536,
        estimator_window: float = 60.0,
        altpath_every_ticks: int = 0,
        altpath_prefix_count: int = 200,
        path_model_seed: int = 0,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
        faults=None,
        safety_checks: bool = False,
        health_checks: bool = False,
        slo_spec=None,
        wire_tap=None,
        external_ingest: bool = False,
    ) -> None:
        self.wired = wired
        self.demand = demand
        self.config = controller_config
        self.tick_seconds = tick_seconds
        self.current_time = 0.0
        #: Optional :class:`repro.faults.FaultInjector`.  ``None`` (the
        #: default) keeps every fault hook off the hot path.
        self.faults = faults
        #: Optional :class:`repro.io.capture.WireTap`: sees every byte
        #: the collectors consume (including the construction-time
        #: full-RIB export below) plus per-tick time/utilization frames,
        #: which is exactly what loopback replay needs to reproduce this
        #: deployment's decisions from sockets.
        self.wire_tap = wire_tap
        #: When True the deployment runs *without* in-process exporters
        #: or simulator feeding: all collector input arrives from the
        #: outside (the socket frontends), and :meth:`control_step`
        #: replaces :meth:`step`.
        self.external_ingest = external_ingest

        # One telemetry handle shared by every layer of the stack, so
        # the registry/tracer/audit views cover the whole tick path.
        self.telemetry = telemetry or Telemetry(name=wired.pop.name)
        self._m_ticks = self.telemetry.registry.counter(
            "pipeline_ticks_total", "Deployment steps taken"
        )
        self._m_tick_wall = self.telemetry.registry.histogram(
            "tick_wall_seconds", "Full step() wall time"
        )

        # Routes: exporters -> BMP collector (sim-clocked).  With a
        # fault injector attached, the sink detours through the flap
        # filter; without one, the collector's bound method feeds
        # directly — zero added indirection on the healthy path.
        self.bmp = BmpCollector(
            wired.registry,
            clock=lambda: self.current_time,
            telemetry=self.telemetry,
        )
        self._bmp_deliver = (
            self.bmp.feed if wire_tap is None else self._bmp_feed_tapped
        )
        sink = (
            self._bmp_deliver if faults is None else self._bmp_feed_faulted
        )
        self.exporters = (
            []
            if external_ingest
            else [
                BmpExporter(speaker, sink)
                for speaker in wired.speakers.values()
            ]
        )
        for exporter in self.exporters:
            exporter.export_full_rib()

        # Traffic: simulator's agents -> sFlow collector, resolved
        # against the BMP RIB.  The estimator window must span a whole
        # number of ticks: each tick feeds tick_seconds worth of bytes,
        # so a window shorter than two ticks would average one tick's
        # bytes over less time than they represent, inflating every
        # rate estimate by tick/window.
        effective_window = max(estimator_window, 2.0 * tick_seconds)
        self.sflow = SflowCollector(
            self._resolve_prefix,
            window_seconds=effective_window,
            telemetry=self.telemetry,
        )
        self.simulator = PopSimulator(
            wired,
            demand,
            tick_seconds=tick_seconds,
            sampling_rate=sampling_rate,
            seed=seed,
            telemetry=self.telemetry,
        )
        if faults is not None:
            self.simulator.datagram_filter = faults.filter_datagrams
        for router, agent in self.simulator.agents.items():
            self.sflow.register_router(
                router, agent.agent_address, agent.interfaces
            )

        # Measurement: the alternate-path monitor (paper §5).
        self.path_model = PathPerformanceModel(
            PathModelConfig(seed=path_model_seed)
        )
        self.altpath = AltPathMonitor(
            routes_of=lambda prefix: [
                route
                for route in self.bmp.routes_for(prefix)
                if not route.is_injected
            ],
            model=self.path_model,
            egress_interface_of=lambda route: egress_interface(
                wired.pop, route
            ),
            seed=seed,
        )
        self.altpath_every_ticks = altpath_every_ticks
        self.altpath_prefix_count = altpath_prefix_count
        # The sample store's declared bound, observable: keys <=
        # measured prefixes x measured ranks, samples <= keys x
        # max_samples_per_key (DESIGN.md §14).
        self._m_altpath_keys = self.telemetry.registry.gauge(
            "altpath_keys", "Measured (prefix, path) keys held"
        )
        self._m_altpath_samples = self.telemetry.registry.gauge(
            "altpath_samples_retained",
            "Flow samples retained across all alt-path keys",
        )

        # Control: injector + controller.
        self.injector = BgpInjector(
            wired.pop, wired.speakers, controller_config
        )
        self.assembler = InputAssembler(
            wired.pop, self.bmp, self.sflow, controller_config
        )
        self.controller = EdgeFabricController(
            self.assembler,
            self.injector,
            controller_config,
            altpath=self.altpath,
            telemetry=self.telemetry,
        )
        self.resubscriber = CollectorResubscriber(
            self.bmp, self.exporters, controller_config, self.telemetry
        )
        self.safety = None
        if safety_checks:
            from .safety import SafetyChecker

            self.safety = SafetyChecker(self.controller, self.bmp)
        #: Optional :class:`repro.obs.HealthEngine` — a pure observer
        #: fed after every controller cycle; steering is byte-identical
        #: with it on or off.
        self.health = None
        if health_checks:
            from ..obs.health import HealthEngine

            self.health = HealthEngine(
                spec=slo_spec,
                telemetry=self.telemetry,
                cycle_seconds=controller_config.cycle_seconds,
            )

        self.record = RunRecord(telemetry=self.telemetry)
        self._last_cycle_at: Optional[float] = None
        self._tick_index = 0
        self._resolve_cache: Dict = {}
        self._resolve_cache_version = -1

    # -- construction helper ------------------------------------------------------

    @classmethod
    def build(
        cls,
        pop_name: str = "pop-a",
        seed: int = 0,
        peak_total: Rate = gbps(260),
        demand_overrides: Optional[dict] = None,
        controller_config: ControllerConfig = ControllerConfig(),
        flash_events: tuple = (),
        **kwargs,
    ) -> "PopDeployment":
        """Build a canonical study-PoP deployment in one call."""
        wired = build_study_pop(pop_name, seed=seed)
        demand_kwargs = dict(seed=seed + 1, peak_total=peak_total)
        if demand_overrides:
            demand_kwargs.update(demand_overrides)
        demand = DemandModel(
            wired.internet.all_prefixes(),
            DemandConfig(**demand_kwargs),
            popular=wired.popular_prefixes(),
            flash_events=flash_events,
        )
        # Provision private capacity against the measured demand — as
        # operators do — leaving the spec's "tight" peers under-built.
        from ..topology.builder import provision_against_demand
        from ..topology.scenarios import study_pop_spec

        spec = study_pop_spec(pop_name, seed=seed)
        provision_against_demand(
            wired,
            demand.weight_of,
            expected_peak=peak_total,
            headroom=spec.private_headroom,
            tight_headroom=spec.tight_headroom,
            tight_peer_count=spec.tight_peer_count,
            seed=seed + 2,
        )
        return cls(wired, demand, controller_config, seed=seed, **kwargs)

    # -- plumbing ----------------------------------------------------------------

    def _bmp_feed_faulted(self, router: str, data: bytes) -> None:
        """BMP sink with the fault injector's flap filter in front."""
        if self.faults.drops_bmp(router):
            self.faults.note_bmp_dropped(router, len(data))
            return
        self._bmp_deliver(router, data)

    def _bmp_feed_tapped(self, router: str, data: bytes) -> None:
        """BMP sink that records the delivered bytes on the wire tap.

        Sits *after* the fault filter so the capture holds exactly what
        the collector consumed — replaying it reproduces the same RIB
        without re-running the fault plan.
        """
        self.wire_tap.on_bmp(router, data)
        self.bmp.feed(router, data)

    def _resolve_prefix(
        self, family: Family, address: int
    ) -> Optional[Prefix]:
        """LPM of a sampled destination against the BMP RIB, cached.

        The import policy rejects prefixes longer than /24 (v4) or /48
        (v6), so every address inside the same /24 (or /48) shares one
        longest-prefix match — the cache keys on that masked address.
        Any route change invalidates the whole cache (version check),
        keeping the shortcut exactly equivalent to a fresh LPM.
        """
        version = (
            self.bmp.stats.announcements
            + self.bmp.stats.withdrawals
            + self.bmp.stats.peer_downs
            + self.bmp.resets
        )
        if version != self._resolve_cache_version:
            self._resolve_cache.clear()
            self._resolve_cache_version = version
        granularity = 24 if family is Family.IPV4 else 48
        mask_bits = family.max_length - granularity
        key = (family, address >> mask_bits)
        try:
            return self._resolve_cache[key]
        except KeyError:
            pass
        host = Prefix.from_address(family, address, family.max_length)
        route = self.bmp.longest_match(host)
        prefix = route.prefix if route is not None else None
        self._resolve_cache[key] = prefix
        return prefix

    # -- live reconfiguration -----------------------------------------------------

    def set_interface_capacity(
        self, key, capacity: Rate, notify_controller: bool = True
    ) -> None:
        """Change an egress interface's capacity mid-experiment.

        Models capacity augments and failures (e.g. an IXP port brought
        down to half rate).  Updates both the dataplane's view and the
        controller's capacity table, as a production config push would.
        With ``notify_controller=False`` only the dataplane changes — a
        *silent* degradation nobody told the control plane about, which
        is exactly the blind spot fault injection needs to model.
        """
        from ..topology.entities import Interface

        router_name, interface_name = key
        router = self.wired.pop.routers[router_name]
        if interface_name not in router.interfaces:
            raise KeyError(f"unknown interface {key}")
        router.interfaces[interface_name] = Interface(
            router=router_name, name=interface_name, capacity=capacity
        )
        if notify_controller:
            self.assembler.set_capacity(key, capacity)

    # -- controller lifecycle (crash / restart) -----------------------------------

    def crash_controller(self, now: float) -> None:
        """Kill the controller mid-run.

        Its iBGP sessions drop, so every router flushes the injected
        routes on its own — traffic reverts to vanilla BGP without the
        controller sending a single withdrawal.  The controller object's
        in-memory state is flushed too; until
        :meth:`restart_controller`, no cycles run.
        """
        self.injector.teardown_sessions()
        self.controller.crash(now)
        # The assembler's maintained traffic table dies with the
        # process too; the restarted controller's first snapshot must
        # rebuild from the collectors, not resume a ghost delta chain.
        self.assembler.force_full_snapshot()

    def restart_controller(self, now: float) -> None:
        """Bring a crashed controller back.

        Sessions re-establish empty.  The next cycle re-derives the
        capacity overrides current inputs justify; performance detours
        return only as their steering keys re-trip (tiers, dwell
        counters and EWMAs did not survive the crash).
        """
        self.injector.reestablish_sessions()
        self._last_cycle_at = None

    # -- stepping -----------------------------------------------------------------

    def step(self, now: float, run_controller: bool = True) -> TickResult:
        """Advance the deployment one tick to time *now*."""
        step_started = _time.perf_counter()
        self.current_time = now
        faults = self.faults
        tap = self.wire_tap
        if tap is not None:
            tap.on_tick(now)
        if faults is not None:
            faults.on_tick(self, now)
        self._tick_index += 1
        result = self.simulator.tick(now)
        if tap is None:
            for datagrams in result.datagrams.values():
                self.sflow.feed_many(datagrams, now)
        else:
            # Record exactly the per-router batches the collector eats
            # (post fault filtering), one capture frame per feed_many
            # call, so replay reproduces the same float-summation order.
            for router, datagrams in result.datagrams.items():
                tap.on_sflow(router, datagrams)
                self.sflow.feed_many(datagrams, now)
        for exporter in self.exporters:
            exporter.heartbeat()

        self._control_phase(now, run_controller=run_controller)

        detoured = self._currently_detoured_rate(result)
        self.record.ticks.append(
            TickSummary(
                time=now,
                offered=result.total_offered(),
                dropped=result.total_dropped(),
                detoured=detoured,
                active_overrides=len(self.controller.overrides),
            )
        )
        wall = _time.perf_counter() - step_started
        self._m_ticks.inc()
        self._m_tick_wall.observe(wall)
        return result

    def _control_phase(
        self,
        now: float,
        run_controller: bool = True,
        utilization_of=None,
        ingest=None,
    ) -> Optional[CycleReport]:
        """The control half of a tick: resubscriber poll, due alt-path
        round, and (when a cycle is due) the controller cycle with
        safety/health observation.  Shared verbatim by the in-process
        :meth:`step` and the wire-fed :meth:`control_step`, which is
        what makes loopback replay decision-identical to simulation.
        """
        faults = self.faults
        util = (
            utilization_of
            if utilization_of is not None
            else self._current_utilization
        )
        self.resubscriber.poll(now)
        tap = self.wire_tap
        if tap is not None:
            # End-of-input marker for this tick: everything the control
            # phase may consume (including any resync re-export the
            # poll above just drove) is already on the tap.
            tap.on_util(now, self._utilization_snapshot())

        if (
            self.altpath_every_ticks
            and self._tick_index % self.altpath_every_ticks == 0
        ):
            targets = self.demand.top_prefixes(self.altpath_prefix_count)
            self.altpath.measure_round(targets, utilization_of=util)
            keys, samples = self.altpath.monitor.size()
            self._m_altpath_keys.set(keys)
            self._m_altpath_samples.set(samples)

        report = None
        if (
            run_controller
            and (faults is None or not faults.controller_down)
            and self._cycle_due(now)
        ):
            report = self.controller.run_cycle(now, utilization_of=util)
            self.record.cycle_reports.append(report)
            self._last_cycle_at = now
            if self.safety is not None:
                self.safety.check(now, report)
            if self.health is not None:
                self.health.on_cycle(
                    now,
                    report,
                    controller=self.controller,
                    bmp=self.bmp,
                    safety=self.safety,
                    utilization_of=util,
                    ingest=ingest,
                )
        return report

    def control_step(
        self,
        now: float,
        utilization_of=None,
        ingest=None,
    ) -> Optional[CycleReport]:
        """Advance one control tick at externally-fed time *now*.

        The wire-ingest engine calls this once per tick after draining
        its socket queues into the collectors: it is :meth:`step` minus
        the simulator — no synthetic traffic, no in-process exporter
        heartbeats.  *utilization_of* supplies egress-interface
        utilization (replay passes the captured snapshot; free-run
        serving usually has no dataplane and passes nothing, reading
        zero); *ingest* is the engine's stats view for the
        ``ingest_backpressure`` health signal.  Returns the cycle's
        report when a cycle ran.
        """
        step_started = _time.perf_counter()
        self.current_time = now
        self._tick_index += 1
        report = self._control_phase(
            now,
            run_controller=True,
            utilization_of=utilization_of,
            ingest=ingest,
        )
        wall = _time.perf_counter() - step_started
        self._m_ticks.inc()
        self._m_tick_wall.observe(wall)
        return report

    def _utilization_snapshot(self) -> Dict:
        """Current utilization of every egress interface, for capture."""
        snapshot: Dict = {}
        utilization_at = self.simulator.metrics.utilization_at
        for router_name, router in self.wired.pop.routers.items():
            for interface_name in router.interfaces:
                key = (router_name, interface_name)
                snapshot[key] = utilization_at(key, self.current_time)
        return snapshot

    def _cycle_due(self, now: float) -> bool:
        if self._last_cycle_at is None:
            return True
        return (
            now - self._last_cycle_at
            >= self.config.cycle_seconds - 1e-9
        )

    def _current_utilization(self, key) -> float:
        return self.simulator.metrics.utilization_at(
            key, self.current_time
        )

    def _currently_detoured_rate(self, result: TickResult) -> Rate:
        """Measured rate of traffic that actually followed injected routes."""
        total = 0.0
        for prefix in self.controller.overrides.active():
            route = result.assignments.get(prefix)
            if route is not None and route.is_injected:
                total += self.sflow.prefix_rate(
                    prefix, self.current_time
                ).bits_per_second
        # Traffic split off by injected more-specifics (the dataplane
        # tracks its exact diverted rate per tick).
        for diverted in result.splits.values():
            for _route, rate in diverted:
                total += rate.bits_per_second
        return Rate(total)

    # -- whole runs ------------------------------------------------------------------

    def run(
        self,
        start: float,
        duration: float,
        run_controller: bool = True,
    ) -> RunRecord:
        """Run from *start* for *duration* seconds."""
        now = start
        end = start + duration
        while now < end:
            self.step(now, run_controller=run_controller)
            now += self.tick_seconds
        return self.record
