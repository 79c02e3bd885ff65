"""The two things the benchmark drives: a wire-fed PoP and the study PoP.

:class:`WirePop` assembles the control stack from public pieces exactly
as :class:`repro.core.scale.ScaleScenario` does — but every input it is
given is wire bytes, handed to the two calls the ``repro.io`` frontends
make after ``recv_into``: ``BmpCollector.feed(router, bytes)`` and
``SflowCollector.feed_many(views, now, lenient=True)``.
:class:`SimPop` steps the in-process study PoP.

Both expose ``setup()`` (restart-to-first-decision) and ``tick(k)`` (one
control period's work, timed) and check every tick's outputs; a tick
with any failure string is a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.bgp.messages import decode_stream
from repro.bmp.collector import BmpCollector
from repro.bmp.messages import RouteMonitoringMessage, decode_bmp_at
from repro.core.config import ControllerConfig
from repro.core.controller import EdgeFabricController
from repro.core.injector import BgpInjector
from repro.core.inputs import InputAssembler
from repro.core.pipeline import PopDeployment
from repro.core.projection import IncrementalProjection
from repro.core.safety import SafetyChecker
from repro.netbase.addr import Family, Prefix
from repro.obs.telemetry import Telemetry
from repro.sflow.collector import SflowCollector
from repro.sflow.datagram import iter_sample_fields
from repro.sflow.estimator import DEFAULT_CHANGE_LOG_LIMIT

from spans import Tracer
from wiregen import AGENT_ADDRESS, CYCLE_SECONDS, EPOCH, Corpus, TickInput


#: Longest prefix the import policy admits, per family: every address
#: inside one such block shares a longest match.
_GRANULARITY = {Family.IPV4: 24, Family.IPV6: 48}


@dataclass
class TickRecord:
    """What one timed tick cost and did."""

    wall: float
    cpu: float
    samples: int
    routes: int
    decision_path: str
    failures: List[str] = field(default_factory=list)
    #: Counts the per-layer metrics divide by (traced or not, they are
    #: read off the program's own counters after the clock stops).
    messages: int = 0
    datagrams: int = 0
    detours: int = 0
    changes: int = 0
    installed: int = 0
    injector_updates: int = 0
    perf_moves: int = 0
    #: Seconds of the off-clock full collection after this tick, if any.
    gc: float = 0.0


def collect_garbage(k: int) -> float:
    """Full garbage collection after the last tick of every epoch, off
    the tick clock; returns the seconds it took (0.0 on other ticks).

    Left to itself the interpreter runs a full collection on about one
    tick in twenty of ``pop_sim`` — right at the 95th percentile, so
    ``tick_ms_p95`` would flip between two classes of tick from run to
    run.  The runner therefore turns automatic full collections off
    while ticks run and the stacks make them here, where no tick pays;
    what one costs is reported as ``bench.gc_ms_p50``, and a change that
    grows the heap shows there and in ``peak_rss_mb``.  Young
    generations stay automatic and on the clock."""
    if k % EPOCH != EPOCH - 1 or k < 0:
        return 0.0
    started = time.perf_counter()
    gc.collect()
    return time.perf_counter() - started


def _decision_fields(report, controller) -> str:
    """The discrete decision fields of one cycle (no floats, so the
    digest is stable across CPUs)."""
    return repr(
        (
            report.decision_path,
            report.detour_count,
            report.announced,
            report.withdrawn,
            report.kept,
            report.installed_overrides,
            report.overloaded_interfaces,
            [str(prefix) for prefix in controller.installed_prefixes()],
        )
    )


def _wrap_controller(tracer: Tracer, controller, assembler, injector):
    """Interpose spans on the once-per-cycle calls the controller makes
    on its collaborators, on the instances the harness built."""
    tracer.wrap(
        assembler,
        "snapshot",
        "core.inputs.snapshot",
        attrs=lambda inputs: {
            "dirty": None
            if inputs.dirty_prefixes is None
            else len(inputs.dirty_prefixes)
        },
    )
    tracer.wrap(controller.allocator, "allocate", "core.allocator.allocate")
    if controller.steering is not None:
        tracer.wrap(controller.steering, "run", "core.steering.run")
    tracer.wrap(controller.overrides, "reconcile", "core.overrides.reconcile")
    if controller.aggregator is not None:
        tracer.wrap(
            controller.aggregator, "reconcile", "core.aggregate.reconcile"
        )
    tracer.wrap(injector, "apply", "core.injector.apply")
    tracer.wrap(
        controller.telemetry.audit, "record_cycle", "obs.audit.record_cycle"
    )
    tracer.wrap(controller, "run_cycle", "core.controller.run_cycle")
    # The projection is created lazily inside the first cycle, so its
    # spans are patched on the class (once per process).
    tracer.wrap_class(
        IncrementalProjection, "apply", "core.projection.apply"
    )
    tracer.wrap_class(
        IncrementalProjection, "rebuild", "core.projection.rebuild"
    )


class WirePop:
    """A PoP whose every input arrives as BMP and sFlow wire bytes."""

    def __init__(
        self, corpus: Corpus, tracer: Optional[Tracer] = None
    ) -> None:
        self.corpus = corpus
        self.tracer = tracer
        plan = corpus.plan
        scale_pop = plan.build_pop()
        self.router = plan.router
        self.now = 0.0
        # The ScaleConfig.full_table controller shape.
        config = ControllerConfig(
            cycle_seconds=CYCLE_SECONDS,
            max_input_age_seconds=corpus.window_seconds,
            incremental_engine=True,
            aggregate_overrides=True,
            audit_keep_events=False,
        )
        self.telemetry = Telemetry(name="e2e")
        self.bmp = BmpCollector(
            scale_pop.registry,
            clock=lambda: self.now,
            telemetry=self.telemetry,
        )
        self.resolver_calls = 0
        self._resolve_cache: dict = {}
        self._resolve_version = -1
        self.sflow = SflowCollector(
            self._resolve,
            window_seconds=corpus.window_seconds,
            telemetry=self.telemetry,
            change_log_limit=max(DEFAULT_CHANGE_LOG_LIMIT, 2 * len(plan)),
        )
        self.sflow.register_router(
            self.router, AGENT_ADDRESS, plan.interfaces
        )
        self.injector = BgpInjector(
            scale_pop.pop, scale_pop.speakers, config
        )
        self.assembler = InputAssembler(
            scale_pop.pop, self.bmp, self.sflow, config
        )
        self.controller = EdgeFabricController(
            self.assembler, self.injector, config, telemetry=self.telemetry
        )
        self.safety = SafetyChecker(self.controller, self.bmp)
        self.digest = hashlib.sha256()
        #: Crash-to-first-decision wall of the controller_restart tick.
        self.restart_seconds = 0.0
        self.sflow_decode_errors = 0
        self._violations_seen = 0
        if tracer is not None:
            tracer.wrap(self.bmp, "feed", "bmp.feed")
            tracer.wrap(self.sflow, "feed_many", "sflow.feed_many")
            tracer.wrap(self.safety, "check", "core.safety.check")
            _wrap_controller(
                tracer, self.controller, self.assembler, self.injector
            )

    def _resolve(self, family: Family, address: int) -> Optional[Prefix]:
        """LPM of a sampled destination against the BMP RIB, with the
        cache ``PopDeployment._resolve_prefix`` keeps: one entry per
        /24 (v4) or /48 (v6), dropped whole on any route change."""
        self.resolver_calls += 1
        stats = self.bmp.stats
        version = (
            stats.announcements
            + stats.withdrawals
            + stats.peer_downs
            + self.bmp.resets
        )
        if version != self._resolve_version:
            self._resolve_cache.clear()
            self._resolve_version = version
        key = (family, address >> (family.max_length - _GRANULARITY[family]))
        try:
            return self._resolve_cache[key]
        except KeyError:
            pass
        route = self.bmp.longest_match(
            Prefix.from_address(family, address, family.max_length)
        )
        prefix = None if route is None else route.prefix
        self._resolve_cache[key] = prefix
        return prefix

    # -- driving ---------------------------------------------------------------

    def setup(self) -> TickRecord:
        """Feed the full-RIB dump and the first traffic window, then
        complete the cold first cycle."""
        return self._run(-1, self.corpus.setup, 0.0)

    def tick(self, k: int) -> TickRecord:
        return self._run(k, self.corpus.ticks[k], (k + 1) * CYCLE_SECONDS)

    def _counters(self) -> tuple:
        """The program's own running counts a tick is checked against."""
        stats, sflow, injector = self.bmp.stats, self.sflow, self.injector
        return (
            stats.announcements,
            stats.withdrawals,
            stats.peer_downs,
            stats.messages,
            sflow.samples,
            sflow.datagrams,
            injector.announced_updates + injector.withdrawn_updates,
        )

    def _run(self, k: int, tick: TickInput, now: float) -> TickRecord:
        bmp, sflow, stats = self.bmp, self.sflow, self.bmp.stats
        before = self._counters()
        tracer = self.tracer
        if tracer is not None:
            tracer.open("tick", k)
        cpu_started = time.process_time()
        started = time.perf_counter()
        self.now = now
        if tick.event == "collector_reset":
            bmp.reset()
        framed = True
        for chunk in tick.bmp:
            framed = bmp.feed(self.router, chunk) and framed
        if tick.event == "collector_reset":
            bmp.mark_resynced()
        fed = sflow.feed_many(tick.sflow, now, lenient=True)
        if tick.event == "controller_restart":
            # PopDeployment.crash_controller + restart_controller.
            restart_started = time.perf_counter()
            self.injector.teardown_sessions()
            self.controller.crash(now)
            self.assembler.force_full_snapshot()
            self.injector.reestablish_sessions()
        report = self.controller.run_cycle(now)
        if tick.event == "controller_restart":
            self.restart_seconds = time.perf_counter() - restart_started
        self.safety.check(now, report)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        if tracer is not None:
            tracer.close(started, started + wall)
            if k >= 0:
                self._replay_codecs(k, tick)

        self.sflow_decode_errors += fed.decode_errors
        expect = tick.expect
        *got, injector_updates = (
            a - b for a, b in zip(self._counters(), before)
        )
        got = tuple(got)
        want = (
            expect.announcements,
            expect.withdrawals,
            expect.peer_downs,
            expect.messages,
            expect.samples,
            expect.datagrams,
        )
        failures = []
        if got != want:
            failures.append(
                "conservation: (announcements, withdrawals, peer_downs, "
                f"messages, samples, datagrams) applied {got}, "
                f"generated {want}"
            )
        if not framed or stats.decode_errors or stats.unknown_peers:
            failures.append(
                f"bmp: framed={framed} decode_errors={stats.decode_errors} "
                f"unknown_peers={stats.unknown_peers}"
            )
        if fed.decode_errors or fed.unknown_agents or sflow.unroutable_bytes:
            failures.append(
                f"sflow: decode_errors={fed.decode_errors} "
                f"unknown_agents={fed.unknown_agents} "
                f"unroutable_bytes={sflow.unroutable_bytes}"
            )
        if bmp.prefix_count() != len(self.corpus.plan):
            failures.append(
                f"rib holds {bmp.prefix_count()} prefixes, plan has "
                f"{len(self.corpus.plan)}"
            )
        if report.skipped:
            failures.append(f"cycle skipped: {report.skip_reason}")
        new_violations = self.safety.violations[self._violations_seen :]
        self._violations_seen = len(self.safety.violations)
        failures += [
            f"safety: {v.invariant} {v.subject}" for v in new_violations
        ]
        self.digest.update(
            _decision_fields(report, self.controller).encode()
        )
        gc_seconds = collect_garbage(k)
        return TickRecord(
            wall=wall,
            cpu=cpu,
            samples=got[4],
            routes=got[0] + got[1],
            decision_path=report.decision_path,
            failures=failures,
            messages=got[3],
            datagrams=got[5],
            detours=report.detour_count,
            changes=report.announced + report.withdrawn,
            installed=report.installed_overrides,
            injector_updates=injector_updates,
            gc=gc_seconds,
        )

    def _replay_codecs(self, k: int, tick: TickInput) -> None:
        """Codec-only cost: the tick's same bytes through the decoders
        alone, outside the tick clock (traced runs only)."""
        tracer = self.tracer
        started = time.perf_counter()
        for view in tick.sflow:
            _agent, samples = iter_sample_fields(view)
            for _sample in samples:
                pass
        tracer.add("codec.sflow", k, started, time.perf_counter())
        stream = b"".join(tick.bmp)
        started = time.perf_counter()
        offset = 0
        while offset < len(stream):
            message, consumed = decode_bmp_at(stream, offset)
            offset += consumed
            if isinstance(message, RouteMonitoringMessage):
                decode_stream(message.update_pdu)
        tracer.add("codec.bmp", k, started, time.perf_counter())

    def layer_counts(self) -> dict:
        return {
            "bmp.decode_errors": self.bmp.stats.decode_errors,
            "bgp.rib_prefixes": self.bmp.prefix_count(),
            "sflow.resolver_calls": self.resolver_calls,
            "sflow.decode_errors": self.sflow_decode_errors,
            "sflow.unroutable_bytes": self.sflow.unroutable_bytes,
            "core.inputs.full_snapshots": self.assembler.full_snapshots,
            "core.safety.violations": len(self.safety.violations),
            "obs.health.alerts_firing": 0,
        }


class SimPop:
    """The in-process study PoP: topology, demand, dataplane, agents,
    exporters, measurement, steering and health — the path the paper
    experiments and most of tier-1 run."""

    #: 30 s ticks from the diurnal peak.
    START = 64_800.0
    #: The study PoP is one fixed object (topology, demand, provisioning,
    #: packet sampling); ``--seed`` draws the path-performance noise the
    #: alt-path measurements and so the steering decisions see.  Tick
    #: cost differs by 10 % between PoPs built from different seeds,
    #: which would read as run-to-run spread.
    STUDY_SEED = 7

    def __init__(
        self,
        seed: int,
        altpath_prefix_count: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.seed = seed
        self.altpath_prefix_count = altpath_prefix_count
        self.tracer = tracer
        self.deployment: Optional[PopDeployment] = None
        self.digest = hashlib.sha256()
        self.restart_seconds = 0.0
        self._violations_seen = 0

    def setup(self) -> TickRecord:
        tracer = self.tracer
        if tracer is not None:
            tracer.open("tick", -1)
        cpu_started = time.process_time()
        started = time.perf_counter()
        deployment = PopDeployment.build(
            "pop-a",
            seed=self.STUDY_SEED,
            path_model_seed=self.seed,
            controller_config=ControllerConfig(performance_aware=True),
            altpath_every_ticks=1,
            altpath_prefix_count=self.altpath_prefix_count,
            safety_checks=True,
            health_checks=True,
        )
        self.deployment = deployment
        if tracer is not None:
            tracer.wrap(deployment.simulator, "tick", "dataplane.tick")
            tracer.wrap(deployment.sflow, "feed_many", "sflow.feed_many")
            tracer.wrap(
                deployment.altpath,
                "measure_round",
                "measurement.altpath.round",
            )
            tracer.wrap(deployment.safety, "check", "core.safety.check")
            tracer.wrap(deployment.health, "on_cycle", "obs.health.on_cycle")
            _wrap_controller(
                tracer,
                deployment.controller,
                deployment.assembler,
                deployment.injector,
            )
        return self._step(-1, started, cpu_started)

    def tick(self, k: int) -> TickRecord:
        if self.tracer is not None:
            self.tracer.open("tick", k)
        return self._step(k, time.perf_counter(), time.process_time())

    def _step(
        self, k: int, started: float, cpu_started: float
    ) -> TickRecord:
        now = self.START + (k + 1) * CYCLE_SECONDS
        deployment = self.deployment
        sflow, stats = deployment.sflow, deployment.bmp.stats
        injector = deployment.injector
        before = (
            sflow.samples,
            sflow.datagrams,
            stats.announcements + stats.withdrawals,
            stats.messages,
            injector.announced_updates + injector.withdrawn_updates,
            len(deployment.record.cycle_reports),
        )
        deployment.step(now)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        if self.tracer is not None:
            self.tracer.close(started, started + wall)

        failures = []
        reports = deployment.record.cycle_reports
        if len(reports) != before[5] + 1:
            failures.append("no controller cycle ran this tick")
            report = None
        else:
            report = reports[-1]
            if report.skipped:
                failures.append(f"cycle skipped: {report.skip_reason}")
            self.digest.update(
                _decision_fields(report, deployment.controller).encode()
            )
        if stats.decode_errors or stats.unknown_peers:
            failures.append(
                f"bmp: decode_errors={stats.decode_errors} "
                f"unknown_peers={stats.unknown_peers}"
            )
        violations = deployment.safety.violations
        failures += [
            f"safety: {v.invariant} {v.subject}"
            for v in violations[self._violations_seen :]
        ]
        self._violations_seen = len(violations)
        gc_seconds = collect_garbage(k)
        return TickRecord(
            wall=wall,
            cpu=cpu,
            samples=sflow.samples - before[0],
            routes=stats.announcements + stats.withdrawals - before[2],
            decision_path=report.decision_path if report else "",
            failures=failures,
            messages=stats.messages - before[3],
            datagrams=sflow.datagrams - before[1],
            detours=report.detour_count if report else 0,
            changes=(report.announced + report.withdrawn) if report else 0,
            installed=report.installed_overrides if report else 0,
            injector_updates=injector.announced_updates
            + injector.withdrawn_updates
            - before[4],
            perf_moves=report.perf_moves if report else 0,
            gc=gc_seconds,
        )

    def layer_counts(self) -> dict:
        deployment = self.deployment
        return {
            "bmp.decode_errors": deployment.bmp.stats.decode_errors,
            "bgp.rib_prefixes": deployment.bmp.prefix_count(),
            "sflow.resolver_calls": 0,
            "sflow.decode_errors": 0,
            "sflow.unroutable_bytes": deployment.sflow.unroutable_bytes,
            "core.inputs.full_snapshots": deployment.assembler.full_snapshots,
            "core.safety.violations": len(deployment.safety.violations),
            "obs.health.alerts_firing": len(
                deployment.health.firing_alerts()
            ),
        }
