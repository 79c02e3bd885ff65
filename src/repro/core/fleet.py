"""Fleet orchestration: Edge Fabric across many PoPs.

The paper deploys one controller instance per PoP, with no cross-PoP
coordination — each PoP's egress problem is local.  The fleet runner
mirrors that: independent :class:`PopDeployment` instances stepped in
lockstep, plus deployment-wide aggregation (the paper's "across N PoPs"
numbers).
"""

from __future__ import annotations

import gc
import multiprocessing
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import ControllerConfig
from ..netbase.units import Rate, gbps
from ..obs.logs import get_logger, log_event
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import Telemetry, merge_registries
from ..topology.builder import build_pop, provision_against_demand
from ..topology.scenarios import default_internet, fleet_specs
from ..traffic.demand import DemandConfig, DemandModel
from .pipeline import PopDeployment, RunRecord

__all__ = ["FleetDeployment"]

_log = get_logger("repro.core.fleet")


@dataclass
class _PopRunState:
    """The picklable result of one PoP's run in a worker process.

    Deployments themselves hold closures (clocks, resolvers) and cannot
    cross a process boundary; everything aggregation reads can.
    """

    record: RunRecord
    monitor: object
    overrides: object
    metrics: object
    telemetry: Telemetry
    current_time: float
    #: Safety findings and the fault injector's action log, merged back
    #: so chaos fleets aggregate identically to serial runs.
    safety_violations: List = field(default_factory=list)
    fault_actions: List = field(default_factory=list)
    #: The override aggregator, health engine and steering engine (all
    #: plain picklable data); None where the PoP runs without them.
    aggregator: object = None
    health: object = None
    steering: object = None


def _capture_state(deployment: PopDeployment) -> _PopRunState:
    """Everything aggregation/reporting reads, in picklable form."""
    return _PopRunState(
        record=deployment.record,
        monitor=deployment.controller.monitor,
        overrides=deployment.controller.overrides,
        metrics=deployment.simulator.metrics,
        telemetry=deployment.telemetry,
        current_time=deployment.current_time,
        safety_violations=(
            list(deployment.safety.violations) if deployment.safety else []
        ),
        fault_actions=(
            list(deployment.faults.log) if deployment.faults else []
        ),
        aggregator=deployment.controller.aggregator,
        health=deployment.health,
        steering=deployment.controller.steering,
    )


def _pool_worker(connection, fleet: "FleetDeployment", names) -> None:
    """One persistent fork worker: owns *names*' deployments for life.

    It inherits their live routing/dataplane state at fork time and keeps
    it across commands: ``run`` steps the partition exactly as serial
    stepping would, ``collect`` pickles its state back, ``stop`` exits.
    """
    # Inherited objects are long-lived: freezing them keeps this process's
    # collector from faulting in the parent's whole heap copy-on-write.
    gc.freeze()
    deployments = fleet.deployments
    while True:
        command = connection.recv()
        op = command[0]
        if op == "run":
            start, duration, run_controller = command[1:]
            for name in names:
                deployments[name].run(
                    start, duration, run_controller=run_controller
                )
            connection.send(("ran", len(names)))
        elif op == "collect":
            connection.send(
                (
                    "state",
                    [
                        (name, _capture_state(deployments[name]))
                        for name in names
                    ],
                )
            )
        elif op == "stop":
            connection.send(("stopped", None))
            connection.close()
            return
        else:  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unknown pool command {op!r}")


def _shutdown_pool(processes, connections) -> None:
    """Best-effort worker teardown (close_pool and GC finalizer)."""
    for connection in connections:
        try:
            connection.send(("stop",))
        except (OSError, ValueError):
            pass
    for process in processes:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
    for connection in connections:
        try:
            connection.close()
        except OSError:
            pass


class _WorkerPool:
    """Long-lived fork workers, each owning a partition of the PoPs."""

    def __init__(self, fleet: "FleetDeployment", workers: int, context):
        names = sorted(fleet.deployments)
        partitions = [names[index::workers] for index in range(workers)]
        self.connections: List = []
        self.processes: List = []
        for partition in partitions:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_pool_worker,
                args=(child_end, fleet, partition),
                daemon=True,
            )
            process.start()
            child_end.close()
            self.connections.append(parent_end)
            self.processes.append(process)
        # The fleet must never keep its workers alive past its own
        # lifetime; the finalizer must not capture the pool (or fleet).
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self.processes, self.connections
        )

    def command(self, command: Tuple) -> List:
        """Broadcast one command, returning every worker's payload."""
        for connection in self.connections:
            connection.send(command)
        replies = []
        for process, connection in zip(self.processes, self.connections):
            try:
                replies.append(connection.recv())
            except EOFError:
                raise RuntimeError(
                    f"fleet pool worker pid={process.pid} died "
                    f"mid-command {command[0]!r}"
                ) from None
        return [payload for _status, payload in replies]

    def stop(self) -> None:
        self._finalizer()


@dataclass
class FleetDeployment:
    """Independent per-PoP deployments, stepped together."""

    deployments: Dict[str, PopDeployment]
    tick_seconds: float
    #: Fleet-level telemetry (orchestration concerns only — per-PoP
    #: registries stay untouched so serial/parallel byte-equality of
    #: per-PoP telemetry is preserved).
    telemetry: Telemetry = field(
        default_factory=lambda: Telemetry(name="fleet"),
        repr=False,
        compare=False,
    )
    _pool: Optional[_WorkerPool] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Set by :meth:`close_pool`: the workers held the live routing
    #: state and are gone, so the fleet can be read but not stepped.
    _closed: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._m_parallel_fallback = self.telemetry.registry.counter(
            "fleet_parallel_fallback_total",
            "Parallel fleet runs degraded to serial (fork unavailable)",
        )

    @classmethod
    def build(
        cls,
        pop_count: int = 4,
        seed: int = 0,
        tick_seconds: float = 60.0,
        controller_config: Optional[ControllerConfig] = None,
        sampling_rate: int = 131_072,
        fault_plans: Optional[Dict[str, object]] = None,
        safety_checks: bool = False,
        health_checks: bool = False,
        slo_spec: object = None,
    ) -> "FleetDeployment":
        """Build *pop_count* PoPs over one shared synthetic Internet.

        Each PoP gets its own demand (different seeds: PoPs serve
        different regions with offset peaks) and its own controller.

        *fault_plans* maps PoP name (``pop-00`` ...) to a
        :class:`~repro.faults.FaultPlan`; listed PoPs get their own
        :class:`~repro.faults.FaultInjector` while the rest run clean.
        """
        internet = default_internet(seed)
        prefixes = internet.all_prefixes()
        config = controller_config or ControllerConfig(
            cycle_seconds=tick_seconds
        )
        deployments: Dict[str, PopDeployment] = {}
        for index, pop_spec in enumerate(fleet_specs(pop_count, seed)):
            wired = build_pop(pop_spec, internet)
            peak = pop_spec.expected_peak or gbps(160)
            demand = DemandModel(
                prefixes,
                DemandConfig(
                    seed=seed + 100 + index,
                    peak_total=peak,
                    # Regional peaks: offset each PoP by ~90 minutes.
                    peak_time=(64_800.0 + index * 5_400.0) % 86_400.0,
                ),
                popular=wired.popular_prefixes(),
            )
            provision_against_demand(
                wired,
                demand.weight_of,
                expected_peak=peak,
                headroom=pop_spec.private_headroom,
                tight_headroom=pop_spec.tight_headroom,
                tight_peer_count=pop_spec.tight_peer_count,
                seed=seed + 200 + index,
            )
            faults = None
            if fault_plans and pop_spec.name in fault_plans:
                from ..faults.harness import FaultInjector

                faults = FaultInjector(fault_plans[pop_spec.name])
            deployments[pop_spec.name] = PopDeployment(
                wired,
                demand,
                controller_config=config,
                tick_seconds=tick_seconds,
                sampling_rate=sampling_rate,
                seed=seed + 300 + index,
                faults=faults,
                safety_checks=safety_checks,
                health_checks=health_checks,
                slo_spec=slo_spec,
            )
        return cls(deployments=deployments, tick_seconds=tick_seconds)

    # -- stepping ---------------------------------------------------------------

    def _refuse_if_closed(self) -> None:
        if self._closed:
            raise RuntimeError(
                "fleet's worker pool was closed — its PoPs' live routing "
                "state died with the workers, so the fleet is final: "
                "read it, but build a new fleet to keep stepping"
            )

    def step(self, now: float, run_controller: bool = True) -> None:
        self._refuse_if_closed()
        if self._pool is not None:
            raise RuntimeError(
                "fleet has a live worker pool — its PoPs' state lives in "
                "the workers; use run(parallel=...), then close_pool()"
            )
        for deployment in self.deployments.values():
            deployment.step(now, run_controller=run_controller)

    def run(
        self,
        start: float,
        duration: float,
        run_controller: bool = True,
        parallel: Optional[int] = None,
        sync: bool = True,
    ) -> None:
        """Run every PoP from *start* for *duration* seconds.

        With ``parallel=N`` (N > 1), PoPs are stepped in up to N worker
        processes.  PoPs share no mutable state, so each worker's run is
        identical to its slice of the serial loop and the merged results
        (records, monitors, override sets, metrics, telemetry) match the
        serial run exactly.

        The pool is *persistent*: workers are forked once and keep their
        deployments' live state, so successive ``run`` calls continue
        the simulation exactly as serial stepping would.  ``sync=False``
        defers the state pickle-back until :meth:`collect`.

        Without the fork start method the run degrades to the serial
        loop, loudly: a ``fleet.parallel_fallback`` log line plus the
        ``fleet_parallel_fallback_total`` counter on fleet telemetry.
        """
        self._refuse_if_closed()
        if parallel and parallel > 1 and len(self.deployments) > 1:
            worker_pool = self._ensure_pool(parallel)
            if worker_pool is not None:
                worker_pool.command(
                    ("run", start, duration, run_controller)
                )
                if sync:
                    self.collect()
                return
            self._m_parallel_fallback.inc()
            log_event(
                _log,
                "fleet.parallel_fallback",
                requested_workers=parallel,
                pops=len(self.deployments),
                reason="fork start method unavailable",
            )
        now = start
        while now < start + duration:
            self.step(now, run_controller=run_controller)
            now += self.tick_seconds

    # -- the persistent pool -----------------------------------------------------

    def _ensure_pool(self, workers: int) -> Optional[_WorkerPool]:
        """The live worker pool, forked on first use (None: no fork)."""
        if self._pool is not None:
            return self._pool
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        workers = min(workers, len(self.deployments))
        self._pool = _WorkerPool(self, workers, context)
        return self._pool

    def collect(self) -> None:
        """Pull worker state into the parent deployments (pool only).

        Safe to call repeatedly; afterwards every record/monitor/
        telemetry/override accessor reflects the workers' progress."""
        if self._pool is None:
            return
        for states in self._pool.command(("collect",)):
            for name, state in states:
                self._merge_state(name, state)

    def close_pool(self) -> None:
        """Stop the pool's workers, collecting their final state first.

        The merge carries back what aggregation reads, not the live
        routing state (RIBs, injected routes, collectors, estimator
        windows, projection), so the fleet is final afterwards: the
        accessors keep working, :meth:`step` and :meth:`run` raise.
        """
        if self._pool is None:
            return
        self.collect()
        pool, self._pool = self._pool, None
        pool.stop()
        self._closed = True

    def _merge_state(self, name: str, state: _PopRunState) -> None:
        deployment = self.deployments[name]
        deployment.record = state.record
        deployment.controller.monitor = state.monitor
        deployment.controller.overrides = state.overrides
        deployment.controller.aggregator = state.aggregator
        deployment.simulator.metrics = state.metrics
        # The worker's telemetry (registry, spans, audit trail) replaces
        # the parent's pre-run copy wholesale, like the record above.
        deployment.telemetry = state.telemetry
        deployment.controller.telemetry = state.telemetry
        deployment.current_time = state.current_time
        if deployment.safety is not None:
            deployment.safety.violations = state.safety_violations
        if deployment.faults is not None:
            deployment.faults.log = state.fault_actions
        if state.health is not None:
            deployment.health = state.health
        if state.steering is not None:
            deployment.controller.steering = state.steering

    # -- aggregation ----------------------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """One fleet-wide registry: every PoP's series, labelled by PoP.

        Identical after serial and pooled runs (workers carry their
        telemetry back through :meth:`collect`)."""
        return merge_registries(
            (name, self.deployments[name].telemetry.registry)
            for name in sorted(self.deployments)
        )

    def total_offered(self) -> Rate:
        return Rate(
            sum(
                deployment.record.ticks[-1].offered.bits_per_second
                for deployment in self.deployments.values()
                if deployment.record.ticks
            )
        )

    def safety_violations(self) -> Dict[str, List]:
        """Per-PoP safety-checker findings (only checked PoPs appear)."""
        return {
            name: list(deployment.safety.violations)
            for name, deployment in sorted(self.deployments.items())
            if deployment.safety is not None
        }

    def firing_alerts(self) -> Dict[str, List]:
        """Per-PoP alerts currently firing (PoPs with none are omitted)."""
        out: Dict[str, List] = {}
        for name, deployment in sorted(self.deployments.items()):
            if deployment.health is None:
                continue
            firing = deployment.health.firing_alerts()
            if firing:
                out[name] = firing
        return out
