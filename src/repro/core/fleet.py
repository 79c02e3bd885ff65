"""Fleet orchestration: Edge Fabric across many PoPs.

The paper deploys one controller instance per PoP, with no cross-PoP
coordination — each PoP's egress problem is local.  The fleet runner
mirrors that: independent :class:`PopDeployment` instances stepped in
lockstep, plus deployment-wide aggregation (the paper's "across N PoPs"
numbers).
"""

from __future__ import annotations

import multiprocessing
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..analysis.report import Table
from ..core.config import ControllerConfig
from ..netbase.substrate import FrozenTable
from ..netbase.units import Rate, gbps
from ..obs.logs import get_logger, log_event
from ..obs.metrics import MetricsRegistry, process_rss_bytes
from ..obs.telemetry import Telemetry, merge_registries
from ..topology.builder import PopSpec, build_pop, provision_against_demand
from ..topology.internet import InternetConfig, InternetTopology
from ..topology.scenarios import default_internet, fleet_specs
from ..traffic.demand import DemandConfig, DemandModel
from .pipeline import PopDeployment, RunRecord

__all__ = ["FleetDeployment", "FleetBuildSpec"]

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
    #: Safety-checker findings (plain frozen dataclasses) and the fault
    #: injector's applied-action log — both picklable, both merged back
    #: so chaos fleets aggregate identically to serial runs.
    safety_violations: List = field(default_factory=list)
    fault_actions: List = field(default_factory=list)
    #: The override aggregator (installed table + plan), when the
    #: controller runs with aggregated injection; None otherwise.
    aggregator: object = None
    #: The PoP's :class:`~repro.obs.HealthEngine` (plain picklable
    #: data), when health checks are on; None otherwise.
    health: object = None
    #: The PoP's :class:`~repro.core.SteeringEngine` (no closures —
    #: live collaborators are passed per call), when closed-loop
    #: performance-aware steering is on; None otherwise.
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
            list(deployment.safety.violations)
            if deployment.safety is not None
            else []
        ),
        fault_actions=(
            list(deployment.faults.log)
            if deployment.faults is not None
            else []
        ),
        aggregator=deployment.controller.aggregator,
        health=deployment.health,
        steering=deployment.controller.steering,
    )


def _serve_pool_commands(connection, deployments: Dict[str, PopDeployment], names) -> None:
    """The pool worker command loop, shared by the fork and substrate
    pools: ``run`` steps the partition, ``collect`` pickles its state
    back, ``rss`` reports this process's resident set, ``stop`` exits.
    """
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
        elif op == "rss":
            connection.send(("rss", process_rss_bytes()))
        elif op == "stop":
            connection.send(("stopped", None))
            connection.close()
            return
        else:  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unknown pool command {op!r}")


def _pool_worker(connection, fleet: "FleetDeployment", names) -> None:
    """One persistent fork worker: owns *names*' deployments for life.

    The worker inherits its deployments (with all their live
    routing/dataplane state) at fork time and keeps them across
    commands, so successive ``run`` commands continue the simulation
    exactly as serial stepping would.
    """
    _serve_pool_commands(connection, fleet.deployments, names)


def _substrate_worker(
    connection,
    spec: "FleetBuildSpec",
    names,
    substrate_name: str,
    demand_states: Dict[str, Tuple[dict, int]],
) -> None:
    """One spawned worker on the shared read-only substrate.

    Spawned (not forked), so it starts from a fresh interpreter holding
    nothing of the parent's image; it deterministically rebuilds ONLY
    its partition's deployments, and the read-mostly bulk — the
    internet prefix table plus per-PoP demand weight/volatility
    columns — is mapped read-only from the parent's
    :class:`FrozenTable` instead of being built (or copied) per worker.
    The rebuild is a pure function of (spec, seed, substrate), so the
    worker's deployments are byte-identical to the parent's.
    """
    table = FrozenTable.attach(substrate_name)
    try:
        deployments = _build_partition(spec, names, table, demand_states)
        _serve_pool_commands(connection, deployments, names)
        # Release the deployments' column views (demand weights etc.)
        # before dropping the mapping, so the segment closes cleanly
        # instead of riding out to process exit.
        del deployments
        import gc

        gc.collect()
    finally:
        table.close()


def _shutdown_pool(processes, connections, substrate=None) -> None:
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
    if substrate is not None:
        substrate.unlink()


@dataclass(frozen=True)
class FleetBuildSpec:
    """Everything :meth:`FleetDeployment.build` needs, in picklable form.

    The shared-substrate pool's spawned workers rebuild their partition
    of the fleet from this spec — identically to the parent, because
    every build step is a pure function of (spec, per-PoP seed) plus the
    substrate columns.
    """

    pop_count: int = 4
    seed: int = 0
    tick_seconds: float = 60.0
    controller_config: Optional[ControllerConfig] = None
    sampling_rate: int = 131_072
    fault_plans: Optional[Dict[str, object]] = None
    safety_checks: bool = False
    health_checks: bool = False
    #: Optional :class:`~repro.obs.SloSpec` (picklable); None = the
    #: default posture when health checks are on.
    slo_spec: object = None
    internet_config: Optional[InternetConfig] = None

    def resolved_config(self) -> ControllerConfig:
        return self.controller_config or ControllerConfig(
            cycle_seconds=self.tick_seconds
        )


def _assemble_pop(
    build_spec: FleetBuildSpec,
    pop_spec: PopSpec,
    index: int,
    internet: InternetTopology,
    config: ControllerConfig,
    demand_factory: Callable[..., DemandModel],
) -> PopDeployment:
    """Build one PoP's deployment — the single code path both the
    parent and substrate workers run, so their results can only differ
    if a build step is nondeterministic (none is)."""
    wired = build_pop(pop_spec, internet)
    peak = pop_spec.expected_peak or gbps(160)
    demand_config = DemandConfig(
        seed=build_spec.seed + 100 + index,
        peak_total=peak,
        # Regional peaks: offset each PoP by ~90 minutes.
        peak_time=(64_800.0 + index * 5_400.0) % 86_400.0,
    )
    demand = demand_factory(wired, demand_config)
    provision_against_demand(
        wired,
        demand.weight_of,
        expected_peak=peak,
        headroom=pop_spec.private_headroom,
        tight_headroom=pop_spec.tight_headroom,
        tight_peer_count=pop_spec.tight_peer_count,
        seed=build_spec.seed + 200 + index,
    )
    faults = None
    if build_spec.fault_plans and pop_spec.name in build_spec.fault_plans:
        from ..faults.harness import FaultInjector

        faults = FaultInjector(build_spec.fault_plans[pop_spec.name])
    return PopDeployment(
        wired,
        demand,
        controller_config=config,
        tick_seconds=build_spec.tick_seconds,
        sampling_rate=build_spec.sampling_rate,
        seed=build_spec.seed + 300 + index,
        faults=faults,
        safety_checks=build_spec.safety_checks,
        health_checks=build_spec.health_checks,
        slo_spec=build_spec.slo_spec,
    )


def _build_partition(
    spec: FleetBuildSpec,
    names,
    table: FrozenTable,
    demand_states: Dict[str, Tuple[dict, int]],
) -> Dict[str, PopDeployment]:
    """Rebuild one partition of the fleet inside a substrate worker."""
    internet = default_internet(spec.seed, spec.internet_config)
    prefixes = internet.all_prefixes()
    if len(prefixes) != len(table):
        raise RuntimeError(
            f"substrate table carries {len(table)} prefixes but the "
            f"rebuilt internet has {len(prefixes)} — spec and substrate "
            "disagree"
        )
    wanted = set(names)
    config = spec.resolved_config()
    deployments: Dict[str, PopDeployment] = {}
    for index, pop_spec in enumerate(fleet_specs(spec.pop_count, spec.seed)):
        if pop_spec.name not in wanted:
            continue
        name = pop_spec.name
        rng_state, tick = demand_states[name]

        def demand_factory(
            wired, demand_config, name=name, rng_state=rng_state, tick=tick
        ):
            return DemandModel.from_columns(
                prefixes,
                demand_config,
                table.column(f"demand_weights:{name}"),
                table.column(f"demand_log0:{name}"),
                rng_state=rng_state,
                current_tick=tick,
            )

        deployments[name] = _assemble_pop(
            spec, pop_spec, index, internet, config, demand_factory
        )
    return deployments


class _PoolTransport:
    """Command transport shared by the fork and substrate pools."""

    connections: List
    processes: List

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


def _partition_names(names: List[str], workers: int) -> List[List[str]]:
    partitions = [names[index::workers] for index in range(workers)]
    return [partition for partition in partitions if partition]


class _WorkerPool(_PoolTransport):
    """Long-lived fork workers, each owning a partition of the PoPs."""

    def __init__(self, fleet: "FleetDeployment", workers: int, context):
        self.partitions = _partition_names(
            sorted(fleet.deployments), workers
        )
        self.connections = []
        self.processes = []
        for partition in self.partitions:
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


class _SubstrateWorkerPool(_PoolTransport):
    """Spawned workers over one shared read-only FrozenTable.

    The fork pool's workers each inherit the parent's whole image — all
    N PoPs' deployments — and CPython's refcount/GC writes gradually
    privatize those copy-on-write pages, so per-worker RSS converges on
    the full parent footprint.  Here each worker is *spawned* into a
    fresh interpreter, rebuilds only its own partition, and maps the
    fleet's read-mostly bulk (internet prefix table, per-PoP demand
    columns) from shared memory: the table costs one set of physical
    pages machine-wide, and per-worker RSS is the partition's share of
    the fleet plus a constant interpreter baseline.
    """

    def __init__(self, fleet: "FleetDeployment", workers: int, context):
        spec = fleet.build_spec
        assert spec is not None
        names = sorted(fleet.deployments)
        self.partitions = _partition_names(names, workers)
        # Freeze the substrate: the packed prefix table plus every
        # PoP's demand weight and initial volatility columns.  Workers
        # map only the columns they read; untouched pages never become
        # resident in them.
        columns: Dict[str, np.ndarray] = {}
        demand_states: Dict[str, Tuple[dict, int]] = {}
        sample: Optional[DemandModel] = None
        for name in names:
            model = fleet.deployments[name].demand
            weights, log_state, rng_state, tick = model.column_state()
            columns[f"demand_weights:{name}"] = np.asarray(
                weights, dtype=np.float64
            )
            columns[f"demand_log0:{name}"] = np.asarray(
                log_state, dtype=np.float64
            )
            demand_states[name] = (rng_state, tick)
            sample = model
        assert sample is not None
        self.substrate = FrozenTable.build(
            prefixes=sample.prefixes, columns=columns
        ).share()
        self.connections = []
        self.processes = []
        for partition in self.partitions:
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_substrate_worker,
                args=(
                    child_end,
                    spec,
                    partition,
                    self.substrate.shared_name,
                    {name: demand_states[name] for name in partition},
                ),
                daemon=True,
            )
            process.start()
            child_end.close()
            self.connections.append(parent_end)
            self.processes.append(process)
        self._finalizer = weakref.finalize(
            self,
            _shutdown_pool,
            self.processes,
            self.connections,
            self.substrate,
        )


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
    #: The picklable recipe this fleet was built from; required by the
    #: shared-substrate pool (whose workers rebuild their partitions
    #: from it).  None for hand-assembled fleets — those can still use
    #: the fork pool.
    build_spec: Optional[FleetBuildSpec] = field(
        default=None, repr=False, compare=False
    )
    _pool: Optional[_PoolTransport] = field(
        default=None, init=False, repr=False, compare=False
    )

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
        internet_config: Optional[InternetConfig] = None,
    ) -> "FleetDeployment":
        """Build *pop_count* PoPs over one shared synthetic Internet.

        Each PoP gets its own demand (different seeds: PoPs serve
        different regions with offset peaks) and its own controller.

        *fault_plans* maps PoP name (``pop-00`` ...) to a
        :class:`~repro.faults.FaultPlan`; listed PoPs get their own
        :class:`~repro.faults.FaultInjector` while the rest run clean —
        chaos at one PoP must never disturb another (the paper's
        controllers share nothing).

        *internet_config* scales the shared synthetic Internet (more
        stubs, more prefixes per stub, a larger IPv6 share) — the knob
        the substrate bench turns to make the shared table dominate
        per-worker memory the way a real full table does.
        """
        spec = FleetBuildSpec(
            pop_count=pop_count,
            seed=seed,
            tick_seconds=tick_seconds,
            controller_config=controller_config,
            sampling_rate=sampling_rate,
            fault_plans=fault_plans,
            safety_checks=safety_checks,
            health_checks=health_checks,
            slo_spec=slo_spec,
            internet_config=internet_config,
        )
        internet = default_internet(seed, internet_config)
        prefixes = internet.all_prefixes()
        config = spec.resolved_config()
        deployments: Dict[str, PopDeployment] = {}
        for index, pop_spec in enumerate(fleet_specs(pop_count, seed)):

            def demand_factory(wired, demand_config):
                return DemandModel(
                    prefixes,
                    demand_config,
                    popular=wired.popular_prefixes(),
                )

            deployments[pop_spec.name] = _assemble_pop(
                spec, pop_spec, index, internet, config, demand_factory
            )
        return cls(
            deployments=deployments,
            tick_seconds=tick_seconds,
            build_spec=spec,
        )

    # -- stepping ---------------------------------------------------------------

    def step(self, now: float, run_controller: bool = True) -> None:
        if self._pool is not None:
            raise RuntimeError(
                "fleet has a live worker pool — its PoPs' state lives "
                "in the workers; use run(parallel=...) / collect(), or "
                "close_pool() before stepping serially"
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
        substrate: bool = False,
    ) -> None:
        """Run every PoP from *start* for *duration* seconds.

        With ``parallel=N`` (N > 1), PoPs are stepped in up to N worker
        processes.  PoPs share no mutable state — the paper's
        controllers don't coordinate — so each worker's run is identical
        to its slice of the serial loop and the merged results (records,
        monitors, override sets, metrics, telemetry) match the serial
        run exactly.

        Parallel runs use a *persistent* pool: workers are forked once,
        keep their deployments' live routing/dataplane state across
        calls, and successive ``run`` calls continue the simulation
        exactly as serial stepping would.  ``sync=False`` defers the
        state pickle-back until :meth:`collect` — the cheap mode for
        many-segment benchmark runs.

        ``substrate=True`` runs the pool on the shared read-only
        substrate: workers are *spawned* rather than forked,
        rebuild only their partition, and map the fleet's read-mostly
        bulk from one :class:`FrozenTable` in shared memory — the
        zero-copy mode whose per-worker RSS ``bench_fleet
        --shared-substrate`` gates.  Requires a fleet from
        :meth:`build` (``build_spec`` set) that has not been stepped
        yet; otherwise the run degrades to the fork pool, loudly.

        If process forking is unavailable, the run degrades to the
        serial loop — loudly: a structured ``fleet.parallel_fallback``
        log line plus the ``fleet_parallel_fallback_total`` counter on
        the fleet's own telemetry, never silently.
        """
        if (
            parallel is not None
            and parallel > 1
            and len(self.deployments) > 1
        ):
            worker_pool = None
            if substrate:
                worker_pool = self._ensure_substrate_pool(parallel)
                if worker_pool is None:
                    self._note_parallel_fallback(
                        parallel,
                        reason=(
                            "substrate pool unavailable (needs a "
                            "built, unstepped fleet and the spawn "
                            "start method); using the fork pool"
                        ),
                    )
            if worker_pool is None:
                worker_pool = self._ensure_pool(parallel)
            if worker_pool is not None:
                worker_pool.command(
                    ("run", start, duration, run_controller)
                )
                if sync:
                    self.collect()
                return
            self._note_parallel_fallback(parallel)
        now = start
        while now < start + duration:
            self.step(now, run_controller=run_controller)
            now += self.tick_seconds

    # -- the persistent pool -----------------------------------------------------

    def _ensure_pool(self, workers: int) -> Optional[_PoolTransport]:
        """The live worker pool, forked on first use (None: no fork)."""
        if self._pool is not None:
            return self._pool
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            return None
        self._pool = _WorkerPool(
            self, min(workers, len(self.deployments)), context
        )
        return self._pool

    def _ensure_substrate_pool(
        self, workers: int
    ) -> Optional[_PoolTransport]:
        """The live substrate pool, spawned on first use.

        None when the fleet cannot host one: hand-assembled (no
        :class:`FleetBuildSpec` to rebuild from), already stepped
        (workers rebuild from scratch, so prior per-PoP state would be
        lost), or no spawn start method.  A pool that already exists is
        returned whatever its kind — the caller committed to it.
        """
        if self._pool is not None:
            return self._pool
        if self.build_spec is None:
            return None
        if any(
            deployment.record.ticks or deployment.current_time
            for deployment in self.deployments.values()
        ):
            return None
        try:
            context = multiprocessing.get_context("spawn")
        except ValueError:  # pragma: no cover - spawn always exists
            return None
        self._pool = _SubstrateWorkerPool(
            self, min(workers, len(self.deployments)), context
        )
        return self._pool

    def worker_rss_bytes(self) -> Dict[str, float]:
        """Per-worker resident set size in bytes (empty without a pool).

        Polls each live worker process and mirrors the readings onto
        the fleet's own telemetry as the ``fleet_worker_rss_bytes``
        gauge (labelled by worker), so the substrate's memory win is a
        dashboard series, not just a bench artifact.  Fleet-level
        telemetry only: per-PoP registries stay untouched, preserving
        serial-vs-pool byte-equality of per-PoP results.
        """
        if self._pool is None:
            return {}
        gauge = self.telemetry.registry.gauge(
            "fleet_worker_rss_bytes",
            "Resident set size of each fleet worker process",
            labelnames=("worker",),
        )
        readings: Dict[str, float] = {}
        for index, rss in enumerate(self._pool.command(("rss",))):
            worker = f"worker-{index}"
            readings[worker] = rss
            gauge.labels(worker=worker).set(rss)
        return readings

    def collect(self) -> None:
        """Pull worker state into the parent deployments (pool only).

        Safe to call repeatedly; after it, every record/monitor/
        telemetry/override accessor reflects the workers' progress.
        """
        if self._pool is None:
            return
        for states in self._pool.command(("collect",)):
            for name, state in states:
                self._merge_state(name, state)

    def close_pool(self) -> None:
        """Stop the pool's workers (final state is collected first)."""
        if self._pool is None:
            return
        self.collect()
        pool, self._pool = self._pool, None
        pool.stop()

    def _note_parallel_fallback(
        self,
        requested: int,
        reason: str = "fork start method unavailable",
    ) -> None:
        self._m_parallel_fallback.inc()
        log_event(
            _log,
            "fleet.parallel_fallback",
            requested_workers=requested,
            pops=len(self.deployments),
            reason=reason,
        )

    def _merge_state(self, name: str, state: _PopRunState) -> None:
        deployment = self.deployments[name]
        deployment.record = state.record
        deployment.controller.monitor = state.monitor
        deployment.controller.overrides = state.overrides
        deployment.controller.aggregator = state.aggregator
        deployment.simulator.metrics = state.metrics
        # The worker's telemetry (registry counts, spans, audit
        # trail) replaces the parent's pre-run copy wholesale —
        # same merge contract as the record and monitor above.
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

        Works identically after serial and parallel runs (workers carry
        their telemetry back through :meth:`collect`), so
        fleet dashboards need no knowledge of how the run executed.
        """
        return merge_registries(
            (name, self.deployments[name].telemetry.registry)
            for name in sorted(self.deployments)
        )

    def telemetry_by_pop(self) -> Dict[str, Telemetry]:
        return {
            name: deployment.telemetry
            for name, deployment in self.deployments.items()
        }

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

    def health_reports(self) -> Dict[str, object]:
        """Per-PoP :class:`~repro.obs.HealthReport` (health-checked PoPs
        only).  Works identically after serial and pooled runs — the
        engines ride the same state merge as telemetry."""
        return {
            name: deployment.health.report(name=name)
            for name, deployment in sorted(self.deployments.items())
            if deployment.health is not None
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

    def total_active_overrides(self) -> int:
        return sum(
            len(deployment.controller.overrides)
            for deployment in self.deployments.values()
        )

    def summary_table(self) -> Table:
        """Per-PoP roll-up of the run so far."""
        table = Table(
            title=f"Fleet summary ({len(self.deployments)} PoPs)",
            columns=[
                "pop",
                "peak offered",
                "dropped (Gbit)",
                "peak detoured",
                "max overrides",
                "unresolved cycles",
            ],
        )
        for name, deployment in sorted(self.deployments.items()):
            ticks = deployment.record.ticks
            if not ticks:
                continue
            monitor = deployment.controller.monitor
            fractions = [
                (t.detoured / t.offered) if t.offered else 0.0
                for t in ticks
            ]
            table.add_row(
                name,
                str(deployment.record.peak_offered()),
                round(
                    deployment.record.total_dropped_bits(
                        self.tick_seconds
                    )
                    / 1e9,
                    2,
                ),
                round(max(fractions), 3),
                max((t.active_overrides for t in ticks), default=0),
                monitor.unresolved_overload_cycles(),
            )
        return table

    def fleet_detoured_fraction(self) -> float:
        """Latest-tick fleet-wide share of traffic on injected routes."""
        offered = detoured = 0.0
        for deployment in self.deployments.values():
            if not deployment.record.ticks:
                continue
            tick = deployment.record.ticks[-1]
            offered += tick.offered.bits_per_second
            detoured += tick.detoured.bits_per_second
        return detoured / offered if offered else 0.0
