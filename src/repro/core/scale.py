"""The scale scenario: tens of thousands of prefixes, seeded churn.

This is the harness behind ``benchmarks/bench_scale_churn.py`` and the
incremental-vs-full equivalence tests.  It drives the *real* control
stack — :class:`BmpCollector`, :class:`SflowCollector`,
:class:`InputAssembler`, :class:`EdgeFabricController`,
:class:`BgpInjector`, :class:`SafetyChecker` — but constructs its inputs
synthetically:

- routes go straight into the collector via
  :meth:`BmpCollector.ingest_route` (identical RIB versioning/journal
  behaviour, no BMP wire codec), carrying the LOCAL_PREF the standard
  import policy would have assigned;
- per-prefix byte estimates go straight into
  :meth:`SflowCollector.add_estimate` (the estimator ``feed_many``
  drives, no sFlow datagrams and no ifIndex), with the estimator window
  spanning the whole run so a prefix fed once holds a constant rate
  until churn touches it.

Each prefix prefers a PNI route with a transit alternate.  A configured
slice of prefixes lands on deliberately under-provisioned PNIs, so the
allocator always has real detour work; the rest sit on roomy PNIs.  Per
cycle, a seeded fraction of prefixes churns — rate bumps and route flaps
— which is exactly the workload whose cost the incremental engine makes
proportional to churn rather than to table size.

Two scenarios built from the same :class:`ScaleConfig` produce identical
event sequences, so a run with ``incremental=True`` and one with
``incremental=False`` must produce identical decisions; see
:func:`compare_runs`.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..bgp.attributes import AsPath, PathAttributes
from ..bgp.peering import PeerDescriptor
from ..bgp.policy import LOCAL_PREF_BY_PEER_TYPE
from ..bgp.route import Route
from ..bmp.collector import BmpCollector
from ..netbase.addr import Family, Prefix
from ..netbase.units import Rate
from ..obs.telemetry import Telemetry
from ..sflow.collector import SflowCollector
from ..sflow.estimator import DEFAULT_CHANGE_LOG_LIMIT
from ..topology.entities import InterfaceKey
from ..topology.scenarios import ScalePop, build_scale_pop
from .config import ControllerConfig
from .controller import EdgeFabricController
from .injector import BgpInjector
from .inputs import InputAssembler
from .monitoring import CycleReport
from .safety import SafetyChecker

__all__ = [
    "ScaleConfig",
    "CycleCapture",
    "ScaleRunResult",
    "ScaleScenario",
    "compare_runs",
]


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs for one scale run; two runs from one config are twins."""

    #: Size of the IPv4 prefix table (the paper's PoPs serve tens of
    #: thousands of routable prefixes; the acceptance bar is 50k).
    prefix_count: int = 50_000
    #: IPv6 prefixes (/48s) carried alongside the IPv4 table.  Zero
    #: keeps the scenario byte-identical to its v4-only history: v6
    #: rates are drawn from the build RNG *after* every v4 draw, and v6
    #: homing is a pure function of the index, so enabling v6 never
    #: perturbs the v4 event sequence.
    ipv6_prefix_count: int = 0
    #: Fraction of the table churned per cycle (rates and routes).
    churn_fraction: float = 0.02
    #: Of the churned prefixes, the share whose churn is a route flap
    #: (withdraw / re-announce of the preferred PNI route) rather than a
    #: rate movement.
    route_flap_fraction: float = 0.25
    cycles: int = 20
    seed: int = 7
    #: PNI ports carrying the long tail, provisioned with headroom.
    pni_count: int = 8
    #: Extra deliberately-tight PNI ports (kept persistently overloaded
    #: so every cycle has allocator work).
    tight_pni_count: int = 2
    #: Share of prefixes homed on the tight PNIs.
    tight_prefix_share: float = 0.03
    #: Tight-PNI load as a multiple of the detour threshold limit.
    overload_factor: float = 1.1
    cycle_seconds: float = 30.0
    #: Home the tight slice in contiguous prefix blocks (one block per
    #: tight PNI) instead of round-robin.  Contiguous blocks are what a
    #: real PoP sees — a congested peer owns whole swaths of its
    #: announced space — and what aggregated injection collapses.
    block_tight_homing: bool = False
    #: Give every tight prefix the same rate, so the allocator's
    #: rate-ordered detour picks stay contiguous in prefix space.
    uniform_tight_rates: bool = False
    #: Run the controller with aggregated override injection.
    aggregate_overrides: bool = False
    #: Audit a "keep" event per standing override per cycle (see
    #: :attr:`ControllerConfig.audit_keep_events`); the full-table
    #: preset turns this off.
    audit_keep_events: bool = True

    def __post_init__(self) -> None:
        if self.prefix_count < 1:
            raise ValueError("prefix_count must be positive")
        if self.ipv6_prefix_count < 0:
            raise ValueError("ipv6_prefix_count cannot be negative")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be in [0, 1]")
        if not 0.0 <= self.route_flap_fraction <= 1.0:
            raise ValueError("route_flap_fraction must be in [0, 1]")
        if self.cycles < 1:
            raise ValueError("cycles must be positive")
        if self.pni_count < 1 or self.tight_pni_count < 0:
            raise ValueError("need at least one roomy PNI")

    @property
    def total_prefix_count(self) -> int:
        """Both families together — the table the controller carries."""
        return self.prefix_count + self.ipv6_prefix_count

    @property
    def window_seconds(self) -> float:
        """Estimator window covering the whole run (nothing expires)."""
        return (self.cycles + 2) * self.cycle_seconds

    def controller_config(
        self, incremental: bool = True, **overrides: object
    ) -> ControllerConfig:
        """The run's controller config; only the engine flag differs
        between the incremental and full-recompute twins."""
        base: Dict[str, object] = dict(
            cycle_seconds=self.cycle_seconds,
            max_input_age_seconds=self.window_seconds,
            incremental_engine=incremental,
            aggregate_overrides=self.aggregate_overrides,
            audit_keep_events=self.audit_keep_events,
        )
        base.update(overrides)
        return ControllerConfig(**base)  # type: ignore[arg-type]

    @classmethod
    def full_table(
        cls,
        prefix_count: int = 700_000,
        cycles: int = 12,
        seed: int = 7,
        dual_stack: bool = False,
        ipv6_prefix_count: int = 200_000,
        **overrides: object,
    ) -> "ScaleConfig":
        """The full-table preset: a PoP carrying the whole routing table.

        700k prefixes is today's global IPv4 table; the tight PNIs are
        overloaded hard (8x the threshold limit) so nearly the whole
        tight slice — ~21k prefixes — must detour, which is the regime
        where aggregated injection pays: contiguous blocks of equal-rate
        detours collapse into a handful of covering announcements.

        ``dual_stack=True`` adds the real Internet's other half: ~200k
        IPv6 /48s homed in contiguous blocks on the same PNIs, with
        their own tight slice detouring through the family-aware
        aggregation floor (/32).
        """
        base: Dict[str, object] = dict(
            prefix_count=prefix_count,
            ipv6_prefix_count=ipv6_prefix_count if dual_stack else 0,
            cycles=cycles,
            seed=seed,
            churn_fraction=0.005,
            overload_factor=8.0,
            block_tight_homing=True,
            uniform_tight_rates=True,
            aggregate_overrides=True,
            audit_keep_events=False,
        )
        base.update(overrides)
        return cls(**base)  # type: ignore[arg-type]


@dataclass
class CycleCapture:
    """One cycle's decisions, for cross-run comparison."""

    time: float
    wall_seconds: float
    decision_path: str
    #: prefix -> detour target session name (exact-comparable).
    overrides: Dict[Prefix, str]
    #: The injector-held table: covering aggregates under aggregated
    #: injection, identical to ``overrides`` otherwise.
    installed: Dict[Prefix, str]
    #: interface -> projected post-detour load, bits/second.
    final_loads: Dict[InterfaceKey, float]
    report: CycleReport = field(repr=False, compare=False, default=None)


@dataclass
class ScaleRunResult:
    """Everything one scale run produced."""

    config: ScaleConfig
    incremental: bool
    cycles: List[CycleCapture]
    violations: int
    full_snapshots: int
    incremental_snapshots: int

    def total_wall(self) -> float:
        return sum(capture.wall_seconds for capture in self.cycles)

    def steady_wall(self) -> float:
        """Wall time excluding the first cycle (cold build in both
        modes), the honest O(churn)-vs-O(table) comparison."""
        return sum(capture.wall_seconds for capture in self.cycles[1:])

    def path_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for capture in self.cycles:
            counts[capture.decision_path] = (
                counts.get(capture.decision_path, 0) + 1
            )
        return counts

    def mean_install_ratio(self) -> float:
        """Mean desired-overrides / installed-routes across cycles —
        the aggregation win (1.0 without aggregated injection)."""
        ratios = [
            len(capture.overrides) / len(capture.installed)
            for capture in self.cycles
            if capture.installed
        ]
        if not ratios:
            return 1.0
        return sum(ratios) / len(ratios)


class ScaleScenario:
    """One seeded scale run against the real control stack."""

    def __init__(
        self,
        config: ScaleConfig = ScaleConfig(),
        incremental: bool = True,
        controller_config: Optional[ControllerConfig] = None,
    ) -> None:
        self.config = config
        self.incremental = incremental
        cc = controller_config or config.controller_config(incremental)
        self.controller_config = cc
        self.now = 0.0

        # Deterministic demand: per-prefix base rates first, so PNI
        # capacities can be sized against the load they will carry.
        # Index space is v4 first ([0, prefix_count)), then v6 — and
        # every v6 draw comes after every v4 draw, so a v4-only config
        # replays its historical event sequence bit for bit.
        build_rng = random.Random(config.seed)
        count4 = config.prefix_count
        count6 = config.ipv6_prefix_count
        count = count4 + count6
        self._prefixes = [_nth_prefix(index) for index in range(count4)]
        self._prefixes.extend(
            _nth_prefix6(index) for index in range(count6)
        )
        self._rate_bps = [
            build_rng.uniform(2e6, 5e7) for _ in range(count)
        ]

        # Home each prefix on a PNI, per family: a small slice of each
        # family goes to the tight ports — round-robin by default,
        # contiguous blocks when block-homing is on — and the rest
        # round-robins the roomy ones.  Both families share the same
        # physical PNIs (a congested peer is congested for the traffic
        # it carries, not per address family).
        tight_total = config.tight_pni_count
        self._home: List[int] = []
        for family_count, base in ((count4, 0), (count6, count4)):
            tight_prefixes = (
                int(family_count * config.tight_prefix_share)
                if tight_total
                else 0
            )
            if config.uniform_tight_rates:
                for local in range(tight_prefixes):
                    self._rate_bps[base + local] = 3e7
            for local in range(family_count):
                if local < tight_prefixes:
                    if config.block_tight_homing:
                        self._home.append(
                            local * tight_total // tight_prefixes
                        )
                    else:
                        self._home.append(local % tight_total)
                else:
                    self._home.append(
                        tight_total + local % config.pni_count
                    )

        pni_total = tight_total + config.pni_count
        pni_loads = [0.0] * pni_total
        for index in range(count):
            pni_loads[self._home[index]] += self._rate_bps[index]
        threshold = cc.utilization_threshold
        capacities = []
        for pni, load in enumerate(pni_loads):
            if pni < tight_total:
                # Load sits overload_factor above the threshold limit.
                capacities.append(
                    Rate(load / threshold / config.overload_factor)
                )
            else:
                capacities.append(Rate(load / threshold * 4.0))
        total_bps = sum(pni_loads)
        self.scale_pop: ScalePop = build_scale_pop(
            pni_capacities=capacities,
            transit_capacity=Rate(max(total_bps * 10.0, 1e9)),
        )

        self.telemetry = Telemetry(name="scale")
        self.bmp = BmpCollector(
            self.scale_pop.registry,
            clock=lambda: self.now,
            telemetry=self.telemetry,
        )
        self.sflow = SflowCollector(
            lambda _family, _address: None,
            window_seconds=config.window_seconds,
            telemetry=self.telemetry,
            # The change log must absorb one whole-table seed plus a
            # run's worth of churn, or the incremental snapshot path
            # degrades to full rebuilds at exactly the table sizes
            # where it matters most.
            change_log_limit=max(
                DEFAULT_CHANGE_LOG_LIMIT, 2 * config.total_prefix_count
            ),
        )
        self.injector = BgpInjector(
            self.scale_pop.pop, self.scale_pop.speakers, cc
        )
        self.assembler = InputAssembler(
            self.scale_pop.pop, self.bmp, self.sflow, cc
        )
        self.controller = EdgeFabricController(
            self.assembler, self.injector, cc, telemetry=self.telemetry
        )
        self.safety = SafetyChecker(self.controller, self.bmp)

        self._seed_routes()
        self._seed_rates()
        self._withdrawn: Set[int] = set()
        # Churn draws come after construction draws, so the incremental
        # and full twins consume identical random sequences.
        self._churn_rng = random.Random(config.seed + 1)

    # -- synthetic inputs -----------------------------------------------------

    def _pni_session(self, index: int) -> PeerDescriptor:
        return self.scale_pop.pnis[self._home[index]]

    def _next_hop(self, index: int, session: PeerDescriptor):
        """Family-matched next hop: v6 prefixes carry the conventional
        link-local form embedding the 32-bit session address (the same
        convention the injector and topology builder use)."""
        if self._prefixes[index].family is Family.IPV4:
            return (Family.IPV4, session.address)
        return (Family.IPV6, (0xFE80 << 112) | session.address)

    def _pni_route(self, index: int, now: float) -> Route:
        session = self._pni_session(index)
        return Route(
            prefix=self._prefixes[index],
            attributes=PathAttributes(
                as_path=AsPath.sequence(session.peer_asn),
                next_hop=self._next_hop(index, session),
                local_pref=LOCAL_PREF_BY_PEER_TYPE[session.peer_type],
            ),
            source=session,
            learned_at=now,
        )

    def _transit_route(self, index: int) -> Route:
        session = self.scale_pop.transit
        return Route(
            prefix=self._prefixes[index],
            attributes=PathAttributes(
                as_path=AsPath.sequence(session.peer_asn, 64900),
                next_hop=self._next_hop(index, session),
                local_pref=LOCAL_PREF_BY_PEER_TYPE[session.peer_type],
            ),
            source=session,
            learned_at=0.0,
        )

    def _seed_routes(self) -> None:
        # Bulk path: one best-path decision per prefix instead of two.
        routes: List[Route] = []
        for index in range(self.config.total_prefix_count):
            routes.append(self._transit_route(index))
            routes.append(self._pni_route(index, 0.0))
        self.bmp.ingest_routes(routes, now=0.0)

    def _seed_rates(self) -> None:
        # bytes = bps * window / 8 makes the estimator report exactly
        # the drawn rate for the rest of the run (nothing expires).
        window = self.config.window_seconds
        sflow = self.sflow
        for index in range(self.config.total_prefix_count):
            sflow.add_estimate(
                self._prefixes[index],
                self._rate_bps[index] * window / 8.0,
                0.0,
            )

    def _churn(self, now: float) -> None:
        config = self.config
        total = config.total_prefix_count
        churned = int(total * config.churn_fraction)
        if churned == 0:
            return
        rng = self._churn_rng
        window = config.window_seconds
        for index in rng.sample(range(total), churned):
            if rng.random() < config.route_flap_fraction:
                if index in self._withdrawn:
                    self._withdrawn.discard(index)
                    self.bmp.ingest_route(self._pni_route(index, now))
                else:
                    self._withdrawn.add(index)
                    self.bmp.ingest_withdrawal(
                        self._prefixes[index], self._pni_session(index)
                    )
            else:
                bump = self._rate_bps[index] * rng.uniform(0.02, 0.10)
                self.sflow.add_estimate(
                    self._prefixes[index], bump * window / 8.0, now
                )

    # -- driving --------------------------------------------------------------

    def run_one_cycle(self, cycle_index: int) -> CycleCapture:
        now = cycle_index * self.config.cycle_seconds
        self.now = now
        if cycle_index:
            self._churn(now)
        started = _time.perf_counter()
        report = self.controller.run_cycle(now)
        wall = _time.perf_counter() - started
        self.safety.check(now, report)
        aggregator = self.controller.aggregator
        return CycleCapture(
            time=now,
            wall_seconds=wall,
            decision_path=report.decision_path,
            overrides=dict(self.controller.overrides.active_targets()),
            installed=dict(
                self.controller.overrides.active_targets()
                if aggregator is None
                else aggregator.installed.active_targets()
            ),
            final_loads={
                key: rate.bits_per_second
                for key, rate in self.controller.last_final_loads.items()
            },
            report=report,
        )

    def run(self) -> ScaleRunResult:
        captures = [
            self.run_one_cycle(index)
            for index in range(self.config.cycles)
        ]
        return ScaleRunResult(
            config=self.config,
            incremental=self.incremental,
            cycles=captures,
            violations=len(self.safety.violations),
            full_snapshots=self.assembler.full_snapshots,
            incremental_snapshots=self.assembler.incremental_snapshots,
        )


def compare_runs(
    left: ScaleRunResult,
    right: ScaleRunResult,
    load_rel_tol: float = 1e-9,
) -> List[str]:
    """Decision differences between two runs (empty = equivalent).

    Override tables must match *exactly*; projected loads are floats
    accumulated in different orders by the two engines, so they are
    compared to a relative tolerance far below anything the allocator's
    threshold comparisons could notice.
    """
    problems: List[str] = []
    if len(left.cycles) != len(right.cycles):
        return [
            f"cycle counts differ: {len(left.cycles)} vs "
            f"{len(right.cycles)}"
        ]
    for index, (a, b) in enumerate(zip(left.cycles, right.cycles)):
        if a.overrides != b.overrides:
            only_a = {
                k: v for k, v in a.overrides.items()
                if b.overrides.get(k) != v
            }
            only_b = {
                k: v for k, v in b.overrides.items()
                if a.overrides.get(k) != v
            }
            problems.append(
                f"cycle {index}: override tables differ "
                f"(left-only/changed: {_preview(only_a)}, "
                f"right-only/changed: {_preview(only_b)})"
            )
        if a.installed != b.installed:
            problems.append(
                f"cycle {index}: installed (injector-held) tables "
                f"differ: {len(a.installed)} vs {len(b.installed)} "
                "routes"
            )
        if set(a.final_loads) != set(b.final_loads):
            problems.append(
                f"cycle {index}: load key sets differ: "
                f"{sorted(set(a.final_loads) ^ set(b.final_loads))}"
            )
            continue
        for key, value in a.final_loads.items():
            other = b.final_loads[key]
            scale = max(abs(value), abs(other), 1.0)
            if abs(value - other) / scale > load_rel_tol:
                problems.append(
                    f"cycle {index}: load on {'/'.join(key)} differs: "
                    f"{value!r} vs {other!r}"
                )
    return problems


def _preview(table: Dict[Prefix, str], limit: int = 3) -> str:
    items = sorted(table.items())[:limit]
    body = ", ".join(f"{prefix}->{target}" for prefix, target in items)
    more = len(table) - len(items)
    return f"{{{body}}}" + (f" (+{more} more)" if more > 0 else "")


def _nth_prefix(index: int) -> Prefix:
    """The index-th /24 of a flat synthetic address plan (11.0.0.0/8
    upward, 65536 per /8)."""
    address = ((11 + index // 65536) << 24) | ((index % 65536) << 8)
    return Prefix.from_address(Family.IPV4, address, 24)


def _nth_prefix6(index: int) -> Prefix:
    """The index-th /48 of the synthetic IPv6 plan: consecutive /48s
    walking up from 2600::/16, so block-homed tight slices occupy
    contiguous v6 space exactly as the v4 plan's /24s do."""
    address = (0x2600 << 112) | (index << 80)
    return Prefix.from_address(Family.IPV6, address, 48)
