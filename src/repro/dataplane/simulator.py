"""The flow-level dataplane simulator for one PoP.

Each tick it:

1. asks the demand model for per-prefix rates,
2. resolves every prefix's egress via the PoP's converged routing state
   (which includes any routes the Edge Fabric injector has placed),
3. sums offered load per egress interface, caps it at capacity, and
   accounts drops,
4. records interface metrics and hands the tick's flows to the sFlow
   agents, returning their datagrams for the collection pipeline.

sFlow sampling happens on the router *before* the egress queue, so
samples reflect offered load, not post-drop load — this is why the
controller can see (and project) demand above capacity, the paper's
central measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import time as _time

from ..bgp.route import Route
from ..netbase.addr import Prefix
from ..netbase.units import Rate
from ..obs.telemetry import Telemetry
from ..sflow.agent import InterfaceIndexMap, SflowAgent
from ..topology.builder import WiredPop
from ..topology.entities import InterfaceKey
from ..traffic.demand import DemandModel
from ..traffic.flows import FlowSynthesizer
from .fib import split_shares
from .metrics import InterfaceSample, MetricsStore
from .popview import PopView

__all__ = ["TickResult", "PopSimulator"]


@dataclass
class TickResult:
    """Everything one tick produced."""

    time: float
    #: Offered load per interface.
    loads: Dict[InterfaceKey, Rate]
    #: Dropped rate per interface (offered minus capacity, floored at 0).
    drops: Dict[InterfaceKey, Rate]
    #: The route each prefix's (remaining) traffic followed.
    assignments: Dict[Prefix, Route]
    #: Traffic split off by injected more-specifics, per demanded
    #: prefix: [(more-specific route, rate diverted to it)].
    splits: Dict[Prefix, List[Tuple[Route, Rate]]]
    #: Demand that had no route at all.
    unrouted: Rate
    #: Encoded sFlow datagrams, per router.
    datagrams: Dict[str, List[bytes]] = field(default_factory=dict)

    def total_offered(self) -> Rate:
        return Rate(
            sum(load.bits_per_second for load in self.loads.values())
        )

    def total_dropped(self) -> Rate:
        return Rate(
            sum(drop.bits_per_second for drop in self.drops.values())
        )

    def overloaded_interfaces(self) -> List[InterfaceKey]:
        return [key for key, drop in self.drops.items() if drop]


class PopSimulator:
    """Drives the dataplane of one wired PoP."""

    def __init__(
        self,
        wired: WiredPop,
        demand: DemandModel,
        tick_seconds: float = 30.0,
        sampling_rate: int = 65536,
        seed: int = 0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.wired = wired
        self.demand = demand
        self.tick_seconds = tick_seconds
        self.view = PopView(wired.speakers.values())
        self.metrics = MetricsStore()
        self.telemetry = telemetry or Telemetry(name=wired.pop.name)
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        self._m_ticks = registry.counter(
            "dataplane_ticks_total", "Simulator ticks run"
        )
        self._m_offered = registry.gauge(
            "dataplane_offered_bps", "Offered load, last tick"
        )
        self._m_dropped = registry.gauge(
            "dataplane_dropped_bps", "Dropped rate, last tick"
        )
        self._m_unrouted = registry.gauge(
            "dataplane_unrouted_bps", "Demand with no route, last tick"
        )
        self.synthesizer = FlowSynthesizer(
            mean_packet_bytes=demand.config.mean_packet_bytes, seed=seed
        )
        #: Optional ``(router, datagrams) -> datagrams`` hook applied to
        #: each router's emitted batch — the fault injector's tap for
        #: sFlow loss/duplication.  ``None`` (the default) is bypassed
        #: with a single branch per router per tick.
        self.datagram_filter = None
        self.interface_maps: Dict[str, InterfaceIndexMap] = {}
        self.agents: Dict[str, SflowAgent] = {}
        for index, (router_name, router) in enumerate(
            wired.pop.routers.items()
        ):
            index_map = InterfaceIndexMap(sorted(router.interfaces))
            self.interface_maps[router_name] = index_map
            self.agents[router_name] = SflowAgent(
                router=router_name,
                agent_address=0x0A400001 + index,
                interfaces=index_map,
                sampling_rate=sampling_rate,
                seed=seed + index,
            )

    def tick(self, now: float) -> TickResult:
        """Advance the dataplane to time *now* and forward one interval.

        The per-prefix loop is the simulator's hottest code: egress
        resolution and the injected-specifics lookup are memoized
        together in the :class:`PopView` (invalidated on route churn),
        and all accumulation happens on plain bits/second floats —
        :class:`Rate` objects are built once per interface at the end,
        not once per addition.
        """
        span_started = _time.perf_counter()
        view = self.view
        pop = self.wired.pop
        rates = self.demand.rates_bps(now)
        loads_bps: Dict[InterfaceKey, float] = {}
        assignments: Dict[Prefix, Route] = {}
        splits_bps: Dict[Prefix, List[Tuple[Route, float]]] = {}
        per_router_flows: Dict[str, List[Tuple[Prefix, float, str]]] = {
            router: [] for router in self.agents
        }
        unrouted_bps = 0.0
        for prefix, rate in rates.items():
            resolved, specifics = view.resolve_forwarding(prefix, pop)
            if resolved is None:
                unrouted_bps += rate
                continue
            best, key = resolved
            remaining = rate
            if specifics:
                # Injected more-specifics capture their LPM share of
                # the prefix's (address-uniform) traffic.
                shares, remainder = split_shares(prefix, specifics)
                diverted: List[Tuple[Route, float]] = []
                for route, fraction in shares:
                    sub_rate = rate * fraction
                    sub_key = view.egress_of(route, pop)
                    loads_bps[sub_key] = (
                        loads_bps.get(sub_key, 0.0) + sub_rate
                    )
                    per_router_flows[sub_key[0]].append(
                        (prefix, sub_rate, sub_key[1])
                    )
                    diverted.append((route, sub_rate))
                splits_bps[prefix] = diverted
                remaining = rate * remainder
            assignments[prefix] = best
            loads_bps[key] = loads_bps.get(key, 0.0) + remaining
            per_router_flows[key[0]].append((prefix, remaining, key[1]))

        loads: Dict[InterfaceKey, Rate] = {
            key: Rate(value) for key, value in loads_bps.items()
        }
        drops: Dict[InterfaceKey, Rate] = {}
        dropped_bps = 0.0
        for key, offered in loads.items():
            capacity = pop.capacity_of(key)
            transmitted = offered if offered <= capacity else capacity
            dropped = offered - capacity
            dropped_bps += dropped.bits_per_second
            drops[key] = dropped
            self.metrics.record(
                key,
                InterfaceSample(
                    time=now,
                    offered=offered,
                    capacity=capacity,
                    transmitted=transmitted,
                    dropped=dropped,
                ),
                tick_seconds=self.tick_seconds,
            )
        # Interfaces with zero offered load still get a sample, so
        # "fraction of time overloaded" denominators are honest.
        zero = Rate(0)
        for key in pop.interface_keys():
            if key not in loads:
                capacity = pop.capacity_of(key)
                self.metrics.record(
                    key,
                    InterfaceSample(
                        time=now,
                        offered=zero,
                        capacity=capacity,
                        transmitted=zero,
                        dropped=zero,
                    ),
                    tick_seconds=self.tick_seconds,
                )

        datagrams: Dict[str, List[bytes]] = {}
        datagram_filter = self.datagram_filter
        for router, flow_specs in per_router_flows.items():
            if not flow_specs:
                datagrams[router] = []
                continue
            flows = self.synthesizer.flows(
                iter(flow_specs), self.tick_seconds
            )
            emitted = self.agents[router].observe(flows, now)
            if datagram_filter is not None:
                emitted = datagram_filter(router, emitted)
            datagrams[router] = emitted

        self._m_ticks.inc()
        self._m_offered.set(sum(loads_bps.values()))
        self._m_dropped.set(dropped_bps)
        self._m_unrouted.set(unrouted_bps)
        self._tracer.record(
            "dataplane.tick",
            span_started,
            _time.perf_counter() - span_started,
            {"time": now, "prefixes": len(rates)},
        )
        return TickResult(
            time=now,
            loads=loads,
            drops=drops,
            assignments=assignments,
            splits={
                prefix: [(route, Rate(value)) for route, value in diverted]
                for prefix, diverted in splits_bps.items()
            },
            unrouted=Rate(unrouted_bps),
            datagrams=datagrams,
        )
