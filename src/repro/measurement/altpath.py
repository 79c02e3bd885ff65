"""Alternate-path measurement: randomly route a slice of flows onto
non-preferred paths and compare their performance (paper §5).

Mechanically, production Edge Fabric has servers mark ~1 flow in a few
hundred with one of a handful of DSCP values; policy-based routing rules
on the peering routers map each DSCP value onto the 1st/2nd/3rd-preferred
route for the destination, and the passive monitor attributes the flows'
TCP statistics to the path their DSCP selected.  :class:`DscpPolicy`
captures the DSCP→rank mapping, and :class:`AltPathMonitor` runs the
measurement rounds against the path performance model and aggregates the
comparisons the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..bgp.route import Route
from ..netbase.addr import Prefix
from ..netbase.errors import MeasurementError
from ..topology.entities import InterfaceKey
from .pathmodel import PathPerformanceModel
from .passive import PassiveMonitor, PathStats

__all__ = ["DscpPolicy", "AltPathComparison", "AltPathMonitor"]

#: Callable returning a prefix's routes in decision order (eBGP only).
RouteProvider = Callable[[Prefix], Sequence[Route]]

#: Callable returning an interface's current utilization (0.0 if idle).
UtilizationProvider = Callable[[InterfaceKey], float]


@dataclass(frozen=True)
class DscpPolicy:
    """DSCP value ↔ path-rank mapping enforced by PBR on the routers.

    Rank 0 is the BGP-preferred path; production used a small number of
    values (the paper measures the top few alternates).
    """

    dscp_of_rank: tuple = (0, 12, 16, 20)

    def dscp_for(self, rank: int) -> int:
        if not 0 <= rank < len(self.dscp_of_rank):
            raise MeasurementError(f"no DSCP assigned for path rank {rank}")
        return self.dscp_of_rank[rank]

    @property
    def measured_ranks(self) -> int:
        return len(self.dscp_of_rank)


@dataclass(frozen=True)
class AltPathComparison:
    """One prefix's alternate path vs its preferred path."""

    prefix: Prefix
    rank: int  # 1 = second-preferred, 2 = third-preferred ...
    preferred_session: str
    alternate_session: str
    median_rtt_delta_ms: float  # alternate minus preferred
    retransmit_delta: float
    preferred: PathStats
    alternate: PathStats


class AltPathMonitor:
    """Runs alternate-path measurement rounds and aggregates results."""

    def __init__(
        self,
        routes_of: RouteProvider,
        model: PathPerformanceModel,
        egress_interface_of: Callable[[Route], InterfaceKey],
        policy: DscpPolicy = DscpPolicy(),
        flows_per_round: int = 40,
        seed: int = 0,
    ) -> None:
        self.routes_of = routes_of
        self.model = model
        self.egress_interface_of = egress_interface_of
        self.policy = policy
        self.flows_per_round = flows_per_round
        self.monitor = PassiveMonitor()
        self._rng = np.random.default_rng(seed)

    def measure_round(
        self,
        prefixes: Sequence[Prefix],
        utilization_of: UtilizationProvider = lambda _key: 0.0,
    ) -> int:
        """Measure each prefix's top paths once; returns paths measured."""
        measured = 0
        for prefix in prefixes:
            routes = [
                route
                for route in self.routes_of(prefix)
                if not route.is_injected
            ]
            if not routes:
                continue
            for rank, route in enumerate(
                routes[: self.policy.measured_ranks]
            ):
                utilization = utilization_of(
                    self.egress_interface_of(route)
                )
                rtts, retx = self.model.sample_flows(
                    prefix,
                    route.source.name,
                    utilization,
                    self.flows_per_round,
                    self._rng,
                    preferred=(rank == 0),
                )
                self.monitor.record(prefix, route.source.name, rtts, retx)
                measured += 1
        return measured

    # -- aggregation -----------------------------------------------------------

    def comparisons(self) -> List[AltPathComparison]:
        """All (alternate vs preferred) comparisons with data on both sides.

        Path identity (which session is preferred) is re-derived from the
        route provider at aggregation time, mirroring how production joins
        its measurement tables against current routing.
        """
        results: List[AltPathComparison] = []
        for prefix in self.monitor.prefixes():
            routes = [
                route
                for route in self.routes_of(prefix)
                if not route.is_injected
            ]
            if len(routes) < 2:
                continue
            preferred_stats = self.monitor.stats(
                prefix, routes[0].source.name
            )
            if preferred_stats is None:
                continue
            for rank, route in enumerate(
                routes[1 : self.policy.measured_ranks], start=1
            ):
                alt_stats = self.monitor.stats(prefix, route.source.name)
                if alt_stats is None:
                    continue
                results.append(
                    AltPathComparison(
                        prefix=prefix,
                        rank=rank,
                        preferred_session=routes[0].source.name,
                        alternate_session=route.source.name,
                        median_rtt_delta_ms=(
                            alt_stats.median_rtt_ms
                            - preferred_stats.median_rtt_ms
                        ),
                        retransmit_delta=(
                            alt_stats.retransmit_rate
                            - preferred_stats.retransmit_rate
                        ),
                        preferred=preferred_stats,
                        alternate=alt_stats,
                    )
                )
        return results

    def rtt_deltas_by_rank(self) -> Dict[int, List[float]]:
        """Median-RTT deltas grouped by alternate rank (for the CDFs)."""
        grouped: Dict[int, List[float]] = {}
        for comparison in self.comparisons():
            grouped.setdefault(comparison.rank, []).append(
                comparison.median_rtt_delta_ms
            )
        return grouped
