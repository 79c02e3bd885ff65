"""Controller input snapshots with staleness guards.

The controller is only safe if it acts on a current picture of the
network: detouring based on stale traffic can push an interface *into*
overload.  :class:`InputAssembler` gathers one consistent snapshot per
cycle — the multi-route RIB from the BMP collector and per-prefix rates
from the sFlow collector — and refuses (raises
:class:`~repro.netbase.errors.StaleInputError`) when either source is too
old, which the controller turns into a skipped cycle and, after enough
consecutive skips, a fail-static withdrawal of every override.

:meth:`InputAssembler.freshness` exposes the same judgement without the
exception, so health checks and the chaos report can ask "how stale are
we?" outside a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..bgp.route import Route
from ..bmp.collector import BmpCollector
from ..netbase.addr import Prefix
from ..netbase.errors import StaleInputError
from ..netbase.units import Rate
from ..sflow.collector import SflowCollector
from ..topology.entities import InterfaceKey, PoP
from .config import ControllerConfig

__all__ = ["ControllerInputs", "FreshnessReport", "InputAssembler"]


@dataclass(frozen=True)
class FreshnessReport:
    """How old each input source is, against the staleness bound."""

    taken_at: float
    route_age: float
    traffic_age: float
    max_age: float
    #: Extra apparent age applied to both sources (clock-skew faults).
    age_penalty: float = 0.0

    @property
    def routes_stale(self) -> bool:
        return self.route_age > self.max_age

    @property
    def traffic_stale(self) -> bool:
        return self.traffic_age > self.max_age

    @property
    def stale(self) -> bool:
        return self.routes_stale or self.traffic_stale

    @property
    def reason(self) -> str:
        """Operator-facing description of what is stale (or '')."""
        parts = []
        if self.routes_stale:
            parts.append(
                f"route feed is {self.route_age:.0f}s old "
                f"(limit {self.max_age:.0f}s)"
            )
        if self.traffic_stale:
            parts.append(
                "no traffic measurements within the staleness bound"
            )
        return "; ".join(parts)


@dataclass
class ControllerInputs:
    """One cycle's consistent view of routes, traffic and capacity."""

    taken_at: float
    traffic: Dict[Prefix, Rate]
    capacities: Dict[InterfaceKey, Rate]
    _collector: BmpCollector = field(repr=False, default=None)
    freshness: Optional[FreshnessReport] = field(
        repr=False, compare=False, default=None
    )
    #: Prefixes whose routes or rate may differ from the previous
    #: snapshot.  ``None`` means "unknown — treat everything as dirty"
    #: (a full snapshot); an incremental snapshot guarantees every
    #: prefix *not* listed has identical routes and an identical rate.
    dirty_prefixes: Optional[Set[Prefix]] = field(
        repr=False, compare=False, default=None
    )
    #: Pre-accumulated total of :attr:`traffic` in bits/second,
    #: maintained by the assembler so reporting needn't re-sum the full
    #: table every cycle.  ``None`` falls back to summing.
    _total_bps: Optional[float] = field(
        repr=False, compare=False, default=None
    )

    def routes_of(self, prefix: Prefix) -> List[Route]:
        """Available eBGP routes for *prefix*, decision-ranked.

        Injected routes never appear (the exporter filters the injector's
        sessions and the collector drops INJECTED-tagged announcements),
        so this is the BGP-only view the projection needs.
        """
        return [
            route
            for route in self._collector.routes_for(prefix)
            if not route.is_injected
        ]

    def total_traffic(self) -> Rate:
        if self._total_bps is not None:
            return Rate(self._total_bps)
        return Rate(
            sum(rate.bits_per_second for rate in self.traffic.values())
        )


class InputAssembler:
    """Builds per-cycle snapshots and enforces freshness."""

    def __init__(
        self,
        pop: PoP,
        bmp: BmpCollector,
        sflow: SflowCollector,
        config: ControllerConfig = ControllerConfig(),
    ) -> None:
        self.pop = pop
        self.bmp = bmp
        self.sflow = sflow
        self.config = config
        self._capacities = {
            interface.key: interface.capacity
            for interface in pop.interfaces()
        }
        #: Extra seconds added to both input ages before the staleness
        #: comparison.  Models a skewed/stuck snapshot clock (fault
        #: injection) or a known pipeline delay; 0.0 in normal operation.
        self.input_age_penalty: float = 0.0
        # Incremental-snapshot state: the maintained traffic table, when
        # it was last brought current, which RIB (by identity — a BMP
        # reset swaps the object) and RIB version it reflects, and a
        # running bits/second total.  ``_force_full`` poisons the next
        # snapshot after anything the delta path can't express (capacity
        # edits, external resets).
        self._traffic: Dict[Prefix, Rate] = {}
        self._total_bps: float = 0.0
        self._last_snapshot_at: Optional[float] = None
        self._last_rib_version: int = 0
        self._rib_seen: Optional[int] = None
        self._force_full: bool = True
        #: Diagnostics: how many snapshots took each path.
        self.full_snapshots = 0
        self.incremental_snapshots = 0

    def set_capacity(self, key: InterfaceKey, capacity: Rate) -> None:
        """Update the controller's capacity table for one interface.

        The interface must already be known (capacity changes model
        augments and failures, not new ports); unknown keys raise
        ``KeyError`` rather than silently growing the table.
        """
        if key not in self._capacities:
            raise KeyError(f"unknown interface {key}")
        self._capacities[key] = capacity
        # A capacity change moves threshold bands out from under the
        # incremental projection; make the next cycle start clean.
        self._force_full = True

    def force_full_snapshot(self) -> None:
        """Make the next :meth:`snapshot` take the full path."""
        self._force_full = True

    def capacity_of(self, key: InterfaceKey) -> Rate:
        return self._capacities[key]

    def freshness(self, now: float) -> FreshnessReport:
        """Judge input freshness at *now* without raising."""
        penalty = self.input_age_penalty
        return FreshnessReport(
            taken_at=now,
            route_age=self.bmp.age() + penalty,
            traffic_age=self.sflow.age(now) + penalty,
            max_age=self.config.max_input_age_seconds,
            age_penalty=penalty,
        )

    def snapshot(self, now: float) -> ControllerInputs:
        """Assemble inputs for a cycle starting at *now*.

        With :attr:`ControllerConfig.incremental_engine` on, successive
        snapshots reuse the maintained traffic table and carry a
        ``dirty_prefixes`` delta; anything the delta path cannot express
        (first cycle, BMP reset, journal overflow, capacity edits,
        ``--full-recompute``) falls back to a from-scratch snapshot with
        ``dirty_prefixes=None``.  Either way the traffic dict's contents
        are identical to a full ``sflow.prefix_rates(now)`` pass.

        The returned ``traffic`` mapping is the assembler's live table:
        it is valid until the next ``snapshot`` call and must not be
        mutated by the caller.
        """
        freshness = self.freshness(now)
        if freshness.stale:
            raise StaleInputError(freshness.reason)
        dirty = self._refresh_traffic(now)
        if dirty is None:
            self.full_snapshots += 1
        else:
            self.incremental_snapshots += 1
        self._last_snapshot_at = now
        self._last_rib_version = self.bmp.rib.version
        self._rib_seen = id(self.bmp.rib)
        self._force_full = False
        return ControllerInputs(
            taken_at=now,
            traffic=self._traffic,
            capacities=dict(self._capacities),
            _collector=self.bmp,
            freshness=freshness,
            dirty_prefixes=dirty,
            _total_bps=self._total_bps,
        )

    def _refresh_traffic(self, now: float) -> Optional[Set[Prefix]]:
        """Bring the maintained traffic table current.

        Returns the dirty prefixes (rate or route churn), or ``None``
        when only a full rebuild was possible.
        """
        rib = self.bmp.rib
        if (
            not self.config.incremental_engine
            or self._force_full
            or self._last_snapshot_at is None
            or self._rib_seen != id(rib)
        ):
            return self._rebuild_traffic(now)
        changed_rates = self.sflow.changed_prefixes(
            self._last_snapshot_at, now
        )
        if changed_rates is None:
            return self._rebuild_traffic(now)
        changed_routes = rib.changed_since(self._last_rib_version)
        if changed_routes is None:
            return self._rebuild_traffic(now)
        traffic = self._traffic
        total = self._total_bps
        for prefix in changed_rates:
            rate = self.sflow.prefix_rate(prefix, now)
            previous = traffic.get(prefix)
            if previous is not None:
                total -= previous.bits_per_second
            if rate.is_zero():
                if previous is not None:
                    del traffic[prefix]
            else:
                traffic[prefix] = rate
                total += rate.bits_per_second
        self._total_bps = total
        if changed_routes:
            return changed_rates | changed_routes
        return changed_rates

    def _rebuild_traffic(self, now: float) -> None:
        """Rebuild the table from scratch; ``None`` is the no-delta
        answer :meth:`_refresh_traffic` passes on."""
        self._traffic = self.sflow.prefix_rates(now)
        self._total_bps = sum(
            rate.bits_per_second for rate in self._traffic.values()
        )
