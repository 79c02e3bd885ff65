"""Load projection: where would BGP alone put today's traffic?

The controller's first step each cycle assigns every measured prefix's
current rate to the interface its most-preferred (BGP-policy) route would
use, yielding projected per-interface load *absent any intervention*.
This is deliberately independent of any overrides currently in effect —
the controller is stateless across cycles and re-derives the full
override set from this clean projection every time.

Two implementations produce that picture:

- :func:`project` builds it from scratch, touching every measured prefix
  (the reference semantics, and the per-cycle cost ceiling).
- :class:`IncrementalProjection` keeps the picture alive between cycles
  and applies only the snapshot's *dirty* prefixes, so steady-state
  cycle cost tracks churn instead of table size.  Placement decisions
  are identical to :func:`project`; only the per-interface load floats
  may differ at accumulation-order (ulp) scale, which the controller's
  periodic full-reconciliation cycle measures and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from ..bgp.route import Route
from ..dataplane.fib import egress_interface
from ..netbase.addr import Prefix
from ..netbase.intern import Interner
from ..netbase.units import Rate
from ..topology.entities import InterfaceKey, PoP
from .inputs import ControllerInputs

__all__ = ["Placement", "Projection", "IncrementalProjection", "project"]


@dataclass(frozen=True)
class Placement:
    """One prefix's projected assignment."""

    prefix: Prefix
    rate: Rate
    route: Route
    interface: InterfaceKey


@dataclass
class Projection:
    """Projected interface loads plus the per-prefix placements."""

    loads: Dict[InterfaceKey, Rate] = field(default_factory=dict)
    placements: Dict[Prefix, Placement] = field(default_factory=dict)
    #: Traffic for prefixes with no route at all (should be ~zero).
    unplaceable: Rate = Rate(0)

    def load_on(self, key: InterfaceKey) -> Rate:
        return self.loads.get(key, Rate(0))

    def prefixes_on(self, key: InterfaceKey) -> List[Placement]:
        """Placements assigned to one interface, heaviest first."""
        placements = [
            placement
            for placement in self.placements.values()
            if placement.interface == key
        ]
        placements.sort(key=lambda p: (-p.rate.bits_per_second, p.prefix))
        return placements

    def overloaded(
        self,
        capacities: Dict[InterfaceKey, Rate],
        threshold: float,
    ) -> List[InterfaceKey]:
        """Interfaces whose projected load exceeds threshold x capacity,
        most-overloaded (by absolute excess) first."""
        excesses = []
        for key, load in self.loads.items():
            capacity = capacities.get(key)
            if capacity is None or capacity.is_zero():
                continue
            limit = capacity.bits_per_second * threshold
            excess = load.bits_per_second - limit
            if excess > 0:
                excesses.append((excess, key))
        excesses.sort(key=lambda pair: (-pair[0], pair[1]))
        return [key for _excess, key in excesses]


class IncrementalProjection:
    """A :class:`Projection` maintained across cycles by applying deltas.

    Exposes the same query surface the allocator consumes (``loads``,
    ``placements``, ``unplaceable``, :meth:`load_on`, :meth:`prefixes_on`,
    :meth:`overloaded`) plus the mutation half: :meth:`rebuild` replays
    the full table with arithmetic identical to :func:`project`, and
    :meth:`apply` re-places only a snapshot's dirty prefixes.
    """

    #: Initial interface-column capacity; doubles on demand.
    _INITIAL_CAPACITY = 16

    def __init__(self, pop: PoP) -> None:
        self.pop = pop
        self.placements: Dict[Prefix, Placement] = {}
        # Columnar interface loads: interfaces are interned into dense
        # slots and per-interface bits/second live in a float64 column
        # (with a parallel liveness mask standing in for dict-key
        # presence), so drift comparison and utilization checks are
        # vectorized.  Element-wise float64 ops are the identical IEEE
        # operations the dict accumulation performed, so the loads stay
        # bit-for-bit equal to :func:`project`.
        self._ifaces: Interner[InterfaceKey] = Interner()
        # The load column and liveness mask are id-indexed, so the
        # projection registers as an interner consumer: any id-space
        # wipe must go through reset(), which drops the columns via
        # _invalidate_columns first (Interner.clear() would raise).
        self._ifaces.register_consumer(self._invalidate_columns)
        self._loads_col = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._live = np.zeros(self._INITIAL_CAPACITY, dtype=bool)
        self._by_interface: Dict[InterfaceKey, Dict[Prefix, Placement]] = {}
        self._sorted_cache: Dict[InterfaceKey, List[Placement]] = {}
        self._unplaceable_bps: Dict[Prefix, float] = {}
        self._unplaceable_total = 0.0

    def _invalidate_columns(self) -> None:
        """Drop every id-indexed structure (interner consumer hook)."""
        self._loads_col = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._live = np.zeros(self._INITIAL_CAPACITY, dtype=bool)
        self._by_interface = {}
        self._sorted_cache = {}

    def _slot_for(self, key: InterfaceKey) -> int:
        slot = self._ifaces.intern(key)
        if slot == len(self._loads_col):
            grown = len(self._loads_col) * 2
            loads = np.zeros(grown, dtype=np.float64)
            loads[:slot] = self._loads_col
            live = np.zeros(grown, dtype=bool)
            live[:slot] = self._live
            self._loads_col = loads
            self._live = live
        return slot

    # -- projection queries (the allocator's view) ---------------------------

    @property
    def loads(self) -> Dict[InterfaceKey, Rate]:
        table = self._ifaces.keys
        unboxed = self._loads_col.tolist()
        return {
            table[slot]: Rate(unboxed[slot])
            for slot in np.nonzero(self._live)[0].tolist()
        }

    @property
    def unplaceable(self) -> Rate:
        return Rate(self._unplaceable_total)

    def load_on(self, key: InterfaceKey) -> Rate:
        slot = self._ifaces.id_of(key)
        if slot is None or not self._live[slot]:
            return Rate(0.0)
        return Rate(self._loads_col[slot].item())

    def prefixes_on(self, key: InterfaceKey) -> List[Placement]:
        """Placements assigned to one interface, heaviest first.

        Sorted once per (interface, churn) rather than scanning the full
        placement table the way :meth:`Projection.prefixes_on` does; the
        resulting list is identical.
        """
        cached = self._sorted_cache.get(key)
        if cached is None:
            holders = self._by_interface.get(key)
            cached = list(holders.values()) if holders else []
            cached.sort(key=lambda p: (-p.rate.bits_per_second, p.prefix))
            self._sorted_cache[key] = cached
        return list(cached)

    def overloaded(
        self,
        capacities: Dict[InterfaceKey, Rate],
        threshold: float,
    ) -> List[InterfaceKey]:
        """Same contract as :meth:`Projection.overloaded`."""
        count = len(self._ifaces)
        if count == 0:
            return []
        table = self._ifaces.keys
        caps = np.zeros(count, dtype=np.float64)
        for slot in np.nonzero(self._live[:count])[0].tolist():
            capacity = capacities.get(table[slot])
            if capacity is not None and not capacity.is_zero():
                caps[slot] = capacity.bits_per_second
        # Vectorized `load - capacity * threshold`: element-wise float64,
        # identical to the per-key arithmetic it replaces.  Slots with no
        # (or zero) capacity keep caps == 0 and are masked out below.
        excess = self._loads_col[:count] - caps * threshold
        mask = self._live[:count] & (caps > 0.0) & (excess > 0.0)
        unboxed = excess.tolist()
        excesses = [
            (unboxed[slot], table[slot])
            for slot in np.nonzero(mask)[0].tolist()
        ]
        excesses.sort(key=lambda pair: (-pair[0], pair[1]))
        return [key for _excess, key in excesses]

    # -- mutation -------------------------------------------------------------

    def rebuild(self, inputs: ControllerInputs) -> Dict[InterfaceKey, float]:
        """Replay the full table; returns relative drift per interface.

        The replay iterates ``inputs.traffic`` in table order with the
        exact accumulation :func:`project` performs, so the rebuilt
        floats equal a from-scratch projection bit for bit.  The return
        value compares the incrementally-maintained loads this object
        held *before* the rebuild against the replayed truth: relative
        disagreement per interface, for the controller's drift guard
        (empty on the first build).
        """
        before_count = len(self._ifaces)
        before_col = self._loads_col[:before_count].copy()
        had_state = bool(self._live.any()) or bool(self.placements)
        self.placements = {}
        self._loads_col[:] = 0.0
        self._live[:] = False
        self._by_interface = {}
        self._sorted_cache = {}
        self._unplaceable_bps = {}
        unplaceable_total = 0.0
        loads_col = self._loads_col
        live = self._live
        for prefix, rate in inputs.traffic.items():
            routes = inputs.routes_of(prefix)
            if not routes:
                bps = rate.bits_per_second
                self._unplaceable_bps[prefix] = bps
                unplaceable_total += bps
                continue
            preferred = routes[0]
            key = egress_interface(self.pop, preferred)
            slot = self._slot_for(key)
            if loads_col is not self._loads_col:
                loads_col = self._loads_col
                live = self._live
            loads_col[slot] += rate.bits_per_second
            live[slot] = True
            placement = Placement(
                prefix=prefix, rate=rate, route=preferred, interface=key
            )
            self.placements[prefix] = placement
            holders = self._by_interface.get(key)
            if holders is None:
                holders = {}
                self._by_interface[key] = holders
            holders[prefix] = placement
        self._unplaceable_total = unplaceable_total
        drift: Dict[InterfaceKey, float] = {}
        if had_state:
            count = len(self._ifaces)
            truth = self._loads_col[:count]
            held = np.zeros(count, dtype=np.float64)
            held[:before_count] = before_col
            # Vectorized |truth - held| / max(|truth|, |held|, 1.0):
            # element-wise float64, identical to the scalar arithmetic.
            # Slots dead in both snapshots hold 0.0 in both columns and
            # fall out through the `> 0.0` filter, exactly as keys
            # absent from both dicts never entered the old loop.
            scale = np.maximum(np.maximum(np.abs(truth), np.abs(held)), 1.0)
            relative = np.abs(truth - held) / scale
            table = self._ifaces.keys
            unboxed = relative.tolist()
            for slot in np.nonzero(relative > 0.0)[0].tolist():
                drift[table[slot]] = unboxed[slot]
        return drift

    def apply(self, inputs: ControllerInputs) -> None:
        """Re-place only the snapshot's dirty prefixes.

        Dirty prefixes are processed in sorted order so the float
        adjustments accumulate identically run to run regardless of set
        iteration order.
        """
        dirty = inputs.dirty_prefixes
        if dirty is None:
            raise ValueError("apply() needs an incremental snapshot")
        traffic = inputs.traffic
        for prefix in sorted(dirty):
            old = self.placements.pop(prefix, None)
            if old is not None:
                old_key = old.interface
                old_slot = self._ifaces.id_of(old_key)
                assert old_slot is not None
                self._loads_col[old_slot] -= old.rate.bits_per_second
                holders = self._by_interface[old_key]
                del holders[prefix]
                self._sorted_cache.pop(old_key, None)
                if not holders:
                    # Retire the empty interface entirely so a rebuilt
                    # projection (which would never create the key)
                    # agrees on which interfaces carry load, instead of
                    # leaving an ulp-scale float residue behind.
                    del self._by_interface[old_key]
                    self._live[old_slot] = False
                    self._loads_col[old_slot] = 0.0
            else:
                stale = self._unplaceable_bps.pop(prefix, None)
                if stale is not None:
                    self._unplaceable_total -= stale
            rate = traffic.get(prefix)
            if rate is not None:
                routes = inputs.routes_of(prefix)
                if not routes:
                    bps = rate.bits_per_second
                    self._unplaceable_bps[prefix] = bps
                    self._unplaceable_total += bps
                else:
                    preferred = routes[0]
                    key = egress_interface(self.pop, preferred)
                    slot = self._slot_for(key)
                    # Retired slots were zeroed, so += restarts from
                    # exactly the 0.0 a fresh dict entry would hold.
                    self._loads_col[slot] += rate.bits_per_second
                    self._live[slot] = True
                    new = Placement(
                        prefix=prefix,
                        rate=rate,
                        route=preferred,
                        interface=key,
                    )
                    self.placements[prefix] = new
                    holders = self._by_interface.get(key)
                    if holders is None:
                        holders = {}
                        self._by_interface[key] = holders
                    holders[prefix] = new
                    self._sorted_cache.pop(key, None)


def project(pop: PoP, inputs: ControllerInputs) -> Projection:
    """Build the BGP-only projection for one cycle.

    Loads accumulate as plain bits/second floats (one :class:`Rate` per
    interface at the end) — this runs over every measured prefix every
    cycle.
    """
    projection = Projection()
    loads_bps: Dict[InterfaceKey, float] = {}
    unplaceable_bps = 0.0
    for prefix, rate in inputs.traffic.items():
        routes = inputs.routes_of(prefix)
        if not routes:
            unplaceable_bps += rate.bits_per_second
            continue
        preferred: Optional[Route] = routes[0]
        key = egress_interface(pop, preferred)
        loads_bps[key] = loads_bps.get(key, 0.0) + rate.bits_per_second
        projection.placements[prefix] = Placement(
            prefix=prefix, rate=rate, route=preferred, interface=key
        )
    projection.loads = {
        key: Rate(value) for key, value in loads_bps.items()
    }
    projection.unplaceable = Rate(unplaceable_bps)
    return projection
