"""The detour allocator — the heart of Edge Fabric.

Given the BGP-only projection, the allocator walks every interface whose
projected load exceeds the utilization threshold and moves prefixes, one
at a time, onto alternate routes until the interface is back under the
threshold.  Key properties, all from the paper:

- **Alternates are chosen in BGP preference order**: a detoured prefix
  goes to the route BGP would have picked next, provided that route's
  interface has spare projected capacity (including the detours already
  decided this cycle).
- **Heaviest-first**: moving big prefixes first minimizes the number of
  overrides (and therefore injected routes / churn) needed to relieve an
  interface.
- **Stateless with stability**: the full detour set is recomputed from
  scratch each cycle; but if a prefix was detoured last cycle and its old
  target is still valid, the allocator keeps it, avoiding needless
  flapping between equivalent alternates.
- **Never create a new overload**: a move is only allowed if the target
  stays under the threshold; if no alternate fits, the overload is
  reported unresolved (production pages a human).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bgp.route import Route
from ..dataplane.fib import egress_interface
from ..netbase.addr import Prefix
from ..netbase.units import Rate, mbps
from ..topology.entities import InterfaceKey, PoP
from .config import ControllerConfig
from .inputs import ControllerInputs
from .projection import Placement, Projection

__all__ = ["Detour", "AllocationResult", "Allocator", "MIN_DETOUR_RATE"]

#: Prefixes below this rate are never detoured (not worth an override;
#: mirrors production's focus on the heavy hitters).
MIN_DETOUR_RATE = mbps(1)


@dataclass(frozen=True)
class Detour:
    """One prefix moved off its preferred route for this cycle."""

    prefix: Prefix
    rate: Rate
    preferred: Route
    target: Route
    from_interface: InterfaceKey
    to_interface: InterfaceKey

    @property
    def target_session(self) -> str:
        return self.target.source.name


@dataclass
class AllocationResult:
    """Everything one allocator pass decided."""

    detours: Dict[Prefix, Detour] = field(default_factory=dict)
    #: Projected loads after applying this cycle's detours.
    final_loads: Dict[InterfaceKey, Rate] = field(default_factory=dict)
    #: Interfaces still over the threshold after all possible moves.
    unresolved: List[InterfaceKey] = field(default_factory=list)
    #: Interfaces that were over threshold before allocation.
    overloaded_before: List[InterfaceKey] = field(default_factory=list)

    def detoured_rate(self) -> Rate:
        total = Rate(0)
        for detour in self.detours.values():
            total = total + detour.rate
        return total


class Allocator:
    """Stateless per-cycle detour computation."""

    def __init__(self, pop: PoP, config: ControllerConfig) -> None:
        self.pop = pop
        self.config = config

    def allocate(
        self,
        projection: Projection,
        inputs: ControllerInputs,
        previous_targets: Optional[Dict[Prefix, str]] = None,
    ) -> AllocationResult:
        """Compute this cycle's detours.

        *previous_targets* maps prefixes detoured last cycle to the
        session name they were detoured to (for the stability
        preference).

        *projection* may be the classic :class:`Projection` or an
        :class:`~.projection.IncrementalProjection` — anything exposing
        ``loads``/``prefixes_on``/``overloaded``.  The allocator itself
        only does work proportional to the overloaded interfaces'
        candidate lists: with nothing over threshold it returns
        immediately, which is the steady-state fast path of the
        incremental engine.
        """
        previous_targets = previous_targets or {}
        result = AllocationResult()
        threshold = self.config.utilization_threshold
        overloaded = projection.overloaded(inputs.capacities, threshold)
        loads: Dict[InterfaceKey, Rate] = dict(projection.loads)
        if not overloaded:
            result.final_loads = loads
            return result
        result.overloaded_before = list(overloaded)
        new_detour_budget = self.config.max_new_detours_per_cycle

        for key in overloaded:
            capacity = inputs.capacities[key]
            limit_bps = capacity.bits_per_second * threshold
            candidates = projection.prefixes_on(key)
            for placement in candidates:
                if loads[key].bits_per_second <= limit_bps:
                    break
                if placement.rate < MIN_DETOUR_RATE:
                    # Candidates are heaviest-first; everything after
                    # this one is smaller still.
                    break
                is_new = placement.prefix not in previous_targets
                if (
                    is_new
                    and new_detour_budget is not None
                    and new_detour_budget <= 0
                ):
                    continue
                detour = self._find_detour(
                    placement,
                    loads,
                    inputs,
                    previous_targets.get(placement.prefix),
                )
                if detour is None:
                    if self.config.allow_prefix_splitting:
                        halves = self._split_detours(
                            placement, loads, inputs
                        )
                        for half in halves:
                            loads[half.from_interface] = (
                                loads[half.from_interface] - half.rate
                            )
                            loads[half.to_interface] = (
                                loads.get(half.to_interface, Rate(0))
                                + half.rate
                            )
                            result.detours[half.prefix] = half
                        if halves and is_new:
                            if new_detour_budget is not None:
                                new_detour_budget -= 1
                    continue
                if is_new and new_detour_budget is not None:
                    new_detour_budget -= 1
                loads[detour.from_interface] = (
                    loads[detour.from_interface] - detour.rate
                )
                loads[detour.to_interface] = (
                    loads.get(detour.to_interface, Rate(0)) + detour.rate
                )
                result.detours[placement.prefix] = detour
            if loads[key].bits_per_second > limit_bps:
                result.unresolved.append(key)

        result.final_loads = loads
        return result

    # -- detour target selection ------------------------------------------------

    def _find_detour(
        self,
        placement: Placement,
        loads: Dict[InterfaceKey, Rate],
        inputs: ControllerInputs,
        previous_session: Optional[str],
    ) -> Optional[Detour]:
        routes = inputs.routes_of(placement.prefix)
        alternates = [
            route for route in routes if route != placement.route
        ]
        if not alternates:
            return None
        ordered = alternates
        if self.config.stability_preference and previous_session:
            sticky = [
                route
                for route in alternates
                if route.source.name == previous_session
            ]
            if sticky:
                ordered = sticky + [
                    route for route in alternates if route not in sticky
                ]
        for route in ordered:
            target_key = egress_interface(self.pop, route)
            if target_key == placement.interface:
                # Another session on the same saturated interface is no
                # relief (e.g. two public peers behind one IXP port).
                continue
            if self._fits(route, target_key, placement.rate, loads, inputs):
                return Detour(
                    prefix=placement.prefix,
                    rate=placement.rate,
                    preferred=placement.route,
                    target=route,
                    from_interface=placement.interface,
                    to_interface=target_key,
                )
        return None

    def _split_detours(
        self,
        placement: Placement,
        loads: Dict[InterfaceKey, Rate],
        inputs: ControllerInputs,
    ) -> List[Detour]:
        """Detour more-specific halves of a prefix too big to move whole.

        Announcing a half as a more-specific diverts (by longest-prefix
        match) half the prefix's traffic, so each half is a rate/2
        detour that may fit where the whole did not.  Halves are placed
        independently; a half that fits nowhere stays on the preferred
        path.
        """
        prefix = placement.prefix
        if prefix.length >= prefix.family.max_length:
            return []
        half_rate = placement.rate / 2.0
        if half_rate < MIN_DETOUR_RATE:
            return []
        routes = inputs.routes_of(prefix)
        alternates = [r for r in routes if r != placement.route]
        placed: List[Detour] = []
        working = dict(loads)
        for half in prefix.subnets():
            for route in alternates:
                target_key = egress_interface(self.pop, route)
                if target_key == placement.interface:
                    continue
                if self._fits(
                    route, target_key, half_rate, working, inputs
                ):
                    detour = Detour(
                        prefix=half,
                        rate=half_rate,
                        preferred=placement.route,
                        target=route,
                        from_interface=placement.interface,
                        to_interface=target_key,
                    )
                    placed.append(detour)
                    working[target_key] = (
                        working.get(target_key, Rate(0)) + half_rate
                    )
                    break
        return placed

    def _fits(
        self,
        _route: Route,
        target_key: InterfaceKey,
        rate: Rate,
        loads: Dict[InterfaceKey, Rate],
        inputs: ControllerInputs,
    ) -> bool:
        capacity = inputs.capacities.get(target_key)
        if capacity is None or capacity.is_zero():
            return False
        limit = capacity.bits_per_second * self.config.utilization_threshold
        projected = loads.get(target_key, Rate(0)).bits_per_second
        return projected + rate.bits_per_second <= limit
