"""PopView: the converged PoP-wide routing state.

Production PoPs run an iBGP mesh between peering routers, so every PR ends
up able to use the best route the *PoP* has, not just its own sessions.
Rather than simulating the mesh message-by-message, :class:`PopView`
subscribes to every PR speaker's route events and maintains the merged
RIB the mesh would converge to.  Injected (Edge Fabric) routes arrive
through PR sessions like any other route and win on LOCAL_PREF, so the
view's best path *is* the PoP's forwarding decision.

The view also memoizes the dataplane's hottest query — prefix to
(best route, egress interface) plus the injected more-specifics that
split traffic off it — keyed on the RIB's mutation counter, so the
per-tick forwarding loop costs one dict probe per prefix between route
changes and stays exactly equivalent to a fresh decision after any
churn.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..bgp.rib import LocRib
from ..bgp.route import Route
from ..bgp.speaker import BgpSpeaker, RouteEvent
from ..netbase.addr import Family, Prefix
from ..topology.entities import InterfaceKey, PoP
from .fib import egress_interface

__all__ = ["PopView"]


class PopView:
    """Merged multi-router RIB, kept current by speaker subscriptions."""

    def __init__(self, speakers: Iterable[BgpSpeaker]) -> None:
        self.rib = LocRib()
        self._speakers = list(speakers)
        # prefix -> ((best route, egress interface) | None, injected
        # more-specifics), valid only while the RIB version matches
        # _egress_version.
        self._egress_cache: Dict[
            Prefix,
            Tuple[Optional[Tuple[Route, InterfaceKey]], Tuple[Route, ...]],
        ] = {}
        self._route_egress: Dict[Route, InterfaceKey] = {}
        self._egress_version = -1
        for speaker in self._speakers:
            self._sync_existing(speaker)
            speaker.subscribe(self._on_event)

    def _sync_existing(self, speaker: BgpSpeaker) -> None:
        for session in speaker.sessions():
            for route in session.adj_rib_in.routes():
                self.rib.update(route)

    def _on_event(self, _speaker: BgpSpeaker, event: RouteEvent) -> None:
        if event.withdrawn or event.route is None:
            self.rib.withdraw(event.prefix, event.peer)
        else:
            self.rib.update(event.route)

    # -- queries ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """The underlying RIB's mutation counter."""
        return self.rib.version

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self.rib.best(prefix)

    def routes_for(self, prefix: Prefix) -> List[Route]:
        return self.rib.routes_for(prefix)

    def prefixes(self, family: Optional[Family] = None):
        return self.rib.prefixes(family)

    def longest_match(self, target: Prefix) -> Optional[Route]:
        return self.rib.longest_match(target)

    def has_injected_routes(self) -> bool:
        """True if any injected (Edge Fabric) route is currently held."""
        return self.rib.injected_route_count > 0

    def injected_specifics(self, covering: Prefix) -> List[Route]:
        """Injected more-specifics whose traffic splits off *covering*.

        When the controller announces a more-specific of a demanded
        prefix, longest-prefix match diverts that subnet's share of the
        traffic — the splitting mechanism the paper describes for
        prefixes too large to move whole.  The walk is over the RIB's
        injected-prefix trie (a handful of entries), never the route
        table, and returns immediately with zero injected routes.
        """
        return self.rib.injected_under(covering)

    # -- cached egress resolution ---------------------------------------------

    def _check_cache_version(self) -> None:
        version = self.rib.version
        if version != self._egress_version:
            self._egress_cache.clear()
            self._route_egress.clear()
            self._egress_version = version

    def resolve_egress(
        self, prefix: Prefix, pop: PoP
    ) -> Optional[Tuple[Route, InterfaceKey]]:
        """Cached prefix -> (best route, egress interface) resolution.

        Returns None for unrouted prefixes.
        """
        return self.resolve_forwarding(prefix, pop)[0]

    def resolve_forwarding(
        self, prefix: Prefix, pop: PoP
    ) -> Tuple[Optional[Tuple[Route, InterfaceKey]], Tuple[Route, ...]]:
        """Cached prefix -> (:meth:`resolve_egress`,
        :meth:`injected_specifics` as a tuple) — everything the
        forwarding loop needs for one demanded prefix, in one dict probe.

        Invalidation is wholesale on any RIB mutation: churn is rare
        relative to ticks, and a full rebuild keeps the cache provably
        equal to a fresh decision.
        """
        self._check_cache_version()
        try:
            return self._egress_cache[prefix]
        except KeyError:
            pass
        best = self.rib.best(prefix)
        if (
            best is not None
            and not best.is_injected
            and self.rib.injected_route_count
        ):
            # Aggregated overrides: a detour installed at a covering
            # prefix applies to every routed prefix beneath it (the
            # injected route wins on LOCAL_PREF for the whole block).
            covering = self.rib.injected_covering(prefix)
            if covering is not None:
                best = covering
        entry = (
            None if best is None else (best, egress_interface(pop, best)),
            tuple(self.injected_specifics(prefix)),
        )
        self._egress_cache[prefix] = entry
        return entry

    def egress_of(self, route: Route, pop: PoP) -> InterfaceKey:
        """Cached per-route egress interface (injected splits use this)."""
        self._check_cache_version()
        key = self._route_egress.get(route)
        if key is None:
            key = egress_interface(pop, route)
            self._route_egress[route] = key
        return key

    def route_count(self) -> int:
        return self.rib.route_count()

    def __len__(self) -> int:
        return len(self.rib)
