"""Routing information bases: per-peer Adj-RIB-In and the Loc-RIB.

The Loc-RIB here is deliberately richer than a router's: it keeps *every*
accepted route per prefix and can return them in decision-process order.
That is the view Edge Fabric needs — the paper's controller consumes the
Adj-RIB-In of every peering session (via BMP) precisely because the
routers' own Loc-RIBs hide the alternatives the allocator wants to detour
onto.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from ..netbase.addr import Family, Prefix
from ..netbase.errors import RibError
from ..netbase.trie import PrefixMap
from .decision import DecisionConfig, DEFAULT_CONFIG, best_route, rank_routes
from .peering import PeerDescriptor
from .route import Route

__all__ = ["AdjRibIn", "RibChange", "LocRib"]

#: Mutations the delta journal retains.  The controller reads the journal
#: once per ~30 s cycle, so the cap only matters when a single cycle sees
#: more churn than this — at which point an incremental reader is no
#: cheaper than a full pass anyway and :meth:`LocRib.changed_since`
#: signals "resynchronize" by returning ``None``.
DEFAULT_JOURNAL_LIMIT = 262_144


class AdjRibIn:
    """Routes learned from a single peer, post-import-policy."""

    def __init__(self, peer: PeerDescriptor) -> None:
        self.peer = peer
        self._routes: PrefixMap[Route] = PrefixMap()

    def update(self, route: Route) -> Optional[Route]:
        """Install an announcement; returns the route it replaced, if any."""
        if route.source != self.peer:
            raise RibError(
                f"route from {route.source.name} offered to Adj-RIB-In "
                f"of {self.peer.name}"
            )
        previous = self._routes.get(route.prefix)
        self._routes[route.prefix] = route
        return previous

    def withdraw(self, prefix: Prefix) -> Optional[Route]:
        """Remove a route; returns it, or None if we had none (BGP allows
        withdrawing routes the receiver never accepted)."""
        return self._routes.pop(prefix, None)

    def get(self, prefix: Prefix) -> Optional[Route]:
        return self._routes.get(prefix)

    def routes(self) -> Iterator[Route]:
        yield from self._routes.values()

    def prefixes(self) -> Iterator[Prefix]:
        yield from self._routes.keys()

    def clear(self) -> List[Route]:
        """Drop everything (session down); returns the dropped routes."""
        dropped = list(self._routes.values())
        self._routes.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes


@dataclass(frozen=True)
class RibChange:
    """A best-path change event emitted by the Loc-RIB."""

    prefix: Prefix
    old_best: Optional[Route]
    new_best: Optional[Route]


class LocRib:
    """All accepted routes for all prefixes, with best-path selection.

    Routes are keyed by (prefix, source session): a peer announces at most
    one route per prefix, so a re-announcement replaces the old one
    (implicit withdraw).
    """

    def __init__(
        self,
        config: DecisionConfig = DEFAULT_CONFIG,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> None:
        self._config = config
        self._by_prefix: PrefixMap[Dict[PeerDescriptor, Route]] = PrefixMap()
        self._best_cache: Dict[Prefix, Route] = {}
        # Monotonic mutation counter: bumped on every accepted update or
        # effective withdraw.  Downstream caches (egress resolution,
        # sFlow sample aggregation) key on it to stay exactly equivalent
        # to uncached recomputation.
        self._version = 0
        # The delta journal: one entry per version bump, newest last, so
        # "which prefixes changed since version V" is the last
        # ``version - V`` entries.  The deque's maxlen bounds memory; a
        # reader that falls further behind than the cap gets ``None``
        # from :meth:`changed_since` and must do a full pass.
        self._journal: Deque[Prefix] = deque(maxlen=journal_limit)
        # Live count of injected (Edge Fabric) routes currently held, so
        # the dataplane can skip more-specific trie walks entirely in
        # the common no-overrides case.
        self._injected = 0
        # Per-prefix count of injected holder routes, kept in a trie so
        # "which injected prefix covers this target" is one LPM walk
        # and "which injected prefixes sit under this one" a subtree
        # walk, instead of scans of the route table.  Aggregated
        # override resolution and split-override forwarding key on it.
        self._injected_map: PrefixMap[int] = PrefixMap()
        # Decision-ranked route lists per prefix, invalidated per-prefix
        # on churn: the controller re-reads every prefix's ranking each
        # cycle while the route set barely changes between cycles.
        self._ranked_cache: Dict[Prefix, List[Route]] = {}

    @property
    def decision_config(self) -> DecisionConfig:
        return self._config

    @property
    def version(self) -> int:
        """Monotonic counter of RIB mutations (cache invalidation key)."""
        return self._version

    @property
    def injected_route_count(self) -> int:
        """How many injected routes the RIB currently holds."""
        return self._injected

    # -- mutation -----------------------------------------------------------

    def update(self, route: Route) -> RibChange:
        """Install or replace a route; returns the best-path change."""
        old_best = self._best_cache.get(route.prefix)
        holders = self._by_prefix.get(route.prefix)
        if holders is None:
            holders = {}
            self._by_prefix[route.prefix] = holders
        previous = holders.get(route.source)
        if previous is not None and previous.is_injected:
            self._note_injected(route.prefix, -1)
        if route.is_injected:
            self._note_injected(route.prefix, +1)
        holders[route.source] = route
        new_best = best_route(list(holders.values()), self._config)
        self._set_best(route.prefix, new_best)
        self._version += 1
        self._journal.append(route.prefix)
        self._ranked_cache.pop(route.prefix, None)
        return RibChange(route.prefix, old_best, new_best)

    def withdraw(self, prefix: Prefix, source: PeerDescriptor) -> RibChange:
        """Remove the route *source* announced for *prefix*, if present."""
        old_best = self._best_cache.get(prefix)
        holders = self._by_prefix.get(prefix)
        if holders is None or source not in holders:
            return RibChange(prefix, old_best, old_best)
        removed = holders.pop(source)
        if removed.is_injected:
            self._note_injected(prefix, -1)
        if holders:
            new_best = best_route(list(holders.values()), self._config)
        else:
            self._by_prefix.pop(prefix, None)
            new_best = None
        self._set_best(prefix, new_best)
        self._version += 1
        self._journal.append(prefix)
        self._ranked_cache.pop(prefix, None)
        return RibChange(prefix, old_best, new_best)

    def withdraw_peer(self, source: PeerDescriptor) -> List[RibChange]:
        """Remove every route from one session (session down)."""
        affected = [
            prefix
            for prefix, holders in self._by_prefix.items()
            if source in holders
        ]
        return [self.withdraw(prefix, source) for prefix in affected]

    def load_routes(self, routes: List[Route]) -> None:
        """Bulk-install many routes with one decision pass per prefix.

        Observationally identical to calling :meth:`update` per route —
        the version advances once per route, the journal records every
        prefix in input order, injected accounting matches — but the
        best-path recomputation runs once per *prefix group* instead of
        once per route.  Intermediate bests are unobservable to any
        reader (no query can interleave with the loop), so skipping them
        is sound.  Scale harnesses use this to seed full tables.
        """
        touched: Dict[Prefix, Dict[PeerDescriptor, Route]] = {}
        for route in routes:
            holders = self._by_prefix.get(route.prefix)
            if holders is None:
                holders = {}
                self._by_prefix[route.prefix] = holders
            previous = holders.get(route.source)
            if previous is not None and previous.is_injected:
                self._note_injected(route.prefix, -1)
            if route.is_injected:
                self._note_injected(route.prefix, +1)
            holders[route.source] = route
            self._version += 1
            self._journal.append(route.prefix)
            touched[route.prefix] = holders
        for prefix, holders in touched.items():
            self._set_best(
                prefix, best_route(list(holders.values()), self._config)
            )
            self._ranked_cache.pop(prefix, None)

    def _set_best(self, prefix: Prefix, best: Optional[Route]) -> None:
        if best is None:
            self._best_cache.pop(prefix, None)
        else:
            self._best_cache[prefix] = best

    def _note_injected(self, prefix: Prefix, delta: int) -> None:
        """Adjust the injected-route count for *prefix* by ±1."""
        self._injected += delta
        count = (self._injected_map.get(prefix) or 0) + delta
        if count > 0:
            self._injected_map[prefix] = count
        else:
            self._injected_map.pop(prefix, None)

    # -- the delta journal ---------------------------------------------------

    def changed_since(self, version: int) -> Optional[Set[Prefix]]:
        """Prefixes whose route set mutated after *version*.

        The set is conservative: any accepted update or effective
        withdraw marks its prefix changed, even if the ranking came out
        the same.  Returns an empty set when nothing changed, and
        ``None`` when *version* is older than the journal reaches — the
        caller must then fall back to a full pass (exactly what a BMP
        resync or a fresh reader would do anyway).
        """
        if version > self._version:
            raise RibError(
                f"reader version {version} is ahead of the RIB "
                f"({self._version})"
            )
        count = self._version - version
        if count == 0:
            return set()
        if count > len(self._journal):
            return None
        return set(islice(self._journal, len(self._journal) - count, None))

    # -- queries -----------------------------------------------------------

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._best_cache.get(prefix)

    def routes_for(self, prefix: Prefix) -> List[Route]:
        """All routes for *prefix* in decision-process order."""
        ranked = self._ranked_cache.get(prefix)
        if ranked is None:
            holders = self._by_prefix.get(prefix)
            if not holders:
                return []
            ranked = rank_routes(list(holders.values()), self._config)
            self._ranked_cache[prefix] = ranked
        # Copy so callers can't mutate the cached ranking.
        return list(ranked)

    def prefixes(self, family: Optional[Family] = None) -> Iterator[Prefix]:
        for prefix in self._by_prefix.keys():
            if family is None or prefix.family is family:
                yield prefix

    def items(self) -> Iterator[Tuple[Prefix, List[Route]]]:
        """(prefix, ranked routes) for every prefix."""
        for prefix, holders in self._by_prefix.items():
            yield prefix, rank_routes(list(holders.values()), self._config)

    def longest_match(self, target: Prefix) -> Optional[Route]:
        """Best route of the most specific prefix covering *target*."""
        found = self._by_prefix.longest_match(target)
        if found is None:
            return None
        return self._best_cache.get(found[0])

    def injected_under(self, covering: Prefix) -> List[Route]:
        """Injected best routes of prefixes strictly under *covering*.

        Walks the injected-prefix trie, not the RIB: a prefix whose best
        route is injected holds an injected route, so the (few) entries
        of ``_injected_map`` under *covering* are the only candidates.
        Pre-order, like every trie walk here.
        """
        out: List[Route] = []
        if not self._injected:
            return out
        for prefix, _count in self._injected_map.subtree(covering):
            if prefix == covering:
                continue
            best = self._best_cache.get(prefix)
            if best is not None and best.is_injected:
                out.append(best)
        return out

    def routed_under(self, covering: Prefix) -> Iterator[Prefix]:
        """Organically-routed prefixes at or under *covering*.

        Deterministic pre-order (lexicographic); prefixes present only
        because of an injected route are skipped — they create no
        forwarding granularity of their own.  The override aggregator
        walks this to validate a candidate covering prefix.
        """
        if not self._injected:
            for prefix, _holders in self._by_prefix.subtree(covering):
                yield prefix
            return
        for prefix, holders in self._by_prefix.subtree(covering):
            for route in holders.values():
                if not route.is_injected:
                    yield prefix
                    break

    def injected_covering(self, target: Prefix) -> Optional[Route]:
        """The injected route of the most specific injected prefix
        covering *target* (inclusive), or None.

        Aggregated override resolution: a detour installed at a covering
        prefix applies to every routed prefix beneath it, so the
        dataplane asks "is there an injected route above this routed
        prefix" with one LPM walk over the injected-prefix trie.
        """
        if not self._injected:
            return None
        found = self._injected_map.longest_match(target)
        if found is None:
            return None
        best = self._best_cache.get(found[0])
        if best is not None and best.is_injected:
            return best
        return None

    def effective_lookup(self, target: Prefix) -> Optional[Route]:
        """The route a packet addressed within *target* resolves to.

        Models the controller's override semantics end to end: the
        *routed prefix* is the longest organic match (prefixes that
        exist only because of injection do not create new forwarding
        granularity), and an injected route at the routed prefix or any
        covering prefix overrides its organic best.  Per-/24 flat
        installs and covering-aggregate installs are observationally
        identical under this lookup — the property the aggregation
        layer's validity rule guarantees.
        """
        routed: Optional[Prefix] = None
        for prefix, holders in self._by_prefix.matches(target):
            for route in holders.values():
                if not route.is_injected:
                    routed = prefix
                    break
        if routed is None:
            return None
        injected = self.injected_covering(routed)
        if injected is not None:
            return injected
        # No injected route covers the routed prefix, so its best is the
        # organic best (an injected holder at the routed prefix would
        # have been returned by injected_covering above).
        return self._best_cache.get(routed)

    def route_count(self) -> int:
        """Total routes across all prefixes (not just best paths)."""
        return sum(len(holders) for holders in self._by_prefix.values())

    def __len__(self) -> int:
        """Number of prefixes with at least one route."""
        return len(self._by_prefix)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._by_prefix
