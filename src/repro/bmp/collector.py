"""The BMP monitoring station: the controller's view of every route.

One :class:`BmpCollector` per PoP consumes the BMP byte streams of all the
PoP's peering routers and reconstructs, per (router, peering session), the
post-policy Adj-RIB-In.  The result is the controller's route input: for
any destination prefix it can list *every* available egress route at the
PoP, in contrast to a router's FIB which only shows the winner.

BMP identifies peers by (address, ASN); which *session* that is — its peer
type and, critically, its egress interface — is configuration, not wire
data, so the collector is constructed with a registry mapping
(router name, peer address, peer ASN) to :class:`PeerDescriptor`, exactly
the join a production deployment does against its router configs.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..bgp.communities import INJECTED
from ..bgp.decision import DecisionConfig, DEFAULT_CONFIG
from ..bgp.messages import UpdateMessage, decode_stream
from ..bgp.peering import PeerDescriptor
from ..bgp.rib import LocRib
from ..bgp.route import Route
from ..netbase.addr import Family, Prefix
from ..netbase.errors import MalformedMessage, TruncatedMessage
from ..obs.telemetry import Telemetry
from .messages import (
    BmpMessage,
    InitiationMessage,
    PeerDownMessage,
    PeerHeader,
    PeerUpMessage,
    RouteMonitoringMessage,
    StatisticsReport,
    TerminationMessage,
    decode_bmp_at,
)

#: Bound on one router's partial-message buffer.  A healthy stream
#: never holds more than one incomplete message (< MAX_BMP_MESSAGE_LENGTH
#: plus one socket read); past this the stream is taken to be garbage.
_MAX_STREAM_BUFFER = 4 << 20

__all__ = ["PeerRegistry", "BmpCollector", "CollectorStats"]


class PeerRegistry:
    """Maps BMP per-peer headers back to configured sessions."""

    def __init__(self) -> None:
        self._sessions: Dict[Tuple[str, int, int], PeerDescriptor] = {}

    def register(self, peer: PeerDescriptor) -> None:
        key = (peer.router, peer.address, peer.peer_asn)
        self._sessions[key] = peer

    def resolve(
        self, router: str, header: PeerHeader
    ) -> Optional[PeerDescriptor]:
        return self._sessions.get(
            (router, header.peer_address, header.peer_asn)
        )

    def is_registered(self, peer: PeerDescriptor) -> bool:
        return (
            self._sessions.get((peer.router, peer.address, peer.peer_asn))
            == peer
        )

    def __len__(self) -> int:
        return len(self._sessions)


@dataclass
class CollectorStats:
    """Counters the collector keeps about its own operation."""

    messages: int = 0
    route_monitoring: int = 0
    announcements: int = 0
    withdrawals: int = 0
    peer_ups: int = 0
    peer_downs: int = 0
    unknown_peers: int = 0
    decode_errors: int = 0
    injected_dropped: int = 0


class BmpCollector:
    """Reconstructs the PoP-wide multi-route RIB from BMP feeds."""

    def __init__(
        self,
        registry: PeerRegistry,
        decision_config: DecisionConfig = DEFAULT_CONFIG,
        clock: Optional[callable] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._registry = registry
        self._decision_config = decision_config
        self._rib = LocRib(decision_config)
        self._buffers: Dict[str, bytes] = {}
        self._routers_seen: Dict[str, float] = {}
        self._last_update_at: Optional[float] = None
        self._clock = clock or _time.monotonic
        #: Set by :meth:`reset`; cleared once a full-RIB re-export has
        #: repopulated the collector (the resubscription loop's job).
        self.needs_resync = False
        self.resets = 0
        self.stats = CollectorStats()
        self.telemetry = telemetry or Telemetry(name="bmp")
        metrics = self.telemetry.registry
        self._m_messages = metrics.counter(
            "bmp_messages_total", "BMP messages consumed"
        )
        self._m_announcements = metrics.counter(
            "bmp_announcements_total", "Route announcements applied"
        )
        self._m_withdrawals = metrics.counter(
            "bmp_withdrawals_total", "Route withdrawals applied"
        )
        self._m_decode_errors = metrics.counter(
            "bmp_decode_errors_total", "Undecodable PDUs dropped"
        )

    # -- feed ingestion ------------------------------------------------------

    def feed(self, router: str, data: bytes) -> bool:
        """Consume bytes from one router's BMP stream.

        Returns ``True`` while the stream frames cleanly.  On malformed
        framing the collector counts the defect, discards the rest of
        the router's buffer (framing is unrecoverable mid-stream) and
        raises :attr:`needs_resync` so the degradation ladder drives a
        full re-export — it never propagates, so one bad byte stream
        cannot crash the control loop.  Callers that own the transport
        (the TCP frontend) use the ``False`` return to drop the
        connection.
        """
        buffer = self._buffers.get(router, b"") + data
        offset = 0
        size = len(buffer)
        ok = True
        while offset < size:
            try:
                message, consumed = decode_bmp_at(buffer, offset)
            except TruncatedMessage:
                break
            except MalformedMessage:
                ok = False
                break
            # Messages decoded before a framing defect still apply —
            # the stream was valid up to the defect.
            offset += consumed
            self._handle(router, message)
        if ok and size - offset > _MAX_STREAM_BUFFER:
            # Never-completing "truncation" (e.g. a huge claimed length
            # fed one byte at a time) must not buffer unboundedly.
            ok = False
        if not ok:
            self.stats.decode_errors += 1
            self._m_decode_errors.inc()
            self._buffers.pop(router, None)
            self.needs_resync = True
            return False
        self._buffers[router] = buffer[offset:]
        return True

    def _handle(self, router: str, message: BmpMessage) -> None:
        self.stats.messages += 1
        self._m_messages.inc()
        if isinstance(message, InitiationMessage):
            name = message.sys_name or router
            self._routers_seen[name] = self._clock()
            return
        if isinstance(message, TerminationMessage):
            self._routers_seen.pop(router, None)
            return
        if isinstance(message, PeerUpMessage):
            self.stats.peer_ups += 1
            return
        if isinstance(message, PeerDownMessage):
            self.stats.peer_downs += 1
            peer = self._registry.resolve(router, message.peer)
            if peer is not None:
                self._rib.withdraw_peer(peer)
            else:
                self.stats.unknown_peers += 1
            return
        if isinstance(message, RouteMonitoringMessage):
            self._handle_route_monitoring(router, message)
            return
        if isinstance(message, StatisticsReport):
            # Statistics double as liveness: a quiet-but-healthy feed
            # keeps reporting, so it must not be considered stale.
            now = self._clock()
            self._routers_seen[router] = now
            self._last_update_at = now

    def _handle_route_monitoring(
        self, router: str, message: RouteMonitoringMessage
    ) -> None:
        self.stats.route_monitoring += 1
        peer = self._registry.resolve(router, message.peer)
        if peer is None:
            self.stats.unknown_peers += 1
            return
        try:
            updates, remainder = decode_stream(message.update_pdu)
            if remainder:
                raise MalformedMessage("trailing bytes after UPDATE")
        except MalformedMessage:
            self.stats.decode_errors += 1
            self._m_decode_errors.inc()
            return
        now = self._clock()
        for update in updates:
            if not isinstance(update, UpdateMessage):
                self.stats.decode_errors += 1
                self._m_decode_errors.inc()
                continue
            self._apply_update(peer, update, now)
        self._routers_seen[router] = now
        self._last_update_at = now

    def _apply_update(
        self, peer: PeerDescriptor, update: UpdateMessage, now: float
    ) -> None:
        if update.withdrawn:
            self._m_withdrawals.inc(len(update.withdrawn))
        for prefix in update.withdrawn:
            self.stats.withdrawals += 1
            self._rib.withdraw(prefix, peer)
        if update.announced and update.attributes is not None:
            if update.attributes.has_community(INJECTED):
                # Defense in depth: even if an injected route leaked into
                # a BMP feed, the controller must not treat it as input.
                self.stats.injected_dropped += len(update.announced)
                return
            self._m_announcements.inc(len(update.announced))
            for prefix in update.announced:
                self.stats.announcements += 1
                route = Route(
                    prefix=prefix,
                    attributes=update.attributes,
                    source=peer,
                    learned_at=now,
                )
                self._rib.update(route)

    # -- synthetic ingestion -----------------------------------------------------

    def ingest_route(self, route: Route, now: Optional[float] = None) -> None:
        """Install one route directly, bypassing the BMP wire path.

        Synthetic-scale harnesses use this to populate the same RIB the
        decoded path populates — identical versioning, journal and
        best-path behaviour — without encoding/decoding fifty thousand
        UPDATE PDUs.  Liveness and counters advance exactly as a decoded
        announcement would advance them.
        """
        if not self._registry.is_registered(route.source):
            self.stats.unknown_peers += 1
            return
        when = self._clock() if now is None else now
        self.stats.announcements += 1
        self._m_announcements.inc()
        self._rib.update(route)
        self._routers_seen[route.source.router] = when
        self._last_update_at = when

    def ingest_routes(
        self, routes: List[Route], now: Optional[float] = None
    ) -> None:
        """Bulk :meth:`ingest_route`: one decision pass per prefix.

        Counters, liveness, versioning and journal entries advance
        exactly as the per-route path advances them; only the redundant
        intermediate best-path recomputations (unobservable between the
        calls of a bulk load) are skipped.  Full-table seeding uses this.
        """
        when = self._clock() if now is None else now
        accepted: List[Route] = []
        for route in routes:
            if not self._registry.is_registered(route.source):
                self.stats.unknown_peers += 1
                continue
            accepted.append(route)
            self._routers_seen[route.source.router] = when
        if not accepted:
            return
        self.stats.announcements += len(accepted)
        self._m_announcements.inc(len(accepted))
        self._rib.load_routes(accepted)
        self._last_update_at = when

    def ingest_withdrawal(
        self,
        prefix: Prefix,
        source: PeerDescriptor,
        now: Optional[float] = None,
    ) -> None:
        """Withdraw one route directly, bypassing the BMP wire path."""
        when = self._clock() if now is None else now
        self.stats.withdrawals += 1
        self._m_withdrawals.inc()
        self._rib.withdraw(prefix, source)
        self._routers_seen[source.router] = when
        self._last_update_at = when

    # -- controller-facing queries ----------------------------------------------

    def routes_for(self, prefix: Prefix) -> List[Route]:
        """Every route for *prefix* across all routers, ranked."""
        return self._rib.routes_for(prefix)

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._rib.best(prefix)

    def prefixes(self, family: Optional[Family] = None) -> Iterator[Prefix]:
        return self._rib.prefixes(family)

    def longest_match(self, target: Prefix) -> Optional[Route]:
        return self._rib.longest_match(target)

    @property
    def rib(self) -> LocRib:
        """Direct access to the assembled multi-route RIB."""
        return self._rib

    def route_count(self) -> int:
        return self._rib.route_count()

    def prefix_count(self) -> int:
        return len(self._rib)

    # -- health -------------------------------------------------------------------

    def routers(self) -> Dict[str, float]:
        """Routers with live feeds and the time of their last activity."""
        return dict(self._routers_seen)

    def age(self) -> float:
        """Seconds since any route monitoring or liveness data arrived."""
        if self._last_update_at is None:
            return float("inf")
        return max(0.0, self._clock() - self._last_update_at)

    def reset(self) -> None:
        """Lose all collector state, as a crash-and-restart would.

        The RIB, partial stream buffers and liveness clocks are gone;
        :attr:`needs_resync` stays raised until the resubscription loop
        drives a full-RIB re-export and calls :meth:`mark_resynced`.
        Counters in :attr:`stats` survive — they describe the process,
        not the RIB.
        """
        self._rib = LocRib(self._decision_config)
        self._buffers.clear()
        self._routers_seen.clear()
        self._last_update_at = None
        self.needs_resync = True
        self.resets += 1

    def mark_resynced(self) -> None:
        """Acknowledge that a full-RIB re-export has been replayed."""
        self.needs_resync = False
