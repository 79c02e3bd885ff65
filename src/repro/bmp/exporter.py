"""BMP exporter: mirrors a peering router's route events onto a BMP feed.

Attaches to a :class:`~repro.bgp.speaker.BgpSpeaker` and produces the byte
stream a production router's BMP implementation would send to the
monitoring station: an INITIATION naming the router, PEER_UP as sessions
establish, and a post-policy ROUTE_MONITORING message for every accepted
announcement or withdrawal.

The monitored view is the *post-policy* Adj-RIB-In (BMP's L flag): the
controller wants routes as the router would actually consider them, with
LOCAL_PREF tiers and ingress communities applied.
"""

from __future__ import annotations

from typing import Callable

from ..bgp.messages import UpdateMessage, encode_message
from ..bgp.peering import PeerDescriptor, PeerType
from ..bgp.route import Route
from ..bgp.speaker import BgpSpeaker, RouteEvent
from .messages import (
    InitiationMessage,
    PeerHeader,
    PeerUpMessage,
    RouteMonitoringMessage,
    encode_bmp,
)

__all__ = ["BmpExporter"]

#: Sink for exported bytes: (router name, bmp bytes).
Sink = Callable[[str, bytes], None]


class BmpExporter:
    """Streams one router's routing activity as BMP messages."""

    def __init__(self, speaker: BgpSpeaker, sink: Sink) -> None:
        self._speaker = speaker
        self._sink = sink
        self._peers_up: set[str] = set()
        speaker.subscribe(self._on_route_event)
        self._emit(encode_bmp(InitiationMessage(sys_name=speaker.name)))

    @property
    def router_name(self) -> str:
        return self._speaker.name

    def _emit(self, data: bytes) -> None:
        self._sink(self._speaker.name, data)

    def _peer_header(self, peer: PeerDescriptor) -> PeerHeader:
        return PeerHeader(
            peer_address=peer.address,
            peer_asn=peer.peer_asn,
            peer_bgp_id=peer.address & 0xFFFFFFFF,
            family=peer.family,
            post_policy=True,
            timestamp=self._speaker.clock,
        )

    def announce_peer_up(self, peer: PeerDescriptor) -> None:
        """Emit PEER_UP (call when the session establishes)."""
        self._peers_up.add(peer.name)
        self._emit(encode_bmp(PeerUpMessage(peer=self._peer_header(peer))))

    # -- route mirroring ---------------------------------------------------

    def _on_route_event(self, _speaker: BgpSpeaker, event: RouteEvent) -> None:
        if event.peer.peer_type is PeerType.INTERNAL:
            # Never mirror the Edge Fabric injector's own announcements
            # back into the controller's route input — the paper's design
            # explicitly breaks this feedback loop.
            return
        if event.peer.name not in self._peers_up:
            # Production BMP implicitly covers every configured session;
            # we announce lazily so ad-hoc test sessions still export.
            self.announce_peer_up(event.peer)
        pdu = self._render_update(event)
        message = RouteMonitoringMessage(
            peer=self._peer_header(event.peer), update_pdu=pdu
        )
        self._emit(encode_bmp(message))

    @staticmethod
    def _render_update(event: RouteEvent) -> bytes:
        """Re-encode the event as a single-prefix post-policy UPDATE."""
        if event.withdrawn or event.route is None:
            update = UpdateMessage(
                family=event.prefix.family, withdrawn=(event.prefix,)
            )
        else:
            route: Route = event.route
            update = UpdateMessage(
                family=event.prefix.family,
                announced=(event.prefix,),
                attributes=route.attributes,
            )
        return encode_message(update)

    # -- liveness ---------------------------------------------------------------

    def heartbeat(self) -> None:
        """Emit per-peer statistics reports.

        Production BMP sessions are never silent for long: routers emit
        periodic statistics, and collectors treat the stream's liveness
        as proof the feed is current.  The pipeline calls this every
        simulation tick so a *quiet* BGP table (no route changes) is not
        mistaken for a *stale* one.
        """
        from .messages import StatisticsReport, StatType

        for session in self._speaker.sessions():
            if session.peer.peer_type is PeerType.INTERNAL:
                continue
            self._emit(
                encode_bmp(
                    StatisticsReport(
                        peer=self._peer_header(session.peer),
                        stats=(
                            (
                                int(StatType.ADJ_RIB_IN_ROUTES),
                                len(session.adj_rib_in),
                            ),
                        ),
                    )
                )
            )

    # -- bulk sync ------------------------------------------------------------

    def export_full_rib(self) -> None:
        """Re-export every route currently held (collector resync)."""
        for session in self._speaker.sessions():
            for route in session.adj_rib_in.routes():
                update = UpdateMessage(
                    family=route.prefix.family,
                    announced=(route.prefix,),
                    attributes=route.attributes,
                )
                message = RouteMonitoringMessage(
                    peer=self._peer_header(session.peer),
                    update_pdu=encode_message(update),
                )
                self._emit(encode_bmp(message))
