"""A BGP speaker: sessions + policies + RIBs, exchanging wire bytes.

This is the model of a peering router's BGP process.  It is transport-
agnostic: callers (the in-memory link layer, tests, the injector) push raw
BGP byte strings into :meth:`BgpSpeaker.receive_wire` and collect outbound
byte strings from :meth:`BgpSpeaker.take_output`.  Everything that crosses
a session boundary is real wire format, so the BMP mirror can forward the
exact PDUs it saw, as production BMP does.

Observers can subscribe to route events (used by the BMP station and by
the dataplane FIB) via :meth:`subscribe`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..netbase.addr import Family, Prefix
from ..netbase.errors import SessionError
from .attributes import PathAttributes
from .decision import DecisionConfig, DEFAULT_CONFIG
from .fsm import FsmEvent, SessionFsm, SessionState
from .messages import (
    BgpMessage,
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
    decode_stream,
    encode_message,
)
from .peering import PeerDescriptor
from .policy import RoutePolicy
from .rib import AdjRibIn, LocRib, RibChange
from .route import Route

__all__ = ["RouteEvent", "Session", "BgpSpeaker"]

#: Callback signature for route observers: (speaker, event).
Observer = Callable[["BgpSpeaker", "RouteEvent"], None]


@dataclass(frozen=True)
class RouteEvent:
    """A post-policy routing event on one session."""

    peer: PeerDescriptor
    prefix: Prefix
    route: Optional[Route]  # None for withdrawals
    withdrawn: bool
    rib_change: RibChange
    raw_update: bytes  # the wire UPDATE that caused this event


@dataclass
class Session:
    """One configured neighbor on this speaker."""

    peer: PeerDescriptor
    fsm: SessionFsm
    adj_rib_in: AdjRibIn
    import_policy: Optional[RoutePolicy] = None
    rx_buffer: bytes = b""
    tx_queue: List[bytes] = field(default_factory=list)

    @property
    def is_established(self) -> bool:
        return self.fsm.is_established


class BgpSpeaker:
    """A router's BGP process: N sessions feeding one Loc-RIB."""

    def __init__(
        self,
        name: str,
        asn: int,
        router_id: int,
        hold_time: int = 90,
        decision_config: DecisionConfig = DEFAULT_CONFIG,
    ) -> None:
        self.name = name
        self.asn = asn
        self.router_id = router_id
        self.hold_time = hold_time
        self.loc_rib = LocRib(decision_config)
        self._sessions: Dict[str, Session] = {}
        self._observers: List[Observer] = []
        self._clock = 0.0

    # -- session management ---------------------------------------------------

    def add_session(
        self,
        peer: PeerDescriptor,
        import_policy: Optional[RoutePolicy] = None,
    ) -> Session:
        if peer.name in self._sessions:
            raise SessionError(f"duplicate session {peer.name}")
        local_open = OpenMessage.standard(
            self.asn, self.router_id, self.hold_time
        )
        session = Session(
            peer=peer,
            fsm=SessionFsm(local_open),
            adj_rib_in=AdjRibIn(peer),
            import_policy=import_policy,
        )
        self._sessions[peer.name] = session
        return session

    def session(self, peer_name: str) -> Session:
        try:
            return self._sessions[peer_name]
        except KeyError:
            raise SessionError(f"no session named {peer_name}") from None

    def sessions(self) -> Iterable[Session]:
        return self._sessions.values()

    def start_session(self, peer_name: str) -> None:
        session = self.session(peer_name)
        session.fsm.handle_event(FsmEvent.MANUAL_START, self._clock)
        self._drain_fsm(session)

    def connect_session(self, peer_name: str) -> None:
        """Signal that the underlying transport came up."""
        session = self.session(peer_name)
        session.fsm.handle_event(FsmEvent.TCP_ESTABLISHED, self._clock)
        self._drain_fsm(session)

    def stop_session(self, peer_name: str) -> List[RibChange]:
        """Administratively stop a session, flushing its routes."""
        session = self.session(peer_name)
        session.fsm.handle_event(FsmEvent.MANUAL_STOP, self._clock)
        self._drain_fsm(session)
        return self._flush_session(session)

    def _flush_session(self, session: Session) -> List[RibChange]:
        """Drop a downed session's routes, notifying observers.

        Observers (the BMP exporter, the PoP routing view) must see the
        withdrawals — a session going down changes routing exactly as
        explicit withdrawals would.  Production BMP conveys this as a
        PEER_DOWN; here each flushed route becomes a withdrawal event.
        """
        changes = []
        for route in session.adj_rib_in.clear():
            change = self.loc_rib.withdraw(route.prefix, session.peer)
            changes.append(change)
            self._notify(
                RouteEvent(
                    peer=session.peer,
                    prefix=route.prefix,
                    route=None,
                    withdrawn=True,
                    rib_change=change,
                    raw_update=b"",
                )
            )
        return changes

    # -- observers ---------------------------------------------------------------

    def subscribe(self, observer: Observer) -> None:
        self._observers.append(observer)

    def _notify(self, event: RouteEvent) -> None:
        for observer in self._observers:
            observer(self, event)

    # -- time ----------------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance the clock; fire per-session timers."""
        self._clock = now
        for session in self._sessions.values():
            was_established = session.is_established
            session.fsm.tick(now)
            self._drain_fsm(session)
            if was_established and not session.is_established:
                self._flush_session(session)

    @property
    def clock(self) -> float:
        return self._clock

    # -- wire I/O -----------------------------------------------------------------------

    def receive_wire(self, peer_name: str, data: bytes) -> List[RouteEvent]:
        """Feed received bytes into a session; returns route events."""
        session = self.session(peer_name)
        session.rx_buffer += data
        messages, session.rx_buffer = decode_stream(session.rx_buffer)
        events: List[RouteEvent] = []
        for message in messages:
            events.extend(self._handle_message(session, message))
        return events

    def take_output(self, peer_name: str) -> bytes:
        """Drain queued outbound bytes for a session."""
        session = self.session(peer_name)
        out = b"".join(session.tx_queue)
        session.tx_queue.clear()
        return out

    def send_message(self, peer_name: str, message: BgpMessage) -> None:
        """Queue an arbitrary message for transmission (tests, injector)."""
        self.session(peer_name).tx_queue.append(encode_message(message))

    def _drain_fsm(self, session: Session) -> None:
        for message in session.fsm.take_outbox():
            session.tx_queue.append(encode_message(message))

    def _handle_message(
        self, session: Session, message: BgpMessage
    ) -> List[RouteEvent]:
        events: List[RouteEvent] = []
        if isinstance(message, UpdateMessage):
            session.fsm.handle_message(message, self._clock)
            self._drain_fsm(session)
            events.extend(self._apply_update(session, message))
        else:
            session.fsm.handle_message(message, self._clock)
            self._drain_fsm(session)
            if isinstance(message, NotificationMessage):
                self._flush_session(session)
        return events

    # -- route processing -------------------------------------------------------------------

    def _apply_update(
        self, session: Session, update: UpdateMessage
    ) -> List[RouteEvent]:
        raw = encode_message(update)
        events: List[RouteEvent] = []
        for prefix in update.withdrawn:
            session.adj_rib_in.withdraw(prefix)
            change = self.loc_rib.withdraw(prefix, session.peer)
            events.append(
                RouteEvent(
                    peer=session.peer,
                    prefix=prefix,
                    route=None,
                    withdrawn=True,
                    rib_change=change,
                    raw_update=raw,
                )
            )
        if update.announced:
            assert update.attributes is not None
            for prefix in update.announced:
                route = Route(
                    prefix=prefix,
                    attributes=update.attributes,
                    source=session.peer,
                    learned_at=self._clock,
                )
                accepted = self._import(session, route)
                if accepted is None:
                    # Policy rejection is an implicit withdraw of any
                    # previously-accepted route for this prefix.
                    session.adj_rib_in.withdraw(prefix)
                    change = self.loc_rib.withdraw(prefix, session.peer)
                    events.append(
                        RouteEvent(
                            peer=session.peer,
                            prefix=prefix,
                            route=None,
                            withdrawn=True,
                            rib_change=change,
                            raw_update=raw,
                        )
                    )
                    continue
                session.adj_rib_in.update(accepted)
                change = self.loc_rib.update(accepted)
                events.append(
                    RouteEvent(
                        peer=session.peer,
                        prefix=prefix,
                        route=accepted,
                        withdrawn=False,
                        rib_change=change,
                        raw_update=raw,
                    )
                )
        for event in events:
            self._notify(event)
        return events

    def _import(self, session: Session, route: Route) -> Optional[Route]:
        if session.import_policy is None:
            return route
        return session.import_policy.apply(route)

    # -- convenience for tests and the link layer ------------------------------------------

    def establish_directly(self, peer_name: str) -> None:
        """Force a session straight to ESTABLISHED.

        Simulation setup helper: large scenarios establish hundreds of
        sessions, and replaying the full OPEN/KEEPALIVE handshake for each
        adds nothing once the FSM itself is unit-tested.
        """
        session = self.session(peer_name)
        session.fsm.state = SessionState.ESTABLISHED
        session.fsm.hold_time = float(self.hold_time)
        session.fsm._last_received = self._clock

    def inject_update(
        self,
        peer_name: str,
        prefixes: Iterable[Prefix],
        attributes: PathAttributes,
        family: Optional[Family] = None,
    ) -> List[RouteEvent]:
        """Encode an UPDATE as if *peer_name* announced it, and receive it.

        Goes through the real codec, so tests exercise the wire path.
        """
        prefixes = tuple(prefixes)
        fam = family or (prefixes[0].family if prefixes else Family.IPV4)
        update = UpdateMessage(
            family=fam, announced=prefixes, attributes=attributes
        )
        return self.receive_wire(peer_name, encode_message(update))
