"""The BGP injector: enforcing allocator decisions via BGP itself.

Edge Fabric changes routing without touching router configuration: a
small BGP speaker (production derived theirs from an ExaBGP-style
framework) holds an iBGP session with every peering router and announces
each override as a route for the detoured prefix with

- NEXT_HOP set to the alternate peer's address (so the routers' FIBs
  recurse onto the right egress interface),
- LOCAL_PREF high above every import-policy tier (so the decision
  process picks it over everything learned from eBGP), and
- the INJECTED community (so humans and tooling can always tell an
  override from an organic route, and so the collector can refuse to
  feed it back into the controller).

Withdrawing the injected route instantly restores default BGP routing —
the paper's recovery story: kill the controller and the network falls
back to BGP on its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..bgp.attributes import PathAttributes
from ..bgp.messages import UpdateMessage, encode_message
from ..bgp.peering import PeerDescriptor, PeerType
from ..bgp.speaker import BgpSpeaker
from ..netbase.addr import Family
from ..netbase.errors import InjectionError
from ..topology.entities import PoP
from .config import ControllerConfig
from ..bgp.communities import INJECTED
from .overrides import Override, OverrideDiff

__all__ = ["BgpInjector", "INJECTED_LOCAL_PREF"]

#: LOCAL_PREF for injected overrides — above every import tier, so an
#: injected route always wins the decision process.
INJECTED_LOCAL_PREF = 10_000

#: Address the injector's sessions use (a loopback on the controller).
_INJECTOR_ADDRESS = 0x7F000A01


class BgpInjector:
    """One injector instance per PoP, sessioned to every PR."""

    def __init__(
        self,
        pop: PoP,
        speakers: Dict[str, BgpSpeaker],
        config: ControllerConfig = ControllerConfig(),
    ) -> None:
        self.pop = pop
        self.config = config
        self._sessions: Dict[str, PeerDescriptor] = {}
        self._speakers = speakers
        for router_name, speaker in speakers.items():
            session = PeerDescriptor(
                router=router_name,
                peer_asn=pop.local_asn,
                peer_type=PeerType.INTERNAL,
                interface="lo0",
                address=_INJECTOR_ADDRESS,
                session_name="edge-fabric-injector",
            )
            # No import policy: iBGP from the controller is trusted.
            speaker.add_session(session)
            speaker.establish_directly(session.name)
            self._sessions[router_name] = session
        self.announced_updates = 0
        self.withdrawn_updates = 0

    # -- override rendering ------------------------------------------------------

    def _attributes_for(self, override: Override) -> PathAttributes:
        target = override.target
        family = override.prefix.family
        session_address = target.source.address
        if family is Family.IPV4:
            next_hop = (Family.IPV4, session_address)
        else:
            next_hop = (Family.IPV6, (0xFE80 << 112) | session_address)
        return PathAttributes(
            origin=target.attributes.origin,
            as_path=target.attributes.as_path,
            next_hop=next_hop,
            local_pref=INJECTED_LOCAL_PREF,
            communities=target.attributes.communities | {INJECTED},
        )

    # -- application ----------------------------------------------------------------

    def apply(self, diff: OverrideDiff) -> None:
        """Push one cycle's announcements and withdrawals to every PR."""
        for override in diff.withdraw:
            # A replaced prefix appears in both withdraw and announce;
            # the announcement alone supersedes the old injected route
            # (implicit withdraw within the same session), so only send
            # explicit withdrawals for prefixes not being re-announced.
            if any(
                announced.prefix == override.prefix
                for announced in diff.announce
            ):
                continue
            self._send_withdraw(override)
        for override in diff.announce:
            self._send_announce(override)

    def _send_announce(self, override: Override) -> None:
        update = UpdateMessage(
            family=override.prefix.family,
            announced=(override.prefix,),
            attributes=self._attributes_for(override),
        )
        self._broadcast(update)
        self.announced_updates += 1

    def _send_withdraw(self, override: Override) -> None:
        update = UpdateMessage(
            family=override.prefix.family,
            withdrawn=(override.prefix,),
        )
        self._broadcast(update)
        self.withdrawn_updates += 1

    def _broadcast(self, update: UpdateMessage) -> None:
        wire = encode_message(update)
        for router_name, session in self._sessions.items():
            speaker = self._speakers.get(router_name)
            if speaker is None:
                raise InjectionError(f"no speaker for {router_name}")
            speaker.receive_wire(session.name, wire)

    def withdraw_all(self, overrides: Iterable[Override]) -> None:
        """Remove every injected route (controller shutdown)."""
        for override in overrides:
            self._send_withdraw(override)

    # -- session lifecycle (controller crash / restart) ---------------------------

    def teardown_sessions(self) -> int:
        """Drop every iBGP session, as a controller crash would.

        This sends nothing: each router notices the session loss and
        flushes the injector's Adj-RIB-In itself — BGP's own fail-static
        property, and the reason a dead controller cannot leave stale
        overrides behind.
        """
        for router_name, session in self._sessions.items():
            self._speakers[router_name].stop_session(session.name)
        return len(self._sessions)

    def reestablish_sessions(self) -> int:
        """Re-establish every iBGP session after a restart.

        The sessions come back empty; the restarted controller re-derives
        and re-announces whatever overrides the next cycle wants.
        """
        for router_name, session in self._sessions.items():
            self._speakers[router_name].establish_directly(session.name)
        return len(self._sessions)

    # -- introspection ----------------------------------------------------------------

    def injected_prefixes(self) -> List:
        """Prefixes currently injected, as seen in the PRs' own RIBs."""
        found = set()
        for router_name, session in self._sessions.items():
            speaker = self._speakers[router_name]
            adj = speaker.session(session.name).adj_rib_in
            found.update(adj.prefixes())
        return sorted(found)
