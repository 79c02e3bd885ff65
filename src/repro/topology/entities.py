"""PoP entities: peering routers, egress interfaces, and the PoP itself.

A PoP (point of presence) is the unit Edge Fabric operates on: a set of
peering routers (PRs), each with egress interfaces of finite capacity,
each interface carrying one or more BGP sessions.  Private interconnects
get a dedicated interface; all public-exchange sessions (bilateral and
route-server) at the same IXP share the PoP's IXP-facing interface —
which is exactly the capacity-sharing that makes public peering the
riskier egress in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..bgp.peering import PeerDescriptor, PeerType
from ..netbase.errors import TopologyError
from ..netbase.units import Rate

__all__ = ["InterfaceKey", "Interface", "PeeringRouter", "PoP"]

#: PoP-wide identity of an egress interface.
InterfaceKey = Tuple[str, str]  # (router name, interface name)


@dataclass(frozen=True)
class Interface:
    """One egress interface on one peering router."""

    router: str
    name: str
    capacity: Rate

    @property
    def key(self) -> InterfaceKey:
        return (self.router, self.name)

    def __str__(self) -> str:
        return f"{self.router}/{self.name} ({self.capacity})"


@dataclass
class PeeringRouter:
    """A PR: a named router holding interfaces and sessions."""

    name: str
    router_id: int
    interfaces: Dict[str, Interface] = field(default_factory=dict)
    sessions: List[PeerDescriptor] = field(default_factory=list)

    def add_interface(self, name: str, capacity: Rate) -> Interface:
        if name in self.interfaces:
            raise TopologyError(f"duplicate interface {self.name}/{name}")
        interface = Interface(router=self.name, name=name, capacity=capacity)
        self.interfaces[name] = interface
        return interface

    def add_session(self, session: PeerDescriptor) -> None:
        if session.router != self.name:
            raise TopologyError(
                f"session {session.name} belongs to {session.router}, "
                f"not {self.name}"
            )
        if session.interface not in self.interfaces:
            raise TopologyError(
                f"session {session.name} references unknown interface "
                f"{session.interface}"
            )
        self.sessions.append(session)


class PoP:
    """A point of presence: routers, interfaces, sessions, capacities."""

    def __init__(self, name: str, local_asn: int) -> None:
        self.name = name
        self.local_asn = local_asn
        self.routers: Dict[str, PeeringRouter] = {}
        self._sessions_by_name: Dict[str, PeerDescriptor] = {}
        self._sessions_by_address: Dict[int, PeerDescriptor] = {}

    # -- construction --------------------------------------------------------

    def add_router(self, name: str, router_id: int) -> PeeringRouter:
        if name in self.routers:
            raise TopologyError(f"duplicate router {name}")
        router = PeeringRouter(name=name, router_id=router_id)
        self.routers[name] = router
        return router

    def add_session(self, session: PeerDescriptor) -> None:
        router = self.routers.get(session.router)
        if router is None:
            raise TopologyError(f"unknown router {session.router}")
        router.add_session(session)
        if session.name in self._sessions_by_name:
            raise TopologyError(f"duplicate session {session.name}")
        self._sessions_by_name[session.name] = session
        if session.address:
            existing = self._sessions_by_address.get(session.address)
            if existing is not None:
                raise TopologyError(
                    f"address {session.address:#x} used by both "
                    f"{existing.name} and {session.name}"
                )
            self._sessions_by_address[session.address] = session

    # -- lookups --------------------------------------------------------------

    def interface(self, key: InterfaceKey) -> Interface:
        router_name, interface_name = key
        router = self.routers.get(router_name)
        if router is None or interface_name not in router.interfaces:
            raise TopologyError(f"unknown interface {key}")
        return router.interfaces[interface_name]

    def capacity_of(self, key: InterfaceKey) -> Rate:
        return self.interface(key).capacity

    def session_by_address(self, address: int) -> Optional[PeerDescriptor]:
        return self._sessions_by_address.get(address)

    # -- iteration ---------------------------------------------------------------

    def interfaces(self) -> Iterator[Interface]:
        for router in self.routers.values():
            yield from router.interfaces.values()

    def interface_keys(self) -> List[InterfaceKey]:
        return [interface.key for interface in self.interfaces()]

    def sessions(self, peer_type: Optional[PeerType] = None) -> List[
        PeerDescriptor
    ]:
        out = []
        for router in self.routers.values():
            for session in router.sessions:
                if peer_type is None or session.peer_type is peer_type:
                    out.append(session)
        return out

    def ebgp_sessions(self) -> List[PeerDescriptor]:
        return [s for s in self.sessions() if s.is_ebgp]

    def sessions_on_interface(self, key: InterfaceKey) -> List[PeerDescriptor]:
        router_name, interface_name = key
        router = self.routers.get(router_name)
        if router is None:
            return []
        return [
            session
            for session in router.sessions
            if session.interface == interface_name
        ]

    def total_egress_capacity(self) -> Rate:
        total = Rate(0)
        for interface in self.interfaces():
            total = total + interface.capacity
        return total

    # -- summary ---------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Table-1-style summary row for this PoP."""
        by_type = {
            peer_type: len(self.sessions(peer_type))
            for peer_type in PeerType
        }
        return {
            "pop": self.name,
            "routers": len(self.routers),
            "interfaces": sum(1 for _ in self.interfaces()),
            "capacity": str(self.total_egress_capacity()),
            "transit_sessions": by_type[PeerType.TRANSIT],
            "private_peers": by_type[PeerType.PRIVATE],
            "public_peers": by_type[PeerType.PUBLIC],
            "route_server_peers": by_type[PeerType.ROUTE_SERVER],
        }

    def __repr__(self) -> str:
        return (
            f"PoP({self.name!r}, routers={len(self.routers)}, "
            f"sessions={len(self._sessions_by_name)})"
        )
