"""Peering session descriptors.

Edge Fabric's PoPs connect to the Internet through four kinds of egress
(§2 of the paper), and the BGP import policy ranks routes by that kind:

- ``TRANSIT``  — paid providers carrying routes to the whole Internet,
- ``PRIVATE``  — dedicated private network interconnects (PNIs) to peers,
- ``PUBLIC``   — bilateral sessions across a shared IXP fabric,
- ``ROUTE_SERVER`` — multilateral sessions via an IXP route server.

A :class:`PeerDescriptor` identifies one BGP session on one peering router
and the egress interface its traffic would use; routes carry their
descriptor so the controller can map any route to the interface it would
load.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..netbase.addr import Family
from ..netbase.asn import validate_asn

__all__ = ["PeerType", "PeerDescriptor"]


class PeerType(Enum):
    """Kind of egress a BGP session provides, in BGP-policy preference
    order (most preferred first)."""

    PRIVATE = "private"
    PUBLIC = "public"
    ROUTE_SERVER = "route_server"
    TRANSIT = "transit"
    INTERNAL = "internal"  # iBGP, e.g. the Edge Fabric injector


@dataclass(frozen=True, order=True)
class PeerDescriptor:
    """Identity of one BGP session, as seen from our side.

    ``interface`` names the egress interface on ``router`` that traffic
    following this session's routes would use.  Public-peering and
    route-server sessions at the same IXP share one physical interface,
    which is exactly the capacity-sharing the allocator must model.
    """

    router: str  # peering router name, e.g. "pop0-pr1"
    peer_asn: int  # neighbor AS number
    peer_type: PeerType
    interface: str  # egress interface name on the router
    address: int = 0  # neighbor address (for decision-process tiebreak)
    family: Family = Family.IPV4
    session_name: str = ""  # disambiguator when one AS has many sessions

    def __post_init__(self) -> None:
        validate_asn(self.peer_asn)

    @property
    def name(self) -> str:
        """Stable human-readable session id."""
        suffix = f":{self.session_name}" if self.session_name else ""
        return (
            f"{self.router}/{self.interface}/"
            f"AS{self.peer_asn}/{self.peer_type.value}{suffix}"
        )

    @property
    def is_ebgp(self) -> bool:
        return self.peer_type is not PeerType.INTERNAL

    def __str__(self) -> str:
        return self.name
