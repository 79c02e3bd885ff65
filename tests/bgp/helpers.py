"""Shared builders for BGP tests."""

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import UpdateMessage, encode_message
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.route import Route
from repro.netbase.addr import Family, Prefix

DEFAULT_PREFIX = Prefix.parse("203.0.113.0/24")


def withdraw(speaker, peer_name: str, prefixes) -> list:
    """Receive a wire UPDATE withdrawing *prefixes* from *peer_name*."""
    prefixes = tuple(prefixes)
    update = UpdateMessage(family=prefixes[0].family, withdrawn=prefixes)
    return speaker.receive_wire(peer_name, encode_message(update))


def make_peer(
    asn: int = 65001,
    peer_type: PeerType = PeerType.TRANSIT,
    router: str = "pr0",
    interface: str = "eth0",
    address: int = 0x0A000001,
    session_name: str = "",
) -> PeerDescriptor:
    return PeerDescriptor(
        router=router,
        peer_asn=asn,
        peer_type=peer_type,
        interface=interface,
        address=address,
        session_name=session_name,
    )


def make_route(
    prefix: Prefix = DEFAULT_PREFIX,
    peer: PeerDescriptor | None = None,
    local_pref: int = 100,
    as_path: tuple = (65001, 64999),
    origin: Origin = Origin.IGP,
    med: int | None = None,
    learned_at: float = 0.0,
    igp_cost: int = 0,
    communities: frozenset = frozenset(),
) -> Route:
    peer = peer or make_peer()
    attrs = PathAttributes(
        origin=origin,
        as_path=AsPath.sequence(*as_path),
        next_hop=(Family.IPV4, peer.address),
        med=med,
        local_pref=local_pref,
        communities=communities,
    )
    return Route(
        prefix=prefix,
        attributes=attrs,
        source=peer,
        learned_at=learned_at,
        igp_cost=igp_cost,
    )
