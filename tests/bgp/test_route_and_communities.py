"""Tests for the Route value object and the community plan."""

from repro.bgp.communities import (
    ALT_PATH_MEASUREMENT,
    INJECTED,
    OPERATOR_ASN,
    PEER_TYPE_COMMUNITIES,
    peer_type_community,
    peer_type_from_communities,
)
from repro.bgp.peering import PeerType

from .helpers import make_peer, make_route


class TestCommunityPlan:
    def test_all_peer_types_tagged(self):
        assert set(PEER_TYPE_COMMUNITIES) == set(PeerType)

    def test_round_trip(self):
        for peer_type in PeerType:
            value = peer_type_community(peer_type)
            assert peer_type_from_communities({value}) is peer_type

    def test_unknown_communities_yield_none(self):
        assert peer_type_from_communities({12345}) is None
        assert peer_type_from_communities(set()) is None

    def test_values_live_under_operator_asn(self):
        for value in (
            INJECTED,
            ALT_PATH_MEASUREMENT,
            *PEER_TYPE_COMMUNITIES.values(),
        ):
            assert value >> 16 == OPERATOR_ASN

    def test_all_values_distinct(self):
        values = [INJECTED, ALT_PATH_MEASUREMENT] + list(
            PEER_TYPE_COMMUNITIES.values()
        )
        assert len(set(values)) == len(values)


class TestRoute:
    def test_accessor_properties(self):
        peer = make_peer(
            asn=65002, peer_type=PeerType.PRIVATE, interface="pni0"
        )
        route = make_route(
            peer=peer, local_pref=300, as_path=(65002, 64901)
        )
        assert route.peer_type is PeerType.PRIVATE
        assert route.interface == "pni0"
        assert route.router == "pr0"
        assert route.is_ebgp
        assert route.local_pref == 300
        assert route.as_path_length == 2
        assert route.next_hop_asn == 65002

    def test_is_injected(self):
        plain = make_route()
        assert not plain.is_injected
        injected = plain.with_attributes(
            plain.attributes.add_communities([INJECTED])
        )
        assert injected.is_injected

    def test_with_helpers_pure(self):
        route = make_route(local_pref=100)
        boosted = route.with_local_pref(10_000)
        assert route.local_pref == 100
        assert boosted.local_pref == 10_000
        assert boosted.prefix == route.prefix

    def test_key_identity(self):
        a = make_route()
        b = make_route(local_pref=999)
        assert a.key() == b.key()  # same (prefix, session)
        other = make_route(peer=make_peer(asn=64999))
        assert a.key() != other.key()

    def test_str_is_informative(self):
        text = str(make_route())
        assert "via" in text and "lp=" in text


class TestPeerDescriptor:
    def test_name_stable_and_unique(self):
        a = make_peer(asn=65001, session_name="x")
        b = make_peer(asn=65001, session_name="y")
        assert a.name != b.name
        assert "AS65001" in a.name

    def test_is_ebgp(self):
        assert make_peer().is_ebgp
        assert not make_peer(peer_type=PeerType.INTERNAL).is_ebgp
