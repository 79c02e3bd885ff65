"""Tests for PoP entities."""

import pytest

from repro.bgp.peering import PeerDescriptor, PeerType
from repro.netbase.errors import TopologyError
from repro.netbase.units import gbps
from repro.topology.entities import PoP


def session(router="pr0", asn=65001, interface="et0", address=1, **kw):
    return PeerDescriptor(
        router=router,
        peer_asn=asn,
        peer_type=kw.pop("peer_type", PeerType.TRANSIT),
        interface=interface,
        address=address,
        **kw,
    )


def make_pop():
    pop = PoP("pop-test", local_asn=64600)
    router = pop.add_router("pr0", router_id=1)
    router.add_interface("et0", gbps(100))
    router.add_interface("et1", gbps(10))
    return pop


class TestConstruction:
    def test_duplicate_router_rejected(self):
        pop = make_pop()
        with pytest.raises(TopologyError):
            pop.add_router("pr0", router_id=2)

    def test_duplicate_interface_rejected(self):
        pop = make_pop()
        with pytest.raises(TopologyError):
            pop.routers["pr0"].add_interface("et0", gbps(1))

    def test_session_requires_known_router_and_interface(self):
        pop = make_pop()
        with pytest.raises(TopologyError):
            pop.add_session(session(router="nope"))
        with pytest.raises(TopologyError):
            pop.add_session(session(interface="missing"))

    def test_duplicate_session_address_rejected(self):
        pop = make_pop()
        pop.add_session(session(asn=65001, address=7))
        with pytest.raises(TopologyError):
            pop.add_session(session(asn=65002, interface="et1", address=7))

    def test_router_rejects_foreign_session(self):
        pop = make_pop()
        with pytest.raises(TopologyError):
            pop.routers["pr0"].add_session(session(router="pr1"))


class TestLookups:
    def test_interface_and_capacity(self):
        pop = make_pop()
        assert pop.capacity_of(("pr0", "et0")) == gbps(100)
        with pytest.raises(TopologyError):
            pop.interface(("pr0", "zzz"))

    def test_session_lookup_by_address(self):
        pop = make_pop()
        s = session(address=42)
        pop.add_session(s)
        assert pop.session_by_address(42) == s
        assert pop.session_by_address(43) is None

    def test_sessions_filter_by_type(self):
        pop = make_pop()
        pop.add_session(session(asn=65001, address=1))
        pop.add_session(
            session(
                asn=65002,
                interface="et1",
                address=2,
                peer_type=PeerType.PRIVATE,
            )
        )
        assert len(pop.sessions()) == 2
        assert len(pop.sessions(PeerType.PRIVATE)) == 1
        assert len(pop.ebgp_sessions()) == 2

    def test_sessions_on_interface(self):
        pop = make_pop()
        a = session(asn=65001, address=1)
        b = session(asn=65002, address=2, session_name="x")
        pop.add_session(a)
        pop.add_session(b)
        on_et0 = pop.sessions_on_interface(("pr0", "et0"))
        assert {s.peer_asn for s in on_et0} == {65001, 65002}
        assert pop.sessions_on_interface(("pr0", "et1")) == []

    def test_total_capacity_and_describe(self):
        pop = make_pop()
        assert pop.total_egress_capacity() == gbps(110)
        row = pop.describe()
        assert row["pop"] == "pop-test"
        assert row["interfaces"] == 2
