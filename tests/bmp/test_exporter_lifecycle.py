"""Exporter lifecycle: heartbeats, peer down, termination, injector
filtering."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.speaker import BgpSpeaker
from repro.bmp.collector import BmpCollector, PeerRegistry
from repro.bmp.exporter import BmpExporter
from repro.bmp.messages import (
    PeerDownMessage,
    PeerHeader,
    TerminationMessage,
    encode_bmp,
)
from repro.netbase.addr import Family, Prefix

P1 = Prefix.parse("203.0.113.0/24")


def make_setup():
    speaker = BgpSpeaker(name="pr0", asn=64600, router_id=1)
    registry = PeerRegistry()
    clock = {"now": 0.0}
    collector = BmpCollector(registry, clock=lambda: clock["now"])
    exporter = BmpExporter(speaker, collector.feed)
    peer = PeerDescriptor(
        router="pr0",
        peer_asn=65001,
        peer_type=PeerType.TRANSIT,
        interface="et0",
        address=0x0A000001,
    )
    registry.register(peer)
    speaker.add_session(peer)
    speaker.establish_directly(peer.name)
    return speaker, collector, exporter, peer, clock


def attrs(peer):
    return PathAttributes(
        as_path=AsPath.sequence(peer.peer_asn),
        next_hop=(Family.IPV4, peer.address),
    )


class TestHeartbeat:
    def test_heartbeat_refreshes_collector_age(self):
        speaker, collector, exporter, peer, clock = make_setup()
        speaker.inject_update(peer.name, [P1], attrs(peer))
        clock["now"] = 50.0
        assert collector.age() == 50.0
        exporter.heartbeat()
        assert collector.age() == 0.0

    def test_heartbeat_skips_internal_sessions(self):
        speaker, collector, exporter, peer, clock = make_setup()
        internal = PeerDescriptor(
            router="pr0",
            peer_asn=64600,
            peer_type=PeerType.INTERNAL,
            interface="lo0",
            address=0x7F000001,
        )
        speaker.add_session(internal)
        speaker.establish_directly(internal.name)
        before = collector.stats.messages
        exporter.heartbeat()
        # Exactly one stats message (the eBGP session), not two.
        assert collector.stats.messages == before + 1


class TestPeerLifecycle:
    def test_peer_down_flushes_collector(self):
        speaker, collector, exporter, peer, clock = make_setup()
        speaker.inject_update(peer.name, [P1], attrs(peer))
        assert collector.routes_for(P1)
        header = PeerHeader(
            peer_address=peer.address,
            peer_asn=peer.peer_asn,
            peer_bgp_id=peer.address,
            family=peer.family,
            post_policy=True,
        )
        collector.feed(
            "pr0", encode_bmp(PeerDownMessage(peer=header, reason=2))
        )
        assert collector.routes_for(P1) == []
        assert collector.stats.peer_downs == 1

    def test_session_stop_propagates_as_withdrawals(self):
        speaker, collector, exporter, peer, clock = make_setup()
        speaker.inject_update(peer.name, [P1], attrs(peer))
        speaker.stop_session(peer.name)
        assert collector.routes_for(P1) == []

    def test_terminate_removes_router_liveness(self):
        speaker, collector, exporter, peer, clock = make_setup()
        speaker.inject_update(peer.name, [P1], attrs(peer))
        assert "pr0" in collector.routers()
        collector.feed(
            "pr0", encode_bmp(TerminationMessage(reason="maintenance"))
        )
        assert "pr0" not in collector.routers()


class TestInjectorFiltering:
    def test_internal_route_events_not_exported(self):
        speaker, collector, exporter, peer, clock = make_setup()
        internal = PeerDescriptor(
            router="pr0",
            peer_asn=64600,
            peer_type=PeerType.INTERNAL,
            interface="lo0",
            address=0x7F000001,
        )
        speaker.add_session(internal)
        speaker.establish_directly(internal.name)
        before = collector.stats.route_monitoring
        speaker.inject_update(
            internal.name,
            [P1],
            attrs(peer).with_local_pref(10_000),
        )
        assert collector.stats.route_monitoring == before
        assert collector.routes_for(P1) == []
