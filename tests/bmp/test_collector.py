"""Integration tests: speaker → BMP exporter → collector pipeline."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.policy import standard_import_policy
from repro.bgp.speaker import BgpSpeaker
from repro.bmp.collector import BmpCollector, PeerRegistry
from repro.bmp.exporter import BmpExporter
from repro.netbase.addr import Family, Prefix

from tests.bgp.helpers import withdraw

P1 = Prefix.parse("203.0.113.0/24")
P2 = Prefix.parse("198.51.100.0/24")


def make_peer(router, asn, peer_type, interface, address):
    return PeerDescriptor(
        router=router,
        peer_asn=asn,
        peer_type=peer_type,
        interface=interface,
        address=address,
    )


def attrs(peer, *path):
    return PathAttributes(
        as_path=AsPath.sequence(*(path or (peer.peer_asn,))),
        next_hop=(Family.IPV4, peer.address),
    )


class Pipeline:
    """One PR exporting BMP into one collector."""

    def __init__(self, router="pr0"):
        self.speaker = BgpSpeaker(name=router, asn=64600, router_id=1)
        self.registry = PeerRegistry()
        self.clock_value = 0.0
        self.collector = BmpCollector(
            self.registry, clock=lambda: self.clock_value
        )
        self.exporter = BmpExporter(self.speaker, self.collector.feed)

    def add_peer(self, peer, with_policy=True):
        policy = (
            standard_import_policy(64600, peer.peer_type)
            if with_policy
            else None
        )
        self.registry.register(peer)
        self.speaker.add_session(peer, policy)
        self.speaker.establish_directly(peer.name)
        return peer


class TestPipeline:
    def test_announcement_reaches_collector(self):
        pipe = Pipeline()
        peer = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        pipe.speaker.inject_update(peer.name, [P1], attrs(peer))
        routes = pipe.collector.routes_for(P1)
        assert len(routes) == 1
        assert routes[0].source == peer
        # Post-policy: LOCAL_PREF tier applied before export.
        assert routes[0].local_pref == 100

    def test_withdrawal_reaches_collector(self):
        pipe = Pipeline()
        peer = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        pipe.speaker.inject_update(peer.name, [P1], attrs(peer))
        withdraw(pipe.speaker, peer.name, [P1])
        assert pipe.collector.routes_for(P1) == []
        assert pipe.collector.stats.withdrawals == 1

    def test_multiple_peers_multiple_routes(self):
        pipe = Pipeline()
        transit = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        private = pipe.add_peer(
            make_peer("pr0", 65002, PeerType.PRIVATE, "et1", 0x0A000002)
        )
        pipe.speaker.inject_update(transit.name, [P1], attrs(transit))
        pipe.speaker.inject_update(private.name, [P1], attrs(private))
        routes = pipe.collector.routes_for(P1)
        assert len(routes) == 2
        # Collector ranks like the decision process: private first.
        assert routes[0].peer_type is PeerType.PRIVATE
        assert routes[1].peer_type is PeerType.TRANSIT

    def test_unknown_peer_counted_not_crashed(self):
        pipe = Pipeline()
        unregistered = make_peer(
            "pr0", 65009, PeerType.TRANSIT, "et9", 0x0A000009
        )
        pipe.speaker.add_session(unregistered)
        pipe.speaker.establish_directly(unregistered.name)
        pipe.speaker.inject_update(
            unregistered.name, [P1], attrs(unregistered)
        )
        assert pipe.collector.routes_for(P1) == []
        assert pipe.collector.stats.unknown_peers >= 1

    def test_two_routers_one_collector(self):
        registry = PeerRegistry()
        collector = BmpCollector(registry)
        speakers = {}
        for router, asn, address in [
            ("pr0", 65001, 0x0A000001),
            ("pr1", 65002, 0x0A010001),
        ]:
            speaker = BgpSpeaker(name=router, asn=64600, router_id=1)
            BmpExporter(speaker, collector.feed)
            peer = make_peer(router, asn, PeerType.TRANSIT, "et0", address)
            registry.register(peer)
            speaker.add_session(peer)
            speaker.establish_directly(peer.name)
            speakers[router] = (speaker, peer)
        for speaker, peer in speakers.values():
            speaker.inject_update(peer.name, [P1], attrs(peer))
        routes = collector.routes_for(P1)
        assert {route.router for route in routes} == {"pr0", "pr1"}

    def test_full_rib_export_resyncs(self):
        pipe = Pipeline()
        peer = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        pipe.speaker.inject_update(peer.name, [P1, P2], attrs(peer))
        # Fresh collector joins late and asks for a resync.
        late = BmpCollector(pipe.registry)
        exporter = BmpExporter(pipe.speaker, late.feed)
        exporter.export_full_rib()
        assert len(late.routes_for(P1)) == 1
        assert len(late.routes_for(P2)) == 1

    def test_collector_health_tracking(self):
        pipe = Pipeline()
        peer = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        assert pipe.collector.age() == float("inf")
        pipe.clock_value = 10.0
        pipe.speaker.inject_update(peer.name, [P1], attrs(peer))
        pipe.clock_value = 25.0
        assert pipe.collector.age() == pytest.approx(15.0)
        assert "pr0" in pipe.collector.routers()

    def test_counts(self):
        pipe = Pipeline()
        peer = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        pipe.speaker.inject_update(peer.name, [P1, P2], attrs(peer))
        assert pipe.collector.prefix_count() == 2
        assert pipe.collector.route_count() == 2
        assert pipe.collector.stats.announcements == 2

    def test_longest_match(self):
        pipe = Pipeline()
        peer = pipe.add_peer(
            make_peer("pr0", 65001, PeerType.TRANSIT, "et0", 0x0A000001)
        )
        pipe.speaker.inject_update(peer.name, [P1], attrs(peer))
        hit = pipe.collector.longest_match(
            Prefix.parse("203.0.113.128/26")
        )
        assert hit is not None and hit.prefix == P1
