"""Tests for BgpSpeaker: wire-driven sessions, policy, RIB integration."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import (
    KeepaliveMessage,
    OpenMessage,
    decode_stream,
    encode_message,
)
from repro.bgp.peering import PeerType
from repro.bgp.policy import standard_import_policy
from repro.bgp.speaker import BgpSpeaker
from repro.netbase.addr import Family, Prefix
from repro.netbase.errors import SessionError

from .helpers import make_peer, withdraw

P1 = Prefix.parse("203.0.113.0/24")
P2 = Prefix.parse("198.51.100.0/24")


def make_speaker(**kwargs) -> BgpSpeaker:
    defaults = dict(name="pr0", asn=64600, router_id=0x0A000001)
    defaults.update(kwargs)
    return BgpSpeaker(**defaults)


def attrs_for(peer, as_path=(65001, 65002)) -> PathAttributes:
    return PathAttributes(
        as_path=AsPath.sequence(*as_path),
        next_hop=(Family.IPV4, peer.address),
    )


class TestSessionLifecycle:
    def test_wire_handshake(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        speaker.start_session(peer.name)
        speaker.connect_session(peer.name)
        out, _ = decode_stream(speaker.take_output(peer.name))
        assert len(out) == 1 and isinstance(out[0], OpenMessage)
        assert out[0].asn == 64600

        remote_open = OpenMessage.standard(
            asn=peer.peer_asn, router_id=99, hold_time=90
        )
        speaker.receive_wire(peer.name, encode_message(remote_open))
        out, _ = decode_stream(speaker.take_output(peer.name))
        assert len(out) == 1 and isinstance(out[0], KeepaliveMessage)

        speaker.receive_wire(
            peer.name, encode_message(KeepaliveMessage())
        )
        assert speaker.session(peer.name).is_established

    def test_duplicate_session_rejected(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        with pytest.raises(SessionError):
            speaker.add_session(peer)

    def test_unknown_session_rejected(self):
        speaker = make_speaker()
        with pytest.raises(SessionError):
            speaker.session("nope")

    def test_stop_session_flushes_routes(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        speaker.establish_directly(peer.name)
        speaker.inject_update(peer.name, [P1], attrs_for(peer))
        assert speaker.loc_rib.best(P1) is not None
        changes = speaker.stop_session(peer.name)
        assert len(changes) == 1
        assert speaker.loc_rib.best(P1) is None

    def test_hold_expiry_flushes_routes(self):
        speaker = make_speaker(hold_time=90)
        peer = make_peer()
        speaker.add_session(peer)
        speaker.establish_directly(peer.name)
        speaker.inject_update(peer.name, [P1], attrs_for(peer))
        speaker.tick(200.0)
        assert not speaker.session(peer.name).is_established
        assert speaker.loc_rib.best(P1) is None


class TestRouteProcessing:
    def test_announce_installs_in_both_ribs(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        speaker.establish_directly(peer.name)
        events = speaker.inject_update(peer.name, [P1, P2], attrs_for(peer))
        assert len(events) == 2
        assert all(not e.withdrawn for e in events)
        assert speaker.session(peer.name).adj_rib_in.get(P1) is not None
        assert speaker.loc_rib.best(P1).source == peer

    def test_withdraw_removes(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        speaker.establish_directly(peer.name)
        speaker.inject_update(peer.name, [P1], attrs_for(peer))
        events = withdraw(speaker, peer.name, [P1])
        assert len(events) == 1 and events[0].withdrawn
        assert speaker.loc_rib.best(P1) is None

    def test_import_policy_applied(self):
        speaker = make_speaker()
        peer = make_peer(peer_type=PeerType.PRIVATE)
        speaker.add_session(
            peer, standard_import_policy(64600, PeerType.PRIVATE)
        )
        speaker.establish_directly(peer.name)
        speaker.inject_update(peer.name, [P1], attrs_for(peer))
        best = speaker.loc_rib.best(P1)
        assert best.local_pref == 300  # private tier

    def test_policy_rejection_acts_as_withdraw(self):
        speaker = make_speaker()
        peer = make_peer(peer_type=PeerType.TRANSIT)
        speaker.add_session(
            peer, standard_import_policy(64600, PeerType.TRANSIT)
        )
        speaker.establish_directly(peer.name)
        speaker.inject_update(peer.name, [P1], attrs_for(peer))
        assert speaker.loc_rib.best(P1) is not None
        # Re-announce with our own ASN in the path: policy rejects, and the
        # previously accepted route must be flushed.
        looped = attrs_for(peer, as_path=(65001, 64600))
        events = speaker.inject_update(peer.name, [P1], looped)
        assert events[0].withdrawn
        assert speaker.loc_rib.best(P1) is None

    def test_best_path_across_sessions(self):
        speaker = make_speaker()
        transit = make_peer(
            asn=65001, peer_type=PeerType.TRANSIT, interface="et0"
        )
        private = make_peer(
            asn=65002,
            peer_type=PeerType.PRIVATE,
            interface="et1",
            address=0x0A000002,
        )
        speaker.add_session(
            transit, standard_import_policy(64600, PeerType.TRANSIT)
        )
        speaker.add_session(
            private, standard_import_policy(64600, PeerType.PRIVATE)
        )
        speaker.establish_directly(transit.name)
        speaker.establish_directly(private.name)
        speaker.inject_update(
            transit.name, [P1], attrs_for(transit, (65001, 64999))
        )
        speaker.inject_update(
            private.name, [P1], attrs_for(private, (65002,))
        )
        best = speaker.loc_rib.best(P1)
        assert best.source == private
        ranked = speaker.loc_rib.routes_for(P1)
        assert [r.source.peer_type for r in ranked] == [
            PeerType.PRIVATE,
            PeerType.TRANSIT,
        ]

    def test_observers_see_events_with_wire_bytes(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        speaker.establish_directly(peer.name)
        seen = []
        speaker.subscribe(lambda _spk, event: seen.append(event))
        speaker.inject_update(peer.name, [P1], attrs_for(peer))
        assert len(seen) == 1
        event = seen[0]
        assert event.prefix == P1
        assert not event.withdrawn
        # The raw bytes must decode back to an equivalent UPDATE.
        messages, _ = decode_stream(event.raw_update)
        assert messages[0].announced == (P1,)

    def test_update_before_established_raises(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        with pytest.raises(SessionError):
            speaker.inject_update(peer.name, [P1], attrs_for(peer))

    def test_ipv6_routes(self):
        speaker = make_speaker()
        peer = make_peer()
        speaker.add_session(peer)
        speaker.establish_directly(peer.name)
        v6_prefix = Prefix.parse("2001:db8::/32")
        attrs = PathAttributes(
            as_path=AsPath.sequence(65001),
            next_hop=(Family.IPV6, 0x20010DB8 << 96),
        )
        speaker.inject_update(peer.name, [v6_prefix], attrs)
        assert speaker.loc_rib.best(v6_prefix) is not None
