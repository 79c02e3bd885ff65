"""Tests for Adj-RIB-In and Loc-RIB."""

import pytest

from repro.bgp.peering import PeerType
from repro.bgp.rib import AdjRibIn, LocRib
from repro.netbase.addr import Prefix
from repro.netbase.errors import RibError

from .helpers import make_peer, make_route

P1 = Prefix.parse("203.0.113.0/24")
P2 = Prefix.parse("198.51.100.0/24")


class TestAdjRibIn:
    def test_update_and_get(self):
        peer = make_peer()
        rib = AdjRibIn(peer)
        route = make_route(prefix=P1, peer=peer)
        assert rib.update(route) is None
        assert rib.get(P1) == route
        assert len(rib) == 1
        assert P1 in rib

    def test_update_replaces(self):
        peer = make_peer()
        rib = AdjRibIn(peer)
        old = make_route(prefix=P1, peer=peer, local_pref=100)
        new = make_route(prefix=P1, peer=peer, local_pref=300)
        rib.update(old)
        assert rib.update(new) == old
        assert rib.get(P1) == new
        assert len(rib) == 1

    def test_wrong_peer_rejected(self):
        rib = AdjRibIn(make_peer(asn=65001))
        foreign = make_route(peer=make_peer(asn=65002))
        with pytest.raises(RibError):
            rib.update(foreign)

    def test_withdraw(self):
        peer = make_peer()
        rib = AdjRibIn(peer)
        route = make_route(prefix=P1, peer=peer)
        rib.update(route)
        assert rib.withdraw(P1) == route
        assert rib.withdraw(P1) is None  # idempotent
        assert len(rib) == 0

    def test_clear_returns_all(self):
        peer = make_peer()
        rib = AdjRibIn(peer)
        rib.update(make_route(prefix=P1, peer=peer))
        rib.update(make_route(prefix=P2, peer=peer))
        dropped = rib.clear()
        assert len(dropped) == 2
        assert len(rib) == 0

    def test_iteration(self):
        peer = make_peer()
        rib = AdjRibIn(peer)
        rib.update(make_route(prefix=P1, peer=peer))
        rib.update(make_route(prefix=P2, peer=peer))
        assert {r.prefix for r in rib.routes()} == {P1, P2}
        assert set(rib.prefixes()) == {P1, P2}


class TestLocRibBestPath:
    def test_first_route_becomes_best(self):
        rib = LocRib()
        route = make_route(prefix=P1)
        change = rib.update(route)
        assert change.old_best is None
        assert change.new_best == route
        assert rib.best(P1) == route

    def test_better_route_takes_over(self):
        rib = LocRib()
        transit = make_route(
            prefix=P1,
            peer=make_peer(asn=65001, peer_type=PeerType.TRANSIT),
            local_pref=100,
        )
        private = make_route(
            prefix=P1,
            peer=make_peer(
                asn=65002, peer_type=PeerType.PRIVATE, address=0x0A000002
            ),
            local_pref=300,
        )
        rib.update(transit)
        change = rib.update(private)
        assert change.old_best == transit
        assert change.new_best == private

    def test_worse_route_does_not_take_over(self):
        rib = LocRib()
        good = make_route(prefix=P1, local_pref=300)
        worse = make_route(
            prefix=P1, peer=make_peer(address=0x0A000002), local_pref=100
        )
        rib.update(good)
        change = rib.update(worse)
        assert change.old_best == good
        assert change.new_best == good
        assert rib.route_count() == 2

    def test_reannouncement_replaces_same_session(self):
        rib = LocRib()
        peer = make_peer()
        rib.update(make_route(prefix=P1, peer=peer, local_pref=100))
        rib.update(make_route(prefix=P1, peer=peer, local_pref=300))
        assert rib.route_count() == 1
        assert rib.best(P1).local_pref == 300


class TestLocRibWithdraw:
    def test_withdraw_best_promotes_next(self):
        rib = LocRib()
        peer_a = make_peer(asn=65001, address=0x0A000001)
        peer_b = make_peer(asn=65002, address=0x0A000002)
        best = make_route(prefix=P1, peer=peer_a, local_pref=300)
        backup = make_route(prefix=P1, peer=peer_b, local_pref=100)
        rib.update(best)
        rib.update(backup)
        change = rib.withdraw(P1, peer_a)
        assert change.old_best == best
        assert change.new_best == backup
        assert rib.best(P1) == backup

    def test_withdraw_last_route_removes_prefix(self):
        rib = LocRib()
        peer = make_peer()
        rib.update(make_route(prefix=P1, peer=peer))
        change = rib.withdraw(P1, peer)
        assert change.old_best is not None and change.new_best is None
        assert rib.best(P1) is None
        assert P1 not in rib
        assert len(rib) == 0

    def test_withdraw_unknown_is_noop(self):
        rib = LocRib()
        peer = make_peer()
        change = rib.withdraw(P1, peer)
        assert change.old_best is None and change.new_best is None

    def test_withdraw_peer_flushes_all_its_routes(self):
        rib = LocRib()
        peer_a = make_peer(asn=65001, address=0x0A000001)
        peer_b = make_peer(asn=65002, address=0x0A000002)
        rib.update(make_route(prefix=P1, peer=peer_a))
        rib.update(make_route(prefix=P2, peer=peer_a))
        rib.update(make_route(prefix=P1, peer=peer_b, learned_at=1.0))
        changes = rib.withdraw_peer(peer_a)
        assert len(changes) == 2
        assert rib.best(P2) is None
        assert rib.best(P1).source == peer_b


class TestLocRibQueries:
    def test_routes_for_returns_ranked(self):
        rib = LocRib()
        low = make_route(
            prefix=P1, peer=make_peer(address=0x0A000001), local_pref=100
        )
        high = make_route(
            prefix=P1,
            peer=make_peer(address=0x0A000002, asn=65002),
            local_pref=300,
        )
        rib.update(low)
        rib.update(high)
        ranked = rib.routes_for(P1)
        assert ranked == [high, low]
        assert rib.routes_for(P2) == []

    def test_prefix_iteration_and_family_filter(self):
        from repro.netbase.addr import Family

        rib = LocRib()
        v6 = Prefix.parse("2001:db8::/32")
        rib.update(make_route(prefix=P1))
        rib.update(make_route(prefix=v6))
        assert set(rib.prefixes()) == {P1, v6}
        assert set(rib.prefixes(Family.IPV6)) == {v6}

    def test_items_and_best_routes(self):
        rib = LocRib()
        rib.update(make_route(prefix=P1))
        rib.update(make_route(prefix=P2))
        assert {prefix for prefix, _ in rib.items()} == {P1, P2}
        assert {rib.best(p).prefix for p, _ in rib.items()} == {P1, P2}

    def test_longest_match(self):
        rib = LocRib()
        coarse = make_route(prefix=Prefix.parse("203.0.0.0/16"))
        fine = make_route(prefix=P1, peer=make_peer(address=0x0A000002))
        rib.update(coarse)
        rib.update(fine)
        hit = rib.longest_match(Prefix.parse("203.0.113.64/26"))
        assert hit == fine
        hit = rib.longest_match(Prefix.parse("203.0.5.0/24"))
        assert hit == coarse
        assert rib.longest_match(Prefix.parse("10.0.0.0/8")) is None
