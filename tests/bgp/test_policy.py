"""Tests for the policy engine and the standard import policy."""

import pytest

from repro.bgp.communities import peer_type_community
from repro.bgp.peering import PeerType
from repro.bgp.policy import (
    LOCAL_PREF_BY_PEER_TYPE,
    PolicyRule,
    RoutePolicy,
    add_community,
    apply_policies,
    match_any,
    match_as_path_contains,
    match_as_path_longer_than,
    match_community,
    match_peer_type,
    match_prefix_within,
    match_too_specific,
    prepend_as,
    set_local_pref,
    set_med,
    standard_import_policy,
    strip_med,
)
from repro.netbase.addr import Prefix
from repro.netbase.errors import PolicyError

from .helpers import make_peer, make_route


class TestMatchers:
    def test_match_prefix_within(self):
        matcher = match_prefix_within(Prefix.parse("203.0.0.0/16"))
        assert matcher(make_route(prefix=Prefix.parse("203.0.113.0/24")))
        assert not matcher(make_route(prefix=Prefix.parse("198.51.100.0/24")))

    def test_match_peer_type(self):
        matcher = match_peer_type(PeerType.PRIVATE, PeerType.PUBLIC)
        assert matcher(
            make_route(peer=make_peer(peer_type=PeerType.PRIVATE))
        )
        assert not matcher(
            make_route(peer=make_peer(peer_type=PeerType.TRANSIT))
        )

    def test_match_community(self):
        tag = peer_type_community(PeerType.PRIVATE)
        matcher = match_community(tag)
        assert matcher(make_route(communities=frozenset({tag})))
        assert not matcher(make_route())

    def test_match_as_path(self):
        assert match_as_path_contains(65001)(make_route(as_path=(65001, 9)))
        assert not match_as_path_contains(1)(make_route(as_path=(65001, 9)))
        assert match_as_path_longer_than(1)(make_route(as_path=(65001, 9)))
        assert not match_as_path_longer_than(5)(
            make_route(as_path=(65001, 9))
        )

    def test_match_too_specific_is_family_aware(self):
        matcher = match_too_specific()
        assert matcher(make_route(prefix=Prefix.parse("203.0.113.0/25")))
        assert not matcher(make_route(prefix=Prefix.parse("203.0.113.0/24")))
        assert not matcher(make_route(prefix=Prefix.parse("2001:db8::/32")))
        assert not matcher(make_route(prefix=Prefix.parse("2001:db8::/48")))
        assert matcher(make_route(prefix=Prefix.parse("2001:db8::/49")))


class TestActions:
    def test_set_local_pref(self):
        route = set_local_pref(500)(make_route(local_pref=100))
        assert route.local_pref == 500

    def test_add_community(self):
        tag = peer_type_community(PeerType.TRANSIT)
        route = add_community(tag)(make_route())
        assert route.attributes.has_community(tag)

    def test_med_actions(self):
        route = set_med(40)(make_route())
        assert route.attributes.med == 40
        assert strip_med(route).attributes.med is None

    def test_prepend(self):
        route = prepend_as(64600, 2)(make_route(as_path=(65001,)))
        assert route.as_path_length == 3


class TestRoutePolicy:
    def test_first_match_wins(self):
        policy = RoutePolicy(
            name="test",
            rules=[
                PolicyRule(
                    name="a",
                    matchers=(match_any,),
                    actions=(set_local_pref(1),),
                ),
                PolicyRule(
                    name="b",
                    matchers=(match_any,),
                    actions=(set_local_pref(2),),
                ),
            ],
        )
        result = policy.evaluate(make_route())
        assert result.matched_rule == "a"
        assert result.route.local_pref == 1

    def test_reject_rule(self):
        policy = RoutePolicy(
            name="test",
            rules=[PolicyRule(name="deny", matchers=(match_any,), reject=True)],
        )
        result = policy.evaluate(make_route())
        assert not result.accepted
        assert result.route is None

    def test_default_accept_and_reject(self):
        accept = RoutePolicy(name="open", default_accept=True)
        deny = RoutePolicy(name="closed", default_accept=False)
        route = make_route()
        assert accept.apply(route) == route
        assert deny.apply(route) is None

    def test_apply_policies_chain(self):
        chain = [
            RoutePolicy(
                name="one",
                rules=[
                    PolicyRule(
                        name="lp",
                        matchers=(match_any,),
                        actions=(set_local_pref(250),),
                    )
                ],
            ),
            RoutePolicy(
                name="two",
                rules=[
                    PolicyRule(
                        name="med",
                        matchers=(match_any,),
                        actions=(set_med(9),),
                    )
                ],
            ),
        ]
        result = apply_policies(make_route(), chain)
        assert result.local_pref == 250
        assert result.attributes.med == 9

    def test_apply_policies_stops_on_reject(self):
        chain = [
            RoutePolicy(name="closed", default_accept=False),
            RoutePolicy(name="open", default_accept=True),
        ]
        assert apply_policies(make_route(), chain) is None


class TestStandardImportPolicy:
    def test_local_pref_tiers(self):
        for peer_type, expected in LOCAL_PREF_BY_PEER_TYPE.items():
            policy = standard_import_policy(64600, peer_type)
            peer = make_peer(peer_type=peer_type)
            route = policy.apply(make_route(peer=peer, local_pref=999))
            assert route is not None
            assert route.local_pref == expected

    def test_peer_routes_preferred_over_transit(self):
        assert (
            LOCAL_PREF_BY_PEER_TYPE[PeerType.PRIVATE]
            > LOCAL_PREF_BY_PEER_TYPE[PeerType.PUBLIC]
            > LOCAL_PREF_BY_PEER_TYPE[PeerType.ROUTE_SERVER]
            > LOCAL_PREF_BY_PEER_TYPE[PeerType.TRANSIT]
        )

    def test_tags_peer_type_community(self):
        policy = standard_import_policy(64600, PeerType.PRIVATE)
        route = policy.apply(
            make_route(peer=make_peer(peer_type=PeerType.PRIVATE))
        )
        assert route.attributes.has_community(
            peer_type_community(PeerType.PRIVATE)
        )

    def test_rejects_as_loop(self):
        policy = standard_import_policy(64600, PeerType.TRANSIT)
        looped = make_route(as_path=(65001, 64600, 9))
        assert policy.apply(looped) is None

    def test_rejects_long_paths(self):
        policy = standard_import_policy(64600, PeerType.TRANSIT)
        long_path = make_route(as_path=tuple(range(65001, 65001 + 31)))
        assert policy.apply(long_path) is None

    def test_rejects_too_specific(self):
        policy = standard_import_policy(64600, PeerType.TRANSIT)
        specific = make_route(prefix=Prefix.parse("203.0.113.128/25"))
        assert policy.apply(specific) is None

    def test_strips_med_on_peering_not_transit(self):
        peering = standard_import_policy(64600, PeerType.PRIVATE)
        transit = standard_import_policy(64600, PeerType.TRANSIT)
        route = make_route(
            peer=make_peer(peer_type=PeerType.PRIVATE), med=50
        )
        assert peering.apply(route).attributes.med is None
        troute = make_route(
            peer=make_peer(peer_type=PeerType.TRANSIT), med=50
        )
        assert transit.apply(troute).attributes.med == 50

    def test_local_pref_overrides(self):
        policy = standard_import_policy(
            64600, PeerType.PRIVATE, {PeerType.PRIVATE: 777}
        )
        route = policy.apply(
            make_route(peer=make_peer(peer_type=PeerType.PRIVATE))
        )
        assert route.local_pref == 777

    def test_internal_sessions_rejected(self):
        with pytest.raises(PolicyError):
            standard_import_policy(64600, PeerType.INTERNAL)
