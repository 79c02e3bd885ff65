"""Cache-correctness regression tests for the fast-path tick engine.

The PopView memoizes prefix -> (best route, egress interface) and the
LocRib memoizes decision-ranked route lists, both keyed on the RIB's
mutation counter.  These tests churn routes every way the system can —
eBGP announce, withdraw, injected override add and withdraw — and assert
the cached answers stay exactly equal to a fresh, uncached decision.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.communities import INJECTED
from repro.bgp.decision import best_route, rank_routes
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.rib import LocRib
from repro.bgp.route import Route
from repro.core.injector import BgpInjector
from repro.core.overrides import Override, OverrideDiff
from repro.dataplane.popview import PopView
from repro.netbase.addr import Family, Prefix
from repro.netbase.units import gbps
from repro.topology.builder import PopSpec, build_pop
from repro.topology.internet import InternetConfig, InternetTopology

from tests.bgp.helpers import withdraw

P_NEW = Prefix.parse("203.0.113.0/24")


@pytest.fixture()
def wired():
    # Function-scoped: these tests mutate live routing state.
    internet = InternetTopology(
        InternetConfig(seed=9, tier1_count=3, tier2_count=6, stub_count=24)
    )
    spec = PopSpec(
        name="pop-cache",
        seed=9,
        router_count=2,
        transit_count=2,
        private_peer_count=3,
        public_peer_count=4,
        route_server_member_count=6,
    )
    return build_pop(spec, internet)


def fresh_resolution(wired, prefix):
    """Ground truth: a brand-new PopView resolves without any cache."""
    return PopView(wired.speakers.values()).resolve_egress(
        prefix, wired.pop
    )


class TestPopViewCache:
    def test_announce_then_withdraw_invalidates(self, wired):
        view = PopView(wired.speakers.values())
        pop = wired.pop
        # Warm the cache on existing prefixes plus the (unrouted) new one.
        for prefix in wired.internet.all_prefixes()[:20]:
            view.resolve_egress(prefix, pop)
        assert view.resolve_egress(P_NEW, pop) is None

        session = wired.pop.sessions(PeerType.TRANSIT)[0]
        speaker = wired.speakers[session.router]
        attrs = PathAttributes(
            as_path=AsPath.sequence(session.peer_asn, 64999),
            next_hop=(Family.IPV4, session.address),
        )
        speaker.inject_update(session.name, [P_NEW], attrs)
        resolved = view.resolve_egress(P_NEW, pop)
        assert resolved is not None
        assert resolved == fresh_resolution(wired, P_NEW)

        withdraw(speaker, session.name, [P_NEW])
        assert view.resolve_egress(P_NEW, pop) is None
        assert fresh_resolution(wired, P_NEW) is None

    def test_every_prefix_matches_fresh_view_after_churn(self, wired):
        view = PopView(wired.speakers.values())
        pop = wired.pop
        prefixes = wired.internet.all_prefixes()
        for prefix in prefixes:
            view.resolve_egress(prefix, pop)

        # Churn: withdraw one transit's route for a prefix it covers,
        # then re-announce with a longer path.
        session = wired.pop.sessions(PeerType.TRANSIT)[0]
        speaker = wired.speakers[session.router]
        victim = prefixes[0]
        withdraw(speaker, session.name, [victim])
        attrs = PathAttributes(
            as_path=AsPath.sequence(session.peer_asn, 64999, 64998),
            next_hop=(Family.IPV4, session.address),
        )
        speaker.inject_update(session.name, [victim], attrs)

        fresh = PopView(wired.speakers.values())
        for prefix in prefixes:
            assert view.resolve_egress(prefix, pop) == fresh.resolve_egress(
                prefix, pop
            ), prefix

    def test_injected_override_add_and_withdraw(self, wired):
        view = PopView(wired.speakers.values())
        pop = wired.pop
        prefix = wired.internet.all_prefixes()[0]
        before = view.resolve_egress(prefix, pop)
        assert before is not None
        assert not view.has_injected_routes()

        routes = view.routes_for(prefix)
        assert len(routes) >= 2
        override = Override(
            prefix=prefix,
            target=routes[1],
            rate_at_decision=gbps(1),
            created_at=0.0,
        )
        injector = BgpInjector(pop, wired.speakers)
        injector.apply(
            OverrideDiff(announce=(override,), withdraw=(), keep=())
        )

        assert view.has_injected_routes()
        detoured = view.resolve_egress(prefix, pop)
        assert detoured is not None
        assert detoured[0].is_injected
        assert detoured == fresh_resolution(wired, prefix)

        injector.apply(
            OverrideDiff(announce=(), withdraw=(override,), keep=())
        )
        assert not view.has_injected_routes()
        after = view.resolve_egress(prefix, pop)
        assert after == before
        assert after == fresh_resolution(wired, prefix)

    def test_injected_specifics_shortcircuit_tracks_count(self, wired):
        view = PopView(wired.speakers.values())
        covering = wired.internet.all_prefixes()[0]
        assert view.injected_specifics(covering) == []

        # Inject a more-specific of the covering prefix directly into
        # the merged RIB (as a split override would).
        specific = Prefix(
            covering.family, covering.network, covering.length + 1
        )
        source = PeerDescriptor(
            router=wired.pop.sessions(PeerType.TRANSIT)[0].router,
            peer_asn=wired.pop.local_asn,
            peer_type=PeerType.INTERNAL,
            interface="lo0",
            address=0x7F000A01,
            session_name="edge-fabric-injector",
        )
        base = view.best(covering)
        injected = Route(
            prefix=specific,
            attributes=PathAttributes(
                as_path=base.attributes.as_path,
                next_hop=base.attributes.next_hop,
                local_pref=10_000,
                communities=frozenset({INJECTED}),
            ),
            source=source,
        )
        view.rib.update(injected)
        assert view.has_injected_routes()
        assert view.injected_specifics(covering) == [injected]

        view.rib.withdraw(specific, source)
        assert not view.has_injected_routes()
        assert view.injected_specifics(covering) == []


# -- property test: random churn vs ground truth ---------------------------

_PREFIXES = [Prefix.parse(f"198.51.{i}.0/24") for i in range(6)]
_SOURCES = [
    PeerDescriptor(
        router="r0",
        peer_asn=65_000 + i,
        peer_type=PeerType.TRANSIT,
        interface=f"et{i}",
        address=0x0A000001 + i,
        session_name=f"s{i}",
    )
    for i in range(4)
]

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["update", "withdraw"]),
        st.integers(0, len(_PREFIXES) - 1),
        st.integers(0, len(_SOURCES) - 1),
        st.integers(100, 400),
        st.booleans(),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(ops=_OPS)
def test_rib_caches_equal_uncached_decision_under_churn(ops):
    """After any churn sequence, every cached answer equals a fresh
    decision over a plain-dict mirror of the route state."""
    rib = LocRib()
    mirror = {}
    for op, prefix_index, source_index, local_pref, injected in ops:
        prefix = _PREFIXES[prefix_index]
        source = _SOURCES[source_index]
        if op == "update":
            communities = (
                frozenset({INJECTED}) if injected else frozenset()
            )
            route = Route(
                prefix=prefix,
                attributes=PathAttributes(
                    as_path=AsPath.sequence(source.peer_asn, 64_999),
                    next_hop=(Family.IPV4, source.address),
                    local_pref=local_pref,
                    communities=communities,
                ),
                source=source,
            )
            rib.update(route)
            mirror[(prefix, source)] = route
        else:
            rib.withdraw(prefix, source)
            mirror.pop((prefix, source), None)

        for p in _PREFIXES:
            held = [
                route
                for (held_prefix, _s), route in mirror.items()
                if held_prefix == p
            ]
            expected_best = (
                best_route(held, rib.decision_config) if held else None
            )
            assert rib.best(p) == expected_best
            assert rib.routes_for(p) == rank_routes(
                held, rib.decision_config
            )
        assert rib.injected_route_count == sum(
            1 for route in mirror.values() if route.is_injected
        )
