"""Tests for PoP building and scenario construction."""

import pytest

from repro.bgp.peering import PeerType
from repro.netbase.errors import TopologyError
from repro.topology.builder import PopSpec, build_pop
from repro.topology.internet import InternetConfig, InternetTopology
from repro.topology.scenarios import (
    STUDY_POP_NAMES,
    build_study_pop,
    fleet_specs,
    study_pop_spec,
)


@pytest.fixture(scope="module")
def small_internet():
    return InternetTopology(
        InternetConfig(seed=5, tier1_count=3, tier2_count=8, stub_count=40)
    )


@pytest.fixture(scope="module")
def wired(small_internet):
    spec = PopSpec(
        name="pop-test",
        seed=5,
        router_count=2,
        transit_count=2,
        private_peer_count=4,
        public_peer_count=6,
        route_server_member_count=8,
    )
    return build_pop(spec, small_internet)


class TestWiring:
    def test_routers_and_speakers_match(self, wired):
        assert set(wired.pop.routers) == set(wired.speakers)
        assert len(wired.pop.routers) == 2

    def test_transit_on_every_router(self, wired):
        transit = wired.pop.sessions(PeerType.TRANSIT)
        routers = {session.router for session in transit}
        assert routers == set(wired.pop.routers)
        assert len(transit) == 4  # 2 providers x 2 routers

    def test_private_peers_have_dedicated_interfaces(self, wired):
        seen_interfaces = set()
        for session in wired.pop.sessions(PeerType.PRIVATE):
            key = (session.router, session.interface)
            assert key not in seen_interfaces
            seen_interfaces.add(key)

    def test_public_and_rs_share_ixp_interface(self, wired):
        ixp_sessions = wired.pop.sessions(PeerType.PUBLIC) + wired.pop.sessions(
            PeerType.ROUTE_SERVER
        )
        interfaces = {(s.router, s.interface) for s in ixp_sessions}
        assert len(interfaces) == 1

    def test_all_sessions_established_with_routes(self, wired):
        for session in wired.pop.ebgp_sessions():
            speaker = wired.speakers[session.router]
            assert speaker.session(session.name).is_established
            assert len(speaker.session(session.name).adj_rib_in) > 0

    def test_transit_carries_full_table(self, wired, small_internet):
        transit = wired.pop.sessions(PeerType.TRANSIT)[0]
        speaker = wired.speakers[transit.router]
        rib = speaker.session(transit.name).adj_rib_in
        assert len(rib) == len(small_internet.all_prefixes())

    def test_peer_carries_cone_only(self, wired, small_internet):
        private = wired.pop.sessions(PeerType.PRIVATE)[0]
        speaker = wired.speakers[private.router]
        rib = speaker.session(private.name).adj_rib_in
        cone = set(small_internet.cone_prefixes(private.peer_asn))
        assert set(rib.prefixes()) == cone

    def test_local_pref_tiers_applied(self, wired):
        private = wired.pop.sessions(PeerType.PRIVATE)[0]
        speaker = wired.speakers[private.router]
        route = next(iter(speaker.session(private.name).adj_rib_in.routes()))
        assert route.local_pref == 300

    def test_registry_covers_all_sessions(self, wired):
        assert len(wired.registry) == len(wired.pop.ebgp_sessions())

    def test_popular_prefixes_are_peer_cones(self, wired, small_internet):
        popular = set(wired.popular_prefixes())
        union = set()
        for asn in wired.private_peer_asns:
            union |= set(small_internet.cone_prefixes(asn))
        assert popular == union

    def test_feeds_recorded(self, wired):
        assert set(wired.feeds) == {
            s.name for s in wired.pop.ebgp_sessions()
        }
        for prefixes in wired.feeds.values():
            assert prefixes

    def test_route_diversity(self, wired):
        """Every prefix must have at least the redundant transit routes."""
        prefixes = set()
        for speaker in wired.speakers.values():
            prefixes |= set(speaker.loc_rib.prefixes())
        for prefix in list(prefixes)[:50]:
            total = sum(
                len(speaker.loc_rib.routes_for(prefix))
                for speaker in wired.speakers.values()
            )
            assert total >= 4


class TestSpecValidation:
    def test_bad_specs_rejected(self):
        with pytest.raises(TopologyError):
            PopSpec(name="x", router_count=0)
        with pytest.raises(TopologyError):
            PopSpec(name="x", transit_count=0)

    def test_too_many_transits_rejected(self, small_internet):
        spec = PopSpec(name="x", transit_count=99)
        with pytest.raises(TopologyError):
            build_pop(spec, small_internet)


class TestScenarios:
    def test_study_pop_names(self):
        for name in STUDY_POP_NAMES:
            spec = study_pop_spec(name)
            assert spec.name == name

    def test_unknown_study_pop(self):
        with pytest.raises(TopologyError):
            study_pop_spec("pop-z")

    def test_build_study_pop_smoke(self):
        wired = build_study_pop("pop-b", seed=2)
        description = wired.pop.describe()
        assert description["transit_sessions"] == 6  # 3 providers x 2 PRs
        assert description["private_peers"] == 3

    def test_fleet_specs_unique_names(self):
        specs = fleet_specs(count=8, seed=1)
        names = [spec.name for spec in specs]
        assert len(set(names)) == 8
