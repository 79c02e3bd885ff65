"""Tests for PopView, egress resolution, metrics and the simulator."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.communities import INJECTED
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.route import Route
from repro.dataplane.fib import egress_interface
from repro.dataplane.metrics import InterfaceSample, MetricsStore
from repro.dataplane.popview import PopView
from repro.dataplane.simulator import PopSimulator
from repro.netbase.addr import Family, Prefix
from repro.netbase.errors import DataplaneError
from repro.netbase.units import gbps
from repro.topology.builder import PopSpec, build_pop
from repro.topology.internet import InternetConfig, InternetTopology
from repro.traffic.demand import DemandConfig, DemandModel

from tests.bgp.helpers import withdraw

P1 = Prefix.parse("203.0.113.0/24")


@pytest.fixture(scope="module")
def wired():
    internet = InternetTopology(
        InternetConfig(seed=5, tier1_count=3, tier2_count=8, stub_count=40)
    )
    spec = PopSpec(
        name="pop-test",
        seed=5,
        router_count=2,
        transit_count=2,
        private_peer_count=4,
        public_peer_count=6,
        route_server_member_count=8,
    )
    return build_pop(spec, internet)


def make_demand(wired, peak=gbps(120), sigma=0.0, seed=2):
    prefixes = wired.internet.all_prefixes()
    return DemandModel(
        prefixes,
        DemandConfig(seed=seed, peak_total=peak, volatility_sigma=sigma),
        popular=wired.popular_prefixes(),
    )


class TestPopView:
    def test_view_sees_existing_routes(self, wired):
        view = PopView(wired.speakers.values())
        assert len(view) == len(wired.internet.all_prefixes())
        prefix = wired.internet.all_prefixes()[0]
        assert view.best(prefix) is not None
        assert len(view.routes_for(prefix)) >= 4

    def test_view_tracks_new_announcements(self, wired):
        view = PopView(wired.speakers.values())
        session = wired.pop.sessions(PeerType.TRANSIT)[0]
        speaker = wired.speakers[session.router]
        attrs = PathAttributes(
            as_path=AsPath.sequence(session.peer_asn, 64999),
            next_hop=(Family.IPV4, session.address),
        )
        speaker.inject_update(session.name, [P1], attrs)
        assert view.best(P1) is not None
        withdraw(speaker, session.name, [P1])
        assert view.best(P1) is None

    def test_best_prefers_private_peers(self, wired):
        view = PopView(wired.speakers.values())
        private = wired.pop.sessions(PeerType.PRIVATE)[0]
        cone = wired.internet.cone_prefixes(private.peer_asn)
        prefix = cone[0]
        best = view.best(prefix)
        assert best.peer_type in (PeerType.PRIVATE, PeerType.PUBLIC)
        assert best.local_pref >= 280


class TestEgressResolution:
    def test_ebgp_route_uses_its_session_interface(self, wired):
        view = PopView(wired.speakers.values())
        prefix = wired.internet.all_prefixes()[0]
        best = view.best(prefix)
        key = egress_interface(wired.pop, best)
        assert key == (best.source.router, best.source.interface)

    def test_injected_route_resolves_via_next_hop(self, wired):
        target = wired.pop.sessions(PeerType.TRANSIT)[0]
        injector_session = PeerDescriptor(
            router=target.router,
            peer_asn=wired.pop.local_asn,
            peer_type=PeerType.INTERNAL,
            interface=target.interface,
            address=0x7F000001,
            session_name="injector",
        )
        injected = Route(
            prefix=P1,
            attributes=PathAttributes(
                as_path=AsPath.sequence(target.peer_asn),
                next_hop=(Family.IPV4, target.address),
                local_pref=10_000,
                communities=frozenset({INJECTED}),
            ),
            source=injector_session,
        )
        key = egress_interface(wired.pop, injected)
        assert key == (target.router, target.interface)

    def test_unresolvable_next_hop_raises(self, wired):
        injector_session = PeerDescriptor(
            router="pop-test-pr0",
            peer_asn=wired.pop.local_asn,
            peer_type=PeerType.INTERNAL,
            interface="tr0",
            address=0x7F000001,
        )
        bogus = Route(
            prefix=P1,
            attributes=PathAttributes(
                as_path=AsPath(),
                next_hop=(Family.IPV4, 0xDEADBEEF),
                local_pref=10_000,
            ),
            source=injector_session,
        )
        with pytest.raises(DataplaneError):
            egress_interface(wired.pop, bogus)


class TestMetricsStore:
    def sample(self, t, offered, capacity):
        offered_rate = gbps(offered)
        capacity_rate = gbps(capacity)
        transmitted = (
            offered_rate if offered <= capacity else capacity_rate
        )
        return InterfaceSample(
            time=t,
            offered=offered_rate,
            capacity=capacity_rate,
            transmitted=transmitted,
            dropped=offered_rate - capacity_rate,
        )

    def test_utilization_and_overload(self):
        sample = self.sample(0.0, 12, 10)
        assert sample.utilization == pytest.approx(1.2)
        assert sample.is_overloaded
        assert sample.dropped == gbps(2)
        calm = self.sample(0.0, 5, 10)
        assert not calm.is_overloaded

    def test_summary(self):
        store = MetricsStore()
        key = ("pr0", "et0")
        for t, offered in enumerate([5, 12, 15, 8]):
            store.record(key, self.sample(float(t), offered, 10), 30.0)
        summary = store.overload_summary(key)
        assert summary.samples == 4
        assert summary.overloaded_samples == 2
        assert summary.overload_fraction == 0.5
        assert summary.peak_utilization == pytest.approx(1.5)
        assert summary.total_dropped_bits == pytest.approx(
            (2 + 5) * 1e9 * 30.0
        )

    def test_store_wide_aggregates(self):
        store = MetricsStore()
        store.record(("pr0", "a"), self.sample(0.0, 12, 10), 1.0)
        store.record(("pr0", "b"), self.sample(0.0, 5, 10), 1.0)
        summaries = store.overload_summaries()
        assert [s.overloaded_samples for s in summaries] == [1, 0]
        assert store.total_dropped_bits() == pytest.approx(2e9)
        assert store.utilization_at(("pr0", "a"), 0.5) == pytest.approx(1.2)
        assert store.utilization_at(("pr0", "zz"), 0.5) == 0.0


class TestSimulator:
    def test_tick_conserves_traffic(self, wired):
        demand = make_demand(wired)
        simulator = PopSimulator(
            wired, demand, tick_seconds=30.0, seed=1
        )
        result = simulator.tick(demand.config.peak_time)
        total_demand = demand.rate_array(demand.config.peak_time).sum()
        accounted = result.total_offered() + result.unrouted
        assert accounted.bits_per_second == pytest.approx(
            total_demand, rel=1e-6
        )

    def test_loads_respect_routing(self, wired):
        demand = make_demand(wired)
        simulator = PopSimulator(wired, demand, seed=1)
        result = simulator.tick(0.0)
        for prefix, route in result.assignments.items():
            assert route == simulator.view.best(prefix)

    def test_drops_only_over_capacity(self, wired):
        demand = make_demand(wired, peak=gbps(350))
        simulator = PopSimulator(wired, demand, seed=1)
        result = simulator.tick(demand.config.peak_time)
        for key, drop in result.drops.items():
            offered = result.loads[key]
            capacity = wired.pop.capacity_of(key)
            if offered <= capacity:
                assert drop.is_zero()
            else:
                expected = offered.bits_per_second - capacity.bits_per_second
                assert drop.bits_per_second == pytest.approx(expected)

    def test_metrics_cover_idle_interfaces(self, wired):
        demand = make_demand(wired)
        simulator = PopSimulator(wired, demand, seed=1)
        simulator.tick(0.0)
        recorded = set(simulator.metrics.interfaces())
        assert recorded == set(wired.pop.interface_keys())

    def test_datagrams_emitted_per_router(self, wired):
        demand = make_demand(wired)
        simulator = PopSimulator(
            wired, demand, sampling_rate=8192, seed=1
        )
        result = simulator.tick(demand.config.peak_time)
        assert set(result.datagrams) == set(wired.pop.routers)
        assert sum(len(v) for v in result.datagrams.values()) > 0
