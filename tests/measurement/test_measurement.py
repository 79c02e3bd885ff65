"""Tests for the path performance model, passive monitor and alt-path
measurement pipeline."""

import numpy as np
import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.peering import PeerDescriptor, PeerType
from repro.bgp.route import Route
from repro.measurement.altpath import AltPathMonitor, DscpPolicy
from repro.measurement.passive import PassiveMonitor
from repro.measurement.pathmodel import (
    PathModelConfig,
    PathPerformanceModel,
)
from repro.netbase.addr import Family, Prefix
from repro.netbase.errors import MeasurementError

PREFIXES = [Prefix.parse(f"11.0.{i}.0/24") for i in range(60)]


def samples(rtts, retx=None):
    """(rtts, retx) sample arrays in the shape ``record`` takes."""
    rtts = np.asarray(rtts, dtype=np.float64)
    if retx is None:
        retx = np.zeros(len(rtts), dtype=np.bool_)
    return rtts, np.asarray(retx, dtype=np.bool_)


def make_route(prefix, session_name, rank):
    peer = PeerDescriptor(
        router="pr0",
        peer_asn=65001 + rank,
        peer_type=PeerType.PRIVATE if rank == 0 else PeerType.TRANSIT,
        interface=f"if{rank}",
        address=0x0A000001 + rank,
        session_name=session_name,
    )
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            as_path=AsPath.sequence(peer.peer_asn),
            next_hop=(Family.IPV4, peer.address),
            local_pref=300 - rank,
        ),
        source=peer,
    )


class TestPathModel:
    def test_deterministic(self):
        a = PathPerformanceModel(PathModelConfig(seed=1))
        b = PathPerformanceModel(PathModelConfig(seed=1))
        for prefix in PREFIXES[:5]:
            assert a.base_rtt_ms(prefix) == b.base_rtt_ms(prefix)
            assert a.path_offset_ms(prefix, "s0") == b.path_offset_ms(
                prefix, "s0"
            )

    def test_different_seed_differs(self):
        a = PathPerformanceModel(PathModelConfig(seed=1))
        b = PathPerformanceModel(PathModelConfig(seed=2))
        diffs = [
            a.base_rtt_ms(p) != b.base_rtt_ms(p) for p in PREFIXES[:10]
        ]
        assert any(diffs)

    def test_base_rtt_plausible_distribution(self):
        model = PathPerformanceModel(PathModelConfig(seed=3))
        rtts = [model.base_rtt_ms(p) for p in PREFIXES]
        assert 10 < np.median(rtts) < 150
        assert min(rtts) > 0

    def test_offset_mixture_shape(self):
        model = PathPerformanceModel(PathModelConfig(seed=5))
        offsets = [
            model.path_offset_ms(prefix, f"session{k}")
            for prefix in PREFIXES
            for k in range(5)
        ]
        offsets = np.array(offsets)
        better = np.mean(offsets < 0)
        much_worse = np.mean(offsets > 20)
        assert 0.05 < better < 0.5  # some alternates are better
        assert 0.02 < much_worse < 0.25  # a minority much worse

    def test_congestion_delay(self):
        model = PathPerformanceModel()
        assert model.congestion_delay_ms(0.5) == 0.0
        assert model.congestion_delay_ms(0.95) == 0.0
        assert 0 < model.congestion_delay_ms(0.97) < 25.0
        assert model.congestion_delay_ms(1.0) == pytest.approx(25.0)
        assert model.congestion_delay_ms(2.0) == pytest.approx(25.0)

    def test_congestion_loss(self):
        model = PathPerformanceModel()
        assert model.congestion_loss(0.99) == 0.0
        assert model.congestion_loss(1.25) == pytest.approx(0.2)
        assert model.congestion_loss(2.0) == pytest.approx(0.5)

    def test_rtt_increases_under_congestion(self):
        model = PathPerformanceModel()
        prefix = PREFIXES[0]
        idle = model.path_rtt_ms(prefix, "s0", utilization=0.2)
        saturated = model.path_rtt_ms(prefix, "s0", utilization=1.0)
        assert saturated > idle

    def test_retransmit_rises_with_overload(self):
        model = PathPerformanceModel()
        prefix = PREFIXES[0]
        idle = model.retransmit_rate(prefix, "s0", 0.1)
        over = model.retransmit_rate(prefix, "s0", 1.5)
        assert idle < 0.02
        assert over > 0.3

    def test_sample_flows(self):
        model = PathPerformanceModel()
        rng = np.random.default_rng(0)
        rtts, retx = model.sample_flows(PREFIXES[0], "s0", 0.0, 200, rng)
        assert len(rtts) == len(retx) == 200
        assert rtts.dtype == np.float64 and retx.dtype == np.bool_
        median = model.path_rtt_ms(PREFIXES[0], "s0", 0.0)
        assert np.median(rtts) == pytest.approx(median, rel=0.1)


class TestPassiveMonitor:
    def test_stats_aggregation(self):
        monitor = PassiveMonitor()
        monitor.record(
            PREFIXES[0],
            "s0",
            *samples([40.0, 50.0, 60.0], [False, True, False]),
        )
        stats = monitor.stats(PREFIXES[0], "s0")
        assert stats.samples == 3
        assert stats.median_rtt_ms == 50.0
        assert stats.retransmit_rate == pytest.approx(1 / 3)

    def test_missing_key(self):
        monitor = PassiveMonitor()
        assert monitor.stats(PREFIXES[0], "none") is None

    def test_sample_cap_recycles(self):
        monitor = PassiveMonitor(max_samples_per_key=10)
        monitor.record(PREFIXES[0], "s0", *samples([1.0] * 25))
        stats = monitor.stats(PREFIXES[0], "s0")
        assert stats.samples <= 15

    def test_key_listing(self):
        monitor = PassiveMonitor()
        monitor.record(PREFIXES[0], "s0", *samples([1.0]))
        monitor.record(PREFIXES[0], "s1", *samples([1.0]))
        monitor.record(PREFIXES[1], "s0", *samples([1.0]))
        assert set(monitor.paths_for(PREFIXES[0])) == {"s0", "s1"}
        assert monitor.prefixes() == sorted([PREFIXES[0], PREFIXES[1]])

    def test_bad_cap(self):
        with pytest.raises(MeasurementError):
            PassiveMonitor(max_samples_per_key=0)


class TestDscpPolicy:
    def test_rank_mapping_round_trip(self):
        policy = DscpPolicy()
        for rank in range(policy.measured_ranks):
            assert policy.dscp_of_rank.index(policy.dscp_for(rank)) == rank

    def test_unknown(self):
        policy = DscpPolicy()
        with pytest.raises(MeasurementError):
            policy.dscp_for(99)


class TestAltPathMonitor:
    def make_monitor(self, n_routes=3, seed=0):
        routes = {
            prefix: [
                make_route(prefix, f"session{r}", r)
                for r in range(n_routes)
            ]
            for prefix in PREFIXES
        }
        model = PathPerformanceModel(PathModelConfig(seed=seed))
        monitor = AltPathMonitor(
            routes_of=lambda p: routes.get(p, []),
            model=model,
            egress_interface_of=lambda route: (
                route.source.router,
                route.source.interface,
            ),
            flows_per_round=30,
            seed=seed,
        )
        return monitor, model

    def test_measure_round_counts(self):
        monitor, _ = self.make_monitor()
        measured = monitor.measure_round(PREFIXES[:10])
        assert measured == 30  # 10 prefixes x 3 ranked paths

    def test_comparisons_produced(self):
        monitor, model = self.make_monitor()
        monitor.measure_round(PREFIXES)
        comparisons = monitor.comparisons()
        assert comparisons
        ranks = {c.rank for c in comparisons}
        assert ranks == {1, 2}
        by_rank = monitor.rtt_deltas_by_rank()
        assert len(by_rank[1]) == len(PREFIXES)

    def test_deltas_track_model_offsets(self):
        monitor, model = self.make_monitor(seed=4)
        monitor.measure_round(PREFIXES)
        for comparison in monitor.comparisons()[:20]:
            expected = model.path_rtt_ms(
                comparison.prefix, comparison.alternate_session
            ) - model.path_rtt_ms(
                comparison.prefix,
                comparison.preferred_session,
                preferred=True,
            )
            assert comparison.median_rtt_delta_ms == pytest.approx(
                expected, abs=8.0
            )

    def test_some_alternates_better(self):
        monitor, _ = self.make_monitor(seed=1)
        monitor.measure_round(PREFIXES)
        deltas = monitor.rtt_deltas_by_rank()[1]
        fraction = sum(1 for delta in deltas if delta < 0) / len(deltas)
        assert 0.0 < fraction < 0.8

    def test_single_route_prefixes_skipped(self):
        monitor, _ = self.make_monitor(n_routes=1)
        monitor.measure_round(PREFIXES[:5])
        assert monitor.comparisons() == []
        assert monitor.rtt_deltas_by_rank() == {}
