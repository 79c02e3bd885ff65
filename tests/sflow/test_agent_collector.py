"""Tests for the sFlow agent, estimator and collector pipeline."""

import pytest

from repro.netbase.addr import Prefix
from repro.netbase.errors import TrafficError
from repro.netbase.units import gbps, mbps
from repro.sflow.agent import InterfaceIndexMap, ObservedFlow, SflowAgent
from repro.sflow.collector import SflowCollector
from repro.sflow.estimator import RateEstimator

PREFIX = Prefix.parse("203.0.113.0/24")
OTHER = Prefix.parse("198.51.100.0/24")


def resolver(family, address):
    if PREFIX.contains_address(family, address):
        return PREFIX
    if OTHER.contains_address(family, address):
        return OTHER
    return None


def flow(dst="203.0.113.5", byte_rate=1e9, seconds=1.0, interface="et0"):
    from repro.netbase.addr import parse_address

    family, address = parse_address(dst)
    total_bytes = byte_rate * seconds / 8  # byte_rate given in bits/s
    packets = total_bytes / 1000.0  # 1000-byte packets
    return ObservedFlow(
        family=family,
        src_address=0x0A000001,
        dst_address=address,
        bytes_sent=total_bytes,
        packets=packets,
        egress_interface=interface,
    )


class TestInterfaceIndexMap:
    def test_bidirectional(self):
        mapping = InterfaceIndexMap(["et0", "et1"])
        assert mapping.index_of("et0") == 1
        assert mapping.name_of(2) == "et1"
        assert "et0" in mapping
        assert mapping.names() == ["et0", "et1"]

    def test_unknown_rejected(self):
        mapping = InterfaceIndexMap(["et0"])
        with pytest.raises(TrafficError):
            mapping.index_of("nope")
        with pytest.raises(TrafficError):
            mapping.name_of(9)


class TestRateEstimator:
    def test_rate_over_window(self):
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("key", 60e6, now=0.0)  # 60 MB in a 60s window
        assert estimator.rate("key", now=0.0) == mbps(8)

    def test_expiry(self):
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("key", 60e6, now=0.0)
        assert estimator.rate("key", now=61.0).is_zero()

    def test_sliding_accumulation(self):
        estimator = RateEstimator(window_seconds=10.0)
        for second in range(10):
            estimator.add("key", 1e6, now=float(second))
        # 10 MB over a 10s window = 8 Mbps.
        assert estimator.rate("key", now=9.5) == mbps(8)

    def test_unknown_key_is_zero(self):
        estimator = RateEstimator(window_seconds=60.0)
        assert estimator.rate("missing", now=0.0).is_zero()

    def test_rates_snapshot_drops_zeroes(self):
        estimator = RateEstimator(window_seconds=10.0)
        estimator.add("live", 1e6, now=100.0)
        estimator.add("stale", 1e6, now=1.0)
        snapshot = estimator.rates(now=100.0)
        assert "live" in snapshot and "stale" not in snapshot

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RateEstimator(window_seconds=0)
        estimator = RateEstimator(window_seconds=10)
        with pytest.raises(ValueError):
            estimator.add("k", -1, now=0.0)


class TestAgentSampling:
    def make_agent(self, rate=1024, seed=7):
        return SflowAgent(
            router="pr0",
            agent_address=0x0A000001,
            interfaces=InterfaceIndexMap(["et0", "et1"]),
            sampling_rate=rate,
            seed=seed,
        )

    def test_rate_one_samples_everything(self):
        agent = self.make_agent(rate=1)
        datagrams = agent.observe([flow(byte_rate=8e6, seconds=1.0)], now=1.0)
        from repro.sflow.datagram import SflowDatagram

        total = sum(
            len(SflowDatagram.decode(d).samples) for d in datagrams
        )
        # 1 MB at 1000B packets = 1000 packets, all sampled.
        assert total == 1000

    def test_sample_count_tracks_expectation(self):
        agent = self.make_agent(rate=100, seed=3)
        # 100k packets at 1-in-100 → expect ~1000 samples.
        flows = [flow(byte_rate=8e8, seconds=1.0)]  # 100 MB → 100k packets
        from repro.sflow.datagram import SflowDatagram

        total = sum(
            len(SflowDatagram.decode(d).samples)
            for d in agent.observe(flows, now=1.0)
        )
        assert 850 <= total <= 1150

    def test_zero_packet_flow_ignored(self):
        agent = self.make_agent()
        assert agent.observe(
            [flow(byte_rate=0.0, seconds=1.0)], now=1.0
        ) == []

    def test_invalid_sampling_rate(self):
        with pytest.raises(TrafficError):
            self.make_agent(rate=0)

    def test_datagram_batching(self):
        agent = self.make_agent(rate=1)
        # 200 packets at rate 1 → 200 samples → ceil(200/64) datagrams.
        datagrams = agent.observe([flow(byte_rate=1.6e6)], now=1.0)
        assert len(datagrams) == 4


class TestCollectorPipeline:
    def make_pipeline(self, sampling_rate=128, window=10.0, seed=11):
        interfaces = InterfaceIndexMap(["et0", "et1"])
        agent = SflowAgent(
            router="pr0",
            agent_address=0x0A000001,
            interfaces=interfaces,
            sampling_rate=sampling_rate,
            seed=seed,
        )
        collector = SflowCollector(resolver, window_seconds=window)
        collector.register_router("pr0", 0x0A000001, interfaces)
        return agent, collector

    def test_estimated_rate_close_to_actual(self):
        agent, collector = self.make_pipeline()
        actual = gbps(2)
        # Feed 10 one-second intervals of a 2 Gbps flow.
        for second in range(10):
            datagrams = agent.observe(
                [flow(byte_rate=actual.bits_per_second, seconds=1.0)],
                now=float(second),
            )
            collector.feed_many(datagrams, now=float(second))
        estimate = collector.prefix_rate(PREFIX, now=9.5)
        assert estimate / actual == pytest.approx(1.0, abs=0.15)

    def test_unroutable_traffic_accounted(self):
        agent, collector = self.make_pipeline(sampling_rate=1)
        datagrams = agent.observe(
            [flow(dst="192.0.2.1", byte_rate=8e6)], now=0.0
        )
        collector.feed_many(datagrams, now=0.0)
        assert collector.unroutable_bytes > 0
        assert collector.prefix_rates(now=0.0) == {}

    def test_unregistered_agent_rejected(self):
        agent, _ = self.make_pipeline(sampling_rate=1)
        other = SflowCollector(resolver)
        datagrams = agent.observe([flow(byte_rate=8e6)], now=0.0)
        with pytest.raises(TrafficError):
            other.feed(datagrams[0], now=0.0)

    def test_sample_counters(self):
        agent, collector = self.make_pipeline(sampling_rate=1)
        datagrams = agent.observe([flow(byte_rate=8e5)], now=0.0)
        collector.feed_many(datagrams, now=0.0)
        assert collector.datagrams == len(datagrams)
        assert collector.samples == 100  # 100 packets of 1000B
