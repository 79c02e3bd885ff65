"""Tests for the synthetic demand model."""

import numpy as np
import pytest

from repro.netbase.addr import Prefix
from repro.netbase.errors import TrafficError
from repro.netbase.units import gbps
from repro.traffic.demand import DemandConfig, DemandModel, FlashEvent
from repro.traffic.flows import FlowSynthesizer


def make_prefixes(count=50):
    return [
        Prefix.parse(f"11.{i // 256}.{i % 256}.0/24") for i in range(count)
    ]


def make_model(count=50, **config_kwargs):
    prefixes = make_prefixes(count)
    defaults = dict(seed=4, peak_total=gbps(100))
    defaults.update(config_kwargs)
    return DemandModel(prefixes, DemandConfig(**defaults))


class TestConfigValidation:
    def test_bad_floor(self):
        with pytest.raises(TrafficError):
            DemandConfig(diurnal_floor=0.0)
        with pytest.raises(TrafficError):
            DemandConfig(diurnal_floor=1.5)

    def test_bad_rho(self):
        with pytest.raises(TrafficError):
            DemandConfig(volatility_rho=1.0)

    def test_empty_prefixes(self):
        with pytest.raises(TrafficError):
            DemandModel([], DemandConfig())


class TestShape:
    def test_total_at_peak_close_to_configured(self):
        model = make_model(volatility_sigma=0.0)
        total = model.rate_array(model.config.peak_time).sum()
        assert total / gbps(100).bits_per_second == pytest.approx(
            1.0, rel=0.01
        )

    def test_diurnal_cycle(self):
        model = make_model(volatility_sigma=0.0)
        peak = model.config.peak_time
        trough = (peak + 43200) % 86400
        assert model.diurnal_factor(peak) == pytest.approx(1.0)
        assert model.diurnal_factor(trough) == pytest.approx(
            model.config.diurnal_floor
        )

    def test_zipf_skew(self):
        model = make_model(count=200, volatility_sigma=0.0)
        rates = sorted(
            model.rate_array(model.config.peak_time), reverse=True
        )
        top10 = sum(rates[:10])
        total = sum(rates)
        assert top10 / total > 0.3  # heavy concentration

    def test_popular_boost(self):
        prefixes = make_prefixes(100)
        popular = prefixes[:10]
        boosted = DemandModel(
            prefixes,
            DemandConfig(seed=4, popular_boost=8.0, volatility_sigma=0.0),
            popular=popular,
        )
        plain = DemandModel(
            prefixes,
            DemandConfig(seed=4, popular_boost=1.0, volatility_sigma=0.0),
            popular=popular,
        )
        boosted_share = sum(boosted.weight_of(p) for p in popular)
        plain_share = sum(plain.weight_of(p) for p in popular)
        assert boosted_share > plain_share

    def test_weights_normalized(self):
        model = make_model(count=77)
        total = sum(model.weight_of(p) for p in model.prefixes)
        assert total == pytest.approx(1.0)

    def test_top_prefixes(self):
        model = make_model(count=30)
        top = model.top_prefixes(5)
        assert len(top) == 5
        weights = [model.weight_of(p) for p in top]
        assert weights == sorted(weights, reverse=True)

    def test_unknown_prefix_weight_rejected(self):
        model = make_model()
        with pytest.raises(TrafficError):
            model.weight_of(Prefix.parse("192.0.2.0/24"))


class TestDynamics:
    def test_deterministic_given_seed(self):
        a = make_model(seed=9)
        b = make_model(seed=9)
        for t in (0.0, 600.0, 3600.0):
            assert np.allclose(a.rate_array(t), b.rate_array(t))

    def test_volatility_moves_rates(self):
        model = make_model(volatility_sigma=0.3)
        first = model.rate_array(0.0).copy()
        later = model.rate_array(1800.0).copy()
        ratio = later.sum() / first.sum()
        per_prefix = later / np.maximum(first, 1e-9)
        # Total is fairly stable but individual prefixes move.
        assert np.std(per_prefix) > 0.01
        assert 0.4 < ratio < 2.5

    def test_clock_must_not_go_backward(self):
        model = make_model()
        model.rates(600.0)
        with pytest.raises(TrafficError):
            model.rates(0.0)

    def test_flash_event(self):
        prefixes = make_prefixes(20)
        target = prefixes[0]
        event = FlashEvent(
            prefixes=(target,), start=100.0, duration=200.0, multiplier=5.0
        )
        model = DemandModel(
            prefixes,
            DemandConfig(seed=4, volatility_sigma=0.0),
            flash_events=[event],
        )
        before = model.rates(0.0)[target]
        during = model.rates(150.0)[target]
        after = model.rates(400.0)[target]
        assert during.bits_per_second > before.bits_per_second * 4
        # After the event, back near the diurnal trend.
        assert after.bits_per_second < during.bits_per_second / 4


class TestFlowSynthesizer:
    def test_flows_preserve_bytes(self):
        synthesizer = FlowSynthesizer(mean_packet_bytes=1000, seed=1)
        prefix = Prefix.parse("11.0.0.0/24")
        flows = list(
            synthesizer.flows(
                iter([(prefix, gbps(1), "et0")]), interval_seconds=10.0
            )
        )
        assert len(flows) == 1
        flow = flows[0]
        assert flow.bytes_sent == pytest.approx(1e9 * 10 / 8)
        assert flow.packets == pytest.approx(flow.bytes_sent / 1000)
        assert flow.egress_interface == "et0"

    def test_destination_inside_prefix(self):
        synthesizer = FlowSynthesizer(seed=2)
        prefix = Prefix.parse("11.0.0.0/24")
        for _ in range(10):
            flows = list(
                synthesizer.flows(iter([(prefix, gbps(1), "et0")]), 1.0)
            )
            assert prefix.contains_address(
                flows[0].family, flows[0].dst_address
            )

    def test_zero_rate_skipped(self):
        from repro.netbase.units import Rate

        synthesizer = FlowSynthesizer(seed=3)
        prefix = Prefix.parse("11.0.0.0/24")
        flows = list(
            synthesizer.flows(iter([(prefix, Rate(0), "et0")]), 1.0)
        )
        assert flows == []

    def test_dscp_passthrough(self):
        synthesizer = FlowSynthesizer(seed=4)
        prefix = Prefix.parse("11.0.0.0/24")
        flows = list(
            synthesizer.flows(
                iter([(prefix, gbps(1), "et0")]), 1.0, dscp=12
            )
        )
        assert flows[0].dscp == 12
