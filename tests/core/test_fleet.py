"""Tests for the fleet deployment (multiple independent PoPs)."""

import pytest

import repro.core.fleet as fleet_module
from repro.core.fleet import FleetDeployment


@pytest.fixture(scope="module")
def fleet():
    fleet = FleetDeployment.build(pop_count=2, seed=17, tick_seconds=60.0)
    # Run 10 minutes near the first PoP's peak.
    first = next(iter(fleet.deployments.values()))
    start = first.demand.config.peak_time
    fleet.run(start, 600.0)
    return fleet


class TestFleet:
    def test_independent_pops(self, fleet):
        names = list(fleet.deployments)
        assert len(names) == 2
        a, b = (fleet.deployments[n] for n in names)
        assert a.wired.pop.name != b.wired.pop.name
        # Shared Internet, separate controllers.
        assert a.wired.internet is b.wired.internet
        assert a.controller is not b.controller

    def test_all_pops_ticked(self, fleet):
        for deployment in fleet.deployments.values():
            assert len(deployment.record.ticks) == 10

    def test_aggregates(self, fleet):
        assert fleet.total_offered().bits_per_second > 0
        assert 0.0 <= fleet.fleet_detoured_fraction() < 1.0
        assert fleet.total_active_overrides() >= 0

    def test_summary_table(self, fleet):
        table = fleet.summary_table()
        assert len(table.rows) == 2
        rendered = table.render()
        for name in fleet.deployments:
            assert name in rendered

    def test_offset_peaks(self, fleet):
        peaks = [
            deployment.demand.config.peak_time
            for deployment in fleet.deployments.values()
        ]
        assert len(set(peaks)) == len(peaks)


@pytest.fixture(scope="module")
def parallel_fleet():
    parallel = FleetDeployment.build(
        pop_count=2, seed=17, tick_seconds=60.0
    )
    first = next(iter(parallel.deployments.values()))
    start = first.demand.config.peak_time
    parallel.run(start, 600.0, parallel=2)
    return parallel


def _deterministic_view(registry):
    """Counters and gauges in full; histograms by count only.

    Wall-time histograms (tick/cycle latency) measure the host, not the
    simulation, so their sums and bucket spreads legitimately differ
    between serial and parallel executions of the same workload.
    """
    snapshot = registry.snapshot()
    return {
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histogram_counts": {
            name: {
                labels: series["count"]
                for labels, series in by_label.items()
            }
            for name, by_label in snapshot["histograms"].items()
        },
    }


class TestParallelFleet:
    def test_parallel_run_matches_serial_exactly(self, fleet, parallel_fleet):
        parallel = parallel_fleet
        assert (
            parallel.summary_table().render()
            == fleet.summary_table().render()
        )
        assert (
            parallel.total_offered().bits_per_second
            == fleet.total_offered().bits_per_second
        )
        assert (
            parallel.fleet_detoured_fraction()
            == fleet.fleet_detoured_fraction()
        )
        assert (
            parallel.total_active_overrides()
            == fleet.total_active_overrides()
        )
        for name, serial_pop in fleet.deployments.items():
            parallel_pop = parallel.deployments[name]
            assert (
                parallel_pop.record.ticks == serial_pop.record.ticks
            )
            assert len(parallel_pop.record.cycle_reports) == len(
                serial_pop.record.cycle_reports
            )
            assert parallel_pop.current_time == serial_pop.current_time

    def test_parallel_telemetry_matches_serial(
        self, fleet, parallel_fleet
    ):
        for name, serial_pop in fleet.deployments.items():
            parallel_pop = parallel_fleet.deployments[name]
            # Workers hand their telemetry back through the merge, and
            # the record keeps pointing at the same object.
            assert (
                parallel_pop.record.telemetry
                is parallel_pop.telemetry
            )
            assert _deterministic_view(
                parallel_pop.telemetry.registry
            ) == _deterministic_view(serial_pop.telemetry.registry)
            assert (
                parallel_pop.telemetry.tracer.counts()
                == serial_pop.telemetry.tracer.counts()
            )
            assert [
                event.to_dict()
                for event in parallel_pop.telemetry.audit.events()
            ] == [
                event.to_dict()
                for event in serial_pop.telemetry.audit.events()
            ]

    def test_merged_registry_matches_serial(
        self, fleet, parallel_fleet
    ):
        assert _deterministic_view(
            parallel_fleet.merged_registry()
        ) == _deterministic_view(fleet.merged_registry())
        # The merged view carries one pop label value per deployment.
        merged = fleet.merged_registry()
        ticks = merged.counter(
            "pipeline_ticks_total", labelnames=("pop",)
        )
        for name in fleet.deployments:
            assert ticks.value(pop=name) == 10.0


def _build_pair():
    """Two identically seeded 2-PoP fleets plus their shared start time."""
    serial = FleetDeployment.build(
        pop_count=2, seed=23, tick_seconds=60.0
    )
    pooled = FleetDeployment.build(
        pop_count=2, seed=23, tick_seconds=60.0
    )
    start = next(iter(serial.deployments.values())).demand.config.peak_time
    return serial, pooled, start


class TestWorkerPool:
    def test_multi_segment_pool_matches_serial(self):
        """Successive run() calls continue the simulation: workers keep
        their deployments' live state between commands."""
        serial, pooled, start = _build_pair()
        try:
            serial.run(start, 600.0)
            # Same 10 ticks, split across three pool commands with the
            # pickle-back deferred to one final collect().
            pooled.run(start, 240.0, parallel=2, sync=False)
            pooled.run(start + 240.0, 240.0, parallel=2, sync=False)
            pooled.run(start + 480.0, 120.0, parallel=2, sync=False)
            pooled.collect()
            assert (
                pooled.summary_table().render()
                == serial.summary_table().render()
            )
            for name, serial_pop in serial.deployments.items():
                pooled_pop = pooled.deployments[name]
                assert pooled_pop.record.ticks == serial_pop.record.ticks
                assert (
                    pooled_pop.current_time == serial_pop.current_time
                )
                assert _deterministic_view(
                    pooled_pop.telemetry.registry
                ) == _deterministic_view(serial_pop.telemetry.registry)
            assert _deterministic_view(
                pooled.merged_registry()
            ) == _deterministic_view(serial.merged_registry())
        finally:
            pooled.close_pool()

    def test_step_refused_while_pool_is_live(self):
        _serial, pooled, start = _build_pair()
        try:
            pooled.run(start, 120.0, parallel=2, sync=False)
            with pytest.raises(RuntimeError, match="worker pool"):
                pooled.step(start + 120.0)
        finally:
            pooled.close_pool()

    def test_close_pool_collects_and_restores_serial_stepping(self):
        serial, pooled, start = _build_pair()
        serial.run(start, 180.0)
        pooled.run(start, 120.0, parallel=2, sync=False)
        pooled.close_pool()
        assert pooled._pool is None
        # close_pool() collected the workers' final state...
        first = next(iter(pooled.deployments.values()))
        assert len(first.record.ticks) == 2
        # ...but live routing state stays in the dead workers, so the
        # fleet builds a fresh pool on the next parallel run rather than
        # continuing serially from stale parent state.
        pooled.run(start + 120.0, 60.0, parallel=2)
        pooled.close_pool()

    def test_fork_unavailable_falls_back_loudly(self, monkeypatch):
        serial, degraded, start = _build_pair()
        serial.run(start, 120.0)

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(
            fleet_module.multiprocessing, "get_context", no_fork
        )
        degraded.run(start, 120.0, parallel=2)
        fallback = degraded.telemetry.registry.counter(
            "fleet_parallel_fallback_total"
        )
        assert fallback.value() == 1.0
        # The degraded run is still the serial run, bit for bit.
        for name, serial_pop in serial.deployments.items():
            assert (
                degraded.deployments[name].record.ticks
                == serial_pop.record.ticks
            )
