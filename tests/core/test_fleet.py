"""Tests for the fleet deployment (multiple independent PoPs).

Every test reads the session-scoped ``fleet_pair``; only the fork
fallback builds a fleet of its own.
"""

import gc

import pytest

import repro.core.fleet as fleet_module
from repro.core.fleet import FleetDeployment
from tests.fleet_support import (
    FLEET_SECONDS,
    assert_fleets_match,
    build_fleet,
    deterministic_view,
)


def _wrap(fleet) -> FleetDeployment:
    """A second fleet over *fleet*'s deployments, for pool-lifecycle
    tests that fork workers but never step or collect them (so the
    shared deployments are left untouched)."""
    return FleetDeployment(
        deployments=fleet.deployments, tick_seconds=fleet.tick_seconds
    )


class TestFleet:
    def test_independent_pops(self, fleet_pair):
        fleet, _pooled, _start = fleet_pair
        names = list(fleet.deployments)
        assert len(names) == 2
        a, b = (fleet.deployments[n] for n in names)
        assert a.wired.pop.name != b.wired.pop.name
        # Shared Internet, separate controllers.
        assert a.wired.internet is b.wired.internet
        assert a.controller is not b.controller

    def test_all_pops_ticked(self, fleet_pair):
        fleet, _pooled, _start = fleet_pair
        for deployment in fleet.deployments.values():
            assert len(deployment.record.ticks) == FLEET_SECONDS / 60.0

    def test_aggregates(self, fleet_pair):
        fleet, _pooled, _start = fleet_pair
        assert fleet.total_offered().bits_per_second > 0

    def test_offset_peaks(self, fleet_pair):
        fleet, _pooled, _start = fleet_pair
        peaks = [
            deployment.demand.config.peak_time
            for deployment in fleet.deployments.values()
        ]
        assert len(set(peaks)) == len(peaks)


class TestParallelFleet:
    def test_parallel_run_matches_serial_exactly(self, fleet_pair):
        fleet, parallel, _start = fleet_pair
        assert_fleets_match(parallel, fleet)
        assert (
            parallel.total_offered().bits_per_second
            == fleet.total_offered().bits_per_second
        )
        assert {
            name: len(pop.controller.overrides)
            for name, pop in parallel.deployments.items()
        } == {
            name: len(pop.controller.overrides)
            for name, pop in fleet.deployments.items()
        }
        for name, serial_pop in fleet.deployments.items():
            parallel_pop = parallel.deployments[name]
            assert len(parallel_pop.record.cycle_reports) == len(
                serial_pop.record.cycle_reports
            )

    def test_parallel_telemetry_matches_serial(self, fleet_pair):
        fleet, parallel_fleet, _start = fleet_pair
        for name, serial_pop in fleet.deployments.items():
            parallel_pop = parallel_fleet.deployments[name]
            # Workers hand their telemetry back through the merge, and
            # the record keeps pointing at the same object.
            assert (
                parallel_pop.record.telemetry
                is parallel_pop.telemetry
            )
            assert deterministic_view(
                parallel_pop.telemetry.registry
            ) == deterministic_view(serial_pop.telemetry.registry)
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

    def test_merged_registry_matches_serial(self, fleet_pair):
        fleet, parallel_fleet, _start = fleet_pair
        assert deterministic_view(
            parallel_fleet.merged_registry()
        ) == deterministic_view(fleet.merged_registry())
        # The merged view carries one pop label value per deployment.
        merged = fleet.merged_registry()
        ticks = merged.counter(
            "pipeline_ticks_total", labelnames=("pop",)
        )
        for name in fleet.deployments:
            assert ticks.value(pop=name) == FLEET_SECONDS / 60.0

    def test_pop_labels_survive_the_merge(self, fleet_pair):
        _serial, pooled, _start = fleet_pair
        merged = pooled.merged_registry()
        counter = merged.counter(
            "pipeline_ticks_total", labelnames=("pop",)
        )
        for pop in pooled.deployments:
            assert counter.value(pop=pop) > 0
        # Every exported series carries the pop label.
        for line in merged.to_prometheus().splitlines():
            if line.startswith("#") or not line.strip():
                continue
            assert 'pop="' in line, line

    def test_health_state_survives_parallel_merge(self, fleet_pair):
        serial, pooled, _start = fleet_pair
        for name, serial_pop in serial.deployments.items():
            report = pooled.deployments[name].health.report(name=name)
            expected = serial_pop.health.report(name=name)
            assert report.name == name
            assert report.cycles == expected.cycles > 0
            assert report.alerts == expected.alerts
            assert report.transitions == expected.transitions
            assert report.ever_fired == expected.ever_fired
        assert pooled.firing_alerts() == serial.firing_alerts()
        # The unfaulted PoP has nothing firing.
        assert "pop-01" not in pooled.firing_alerts()
        # The health metrics land in the merged fleet registry too,
        # labelled per PoP.
        counter = pooled.merged_registry().counter(
            "health_cycles_total", labelnames=("pop",)
        )
        for name in pooled.deployments:
            assert counter.value(pop=name) > 0


class TestWorkerPool:
    def test_step_refused_while_pool_is_live(self, fleet_pair):
        serial, _pooled, start = fleet_pair
        wrapper = _wrap(serial)
        wrapper.run(start, 0.0, parallel=2, sync=False)
        with pytest.raises(RuntimeError, match="worker pool"):
            wrapper.step(start)

    def test_dropped_pool_reaps_its_workers(self, fleet_pair):
        serial, _pooled, start = fleet_pair
        wrapper = _wrap(serial)
        wrapper.run(start, 0.0, parallel=2, sync=False)
        pool = wrapper._pool
        processes = list(pool.processes)
        finalizer = pool._finalizer
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes)
        # No close_pool(): dropping the fleet must still stop the
        # workers, through the pool's weakref.finalize.
        del wrapper, pool
        gc.collect()
        assert not finalizer.alive
        for process in processes:
            process.join(timeout=5.0)
        assert not any(process.is_alive() for process in processes)

    def test_close_pool_is_final(self, fleet_pair):
        serial, pooled, start = fleet_pair
        # The fixture closed the pool after collecting the final state.
        assert pooled._pool is None
        end = start + FLEET_SECONDS
        # The workers held the live routing state; the parent holds only
        # what the merge carries, so stepping on would diverge from
        # serial.  Both paths refuse instead.
        for attempt in (
            lambda: pooled.run(end, 60.0, parallel=2),
            lambda: pooled.run(end, 60.0),
            lambda: pooled.step(end),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                attempt()
        # Every read-only accessor keeps working.
        pooled.collect()
        pooled.close_pool()
        assert pooled.total_offered() == serial.total_offered()
        assert pooled.safety_violations() == serial.safety_violations()
        assert pooled.firing_alerts() == serial.firing_alerts()
        assert_fleets_match(pooled, serial)

    def test_fork_unavailable_falls_back_loudly(
        self, fleet_pair, monkeypatch
    ):
        serial, _pooled, start = fleet_pair
        degraded = build_fleet()

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
        # The degraded run is the serial run, bit for bit.
        for name, serial_pop in serial.deployments.items():
            assert (
                degraded.deployments[name].record.ticks
                == serial_pop.record.ticks[:2]
            )
