"""The one fleet workload the fleet tests share, and its parity check.

Building a fleet dominates a fleet test's cost, so the suite builds one
session-scoped serial/pooled pair (``fleet_pair`` in ``conftest.py``)
and every fleet test reads it.  The pair carries everything the merge
must carry back: faults at ``pop-00``, safety checks and health checks.
"""

from repro.core.fleet import FleetDeployment
from repro.faults import FaultPlan

#: Ten 60 s ticks: long enough for the fault plan to start and finish.
FLEET_SECONDS = 600.0


def fault_plans():
    return {
        "pop-00": (
            FaultPlan(seed=5)
            .link_flap(60.0, 120.0, capacity_factor=0.5)
            .bmp_flap(120.0, 240.0)
        )
    }


def build_fleet(faulted: bool = True) -> FleetDeployment:
    """The shared 2-PoP workload, with or without :func:`fault_plans`."""
    return FleetDeployment.build(
        pop_count=2,
        seed=17,
        tick_seconds=60.0,
        fault_plans=fault_plans() if faulted else None,
        safety_checks=True,
        health_checks=True,
    )


def start_of(fleet: FleetDeployment) -> float:
    return next(iter(fleet.deployments.values())).demand.config.peak_time


#: Counters that accumulate wall time rather than simulation state.
WALL_CLOCK_COUNTERS = ("health_overhead_seconds_total",)


def deterministic_view(registry):
    """Counters and gauges in full; histograms by count only.

    Wall-time series (tick/cycle latency histograms, the health engine's
    overhead counter) measure the host, not the simulation, so they
    legitimately differ between serial and pooled runs of one workload.
    """
    snapshot = registry.snapshot()
    return {
        "counters": {
            name: series
            for name, series in snapshot["counters"].items()
            if name not in WALL_CLOCK_COUNTERS
        },
        "gauges": snapshot["gauges"],
        "histogram_counts": {
            name: {
                labels: series["count"]
                for labels, series in by_label.items()
            }
            for name, by_label in snapshot["histograms"].items()
        },
    }


def assert_fleets_match(candidate, serial) -> None:
    """Records, unresolved cycles, override sets and merged registry."""
    assert sorted(candidate.deployments) == sorted(serial.deployments)
    for name, serial_pop in serial.deployments.items():
        candidate_pop = candidate.deployments[name]
        assert candidate_pop.record.ticks == serial_pop.record.ticks
        assert candidate_pop.current_time == serial_pop.current_time
        assert (
            candidate_pop.controller.monitor.unresolved_overload_cycles()
            == serial_pop.controller.monitor.unresolved_overload_cycles()
        )
        candidate_overrides = candidate_pop.controller.overrides
        serial_overrides = serial_pop.controller.overrides
        assert (
            candidate_overrides.active_targets()
            == serial_overrides.active_targets()
        )
        assert candidate_overrides.completed == serial_overrides.completed
    assert deterministic_view(
        candidate.merged_registry()
    ) == deterministic_view(serial.merged_registry())
