"""The one fleet workload the fleet tests share.

Building a fleet dominates a fleet test's cost, so the suite builds one
session-scoped fleet (``shared_fleet`` in ``conftest.py``) and every
fleet test reads it.  It carries faults at ``pop-00``, safety checks
and health checks.
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
