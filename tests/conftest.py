"""Suite-wide fixtures."""

import pytest

from tests.fleet_support import FLEET_SECONDS, build_fleet, start_of


@pytest.fixture(scope="session")
def shared_fleet():
    """The shared fleet workload, stepped tick by tick like ``repro top``."""
    fleet = build_fleet()
    start = start_of(fleet)
    now = start
    while now < start + FLEET_SECONDS:
        fleet.step(now)
        now += fleet.tick_seconds
    return fleet
