"""Chaos in a fleet: faults stay local to the PoP they are planned for.

The faulted fleet is the session-scoped ``shared_fleet`` (faults at
``pop-00``, safety checks on); only the clean reference is built here.
"""

import pytest

from tests.fleet_support import FLEET_SECONDS, build_fleet, start_of


@pytest.fixture(scope="module")
def clean_fleet(shared_fleet):
    """The same workload without faults; only ``pop-01`` is stepped,
    since that is the PoP the isolation test compares."""
    fleet = build_fleet(faulted=False)
    fleet.deployments["pop-01"].run(start_of(shared_fleet), FLEET_SECONDS)
    return fleet


class TestFaultIsolation:
    def test_only_named_pop_gets_an_injector(self, shared_fleet):
        assert shared_fleet.deployments["pop-00"].faults is not None
        assert shared_fleet.deployments["pop-01"].faults is None

    def test_faults_were_applied(self, shared_fleet):
        faults = shared_fleet.deployments["pop-00"].faults
        kinds = {action.kind for action in faults.log}
        assert kinds == {"link_flap", "bmp_flap"}
        assert faults.dropped_bmp_bytes > 0
        assert faults.finished(
            shared_fleet.deployments["pop-00"].current_time
        )

    def test_unfaulted_pop_is_undisturbed(
        self, shared_fleet, clean_fleet
    ):
        # Controllers share nothing: chaos at pop-00 must leave
        # pop-01's run bit-for-bit identical to a fault-free fleet.
        assert (
            shared_fleet.deployments["pop-01"].record.ticks
            == clean_fleet.deployments["pop-01"].record.ticks
        )

    def test_safety_checked_fleetwide_and_clean(self, shared_fleet):
        violations = {
            name: list(deployment.safety.violations)
            for name, deployment in shared_fleet.deployments.items()
        }
        assert violations == {"pop-00": [], "pop-01": []}
