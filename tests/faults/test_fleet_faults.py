"""Chaos in a fleet: faults stay local, parallel merges stay exact.

The faulted fleets are the session-scoped ``fleet_pair`` (faults at
``pop-00``, safety checks on); only the clean reference is built here.
"""

import pytest

from tests.fleet_support import FLEET_SECONDS, build_fleet


@pytest.fixture(scope="module")
def faulted_fleet(fleet_pair):
    return fleet_pair[0]


@pytest.fixture(scope="module")
def parallel_faulted_fleet(fleet_pair):
    return fleet_pair[1]


@pytest.fixture(scope="module")
def clean_fleet(fleet_pair):
    """The same workload without faults; only ``pop-01`` is stepped,
    since that is the PoP the isolation test compares."""
    fleet = build_fleet(faulted=False)
    fleet.deployments["pop-01"].run(fleet_pair[2], FLEET_SECONDS)
    return fleet


class TestFaultIsolation:
    def test_only_named_pop_gets_an_injector(self, faulted_fleet):
        assert faulted_fleet.deployments["pop-00"].faults is not None
        assert faulted_fleet.deployments["pop-01"].faults is None

    def test_faults_were_applied(self, faulted_fleet):
        faults = faulted_fleet.deployments["pop-00"].faults
        kinds = {action.kind for action in faults.log}
        assert kinds == {"link_flap", "bmp_flap"}
        assert faults.dropped_bmp_bytes > 0
        assert faults.finished(
            faulted_fleet.deployments["pop-00"].current_time
        )

    def test_unfaulted_pop_is_undisturbed(
        self, faulted_fleet, clean_fleet
    ):
        # Controllers share nothing: chaos at pop-00 must leave
        # pop-01's run bit-for-bit identical to a fault-free fleet.
        assert (
            faulted_fleet.deployments["pop-01"].record.ticks
            == clean_fleet.deployments["pop-01"].record.ticks
        )

    def test_safety_checked_fleetwide_and_clean(self, faulted_fleet):
        violations = faulted_fleet.safety_violations()
        assert set(violations) == {"pop-00", "pop-01"}
        assert violations == {"pop-00": [], "pop-01": []}


class TestParallelMerge:
    def test_parallel_matches_serial(
        self, faulted_fleet, parallel_faulted_fleet
    ):
        for name, serial_pop in faulted_fleet.deployments.items():
            parallel_pop = parallel_faulted_fleet.deployments[name]
            assert parallel_pop.record.ticks == serial_pop.record.ticks

    def test_fault_log_survives_the_merge(
        self, faulted_fleet, parallel_faulted_fleet
    ):
        serial = faulted_fleet.deployments["pop-00"].faults
        parallel = parallel_faulted_fleet.deployments["pop-00"].faults
        assert parallel.log == serial.log

    def test_safety_violations_survive_the_merge(
        self, faulted_fleet, parallel_faulted_fleet
    ):
        assert (
            parallel_faulted_fleet.safety_violations()
            == faulted_fleet.safety_violations()
        )
