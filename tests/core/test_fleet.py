"""Tests for the fleet deployment (multiple independent PoPs).

Every test reads the session-scoped ``shared_fleet``.
"""

from tests.fleet_support import FLEET_SECONDS

TICKS = FLEET_SECONDS / 60.0


class TestFleet:
    def test_independent_pops(self, shared_fleet):
        names = list(shared_fleet.deployments)
        assert len(names) == 2
        a, b = (shared_fleet.deployments[n] for n in names)
        assert a.wired.pop.name != b.wired.pop.name
        # Shared Internet, separate controllers.
        assert a.wired.internet is b.wired.internet
        assert a.controller is not b.controller

    def test_all_pops_ticked(self, shared_fleet):
        for deployment in shared_fleet.deployments.values():
            assert len(deployment.record.ticks) == TICKS
            ticks = deployment.telemetry.registry.counter(
                "pipeline_ticks_total"
            )
            assert ticks.value() == TICKS

    def test_aggregates(self, shared_fleet):
        offered = sum(
            deployment.record.ticks[-1].offered.bits_per_second
            for deployment in shared_fleet.deployments.values()
        )
        assert offered > 0

    def test_offset_peaks(self, shared_fleet):
        peaks = [
            deployment.demand.config.peak_time
            for deployment in shared_fleet.deployments.values()
        ]
        assert len(set(peaks)) == len(peaks)

    def test_no_unresolved_overload_at_any_pop(self, shared_fleet):
        # EXPERIMENTS.md F1: every PoP's controller resolves its own
        # overloads, with no cross-PoP coordination.
        for deployment in shared_fleet.deployments.values():
            monitor = deployment.controller.monitor
            assert monitor.unresolved_overload_cycles() == 0

    def test_health_checked_on_every_pop(self, shared_fleet):
        for name, deployment in shared_fleet.deployments.items():
            report = deployment.health.report(name=name)
            assert report.name == name
            assert report.cycles > 0
            cycles = deployment.telemetry.registry.counter(
                "health_cycles_total"
            )
            assert cycles.value() > 0
        # The unfaulted PoP has nothing firing.
        assert "pop-01" not in shared_fleet.firing_alerts()
