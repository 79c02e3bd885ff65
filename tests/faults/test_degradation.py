"""Graceful degradation: staleness, fail-static, bounded resubscription."""

from repro.core.config import ControllerConfig
from repro.core.pipeline import CollectorResubscriber
from repro.faults import FaultPlan
from repro.obs.telemetry import Telemetry

from .helpers import run_chaos


class TestFailStatic:
    def test_long_bmp_outage_withdraws_everything(self):
        # Flap starts at t=300 (after overrides are installed) and lasts
        # long enough that inputs cross max_input_age and the fail-static
        # bound: the controller must return the PoP to vanilla BGP.
        plan = FaultPlan(seed=0).bmp_flap(300.0, 600.0)
        deployment = run_chaos(plan=plan, seed=0, ticks=44)
        ticks = deployment.record.ticks
        start = ticks[0].time
        assert any(t.active_overrides > 0 for t in ticks[:10])
        # Late in the blind window, zero overrides remain.
        blind = [
            t for t in ticks if 600.0 <= t.time - start < 900.0
        ]
        assert blind
        assert all(t.active_overrides == 0 for t in blind)
        # The withdrawal happened through the fail-static path.
        skipped = [
            r for r in deployment.record.cycle_reports if r.skipped
        ]
        assert skipped
        assert sum(r.withdrawn for r in skipped) > 0
        fail_static = deployment.telemetry.registry.counter(
            "controller_fail_static_total"
        )
        assert fail_static.value() >= 1
        # After the flap ends the resubscriber repairs the feed and
        # normal cycles resume.
        assert deployment.bmp.needs_resync is False
        assert deployment.controller.stale_cycles == 0
        assert not deployment.record.cycle_reports[-1].skipped
        assert deployment.safety.violations == []


class TestStaleClock:
    def test_skewed_snapshots_skip_cycles_then_recover(self):
        plan = FaultPlan(seed=0).stale_clock(
            300.0, 300.0, skew_seconds=150.0
        )
        deployment = run_chaos(plan=plan, seed=0, ticks=30)
        skipped = [
            r for r in deployment.record.cycle_reports if r.skipped
        ]
        assert skipped
        # Penalty is rolled back when the event ends.
        assert deployment.assembler.input_age_penalty == 0.0
        assert not deployment.record.cycle_reports[-1].skipped
        assert deployment.safety.violations == []

    def test_freshness_report_reflects_penalty(self):
        deployment = run_chaos(plan=None, seed=0, ticks=4, safety=False)
        now = deployment.current_time
        assert not deployment.assembler.freshness(now).stale
        deployment.assembler.input_age_penalty = 1e6
        report = deployment.assembler.freshness(now)
        assert report.stale
        assert report.routes_stale and report.traffic_stale
        assert "stale" in report.reason


class TestCollectorReset:
    def test_reset_is_repaired_within_a_tick(self):
        plan = FaultPlan(seed=0).bmp_reset(300.0)
        deployment = run_chaos(plan=plan, seed=0, ticks=20)
        assert deployment.bmp.resets == 1
        assert deployment.resubscriber.total_attempts >= 1
        # The full-RIB re-export restored the collector's view: routes
        # are back and the resync flag is cleared.
        assert deployment.bmp.needs_resync is False
        assert not deployment.record.cycle_reports[-1].skipped
        assert deployment.safety.violations == []


class _FakeBmp:
    def __init__(self, age=1e9):
        self.needs_resync = False
        self.current_age = age
        self.resyncs = 0

    def age(self):
        return self.current_age

    def mark_resynced(self):
        self.needs_resync = False
        self.resyncs += 1


class _FakeExporter:
    """Counts exports; optionally freshens the feed on export."""

    def __init__(self, bmp=None):
        self.bmp = bmp
        self.exports = 0

    def export_full_rib(self):
        self.exports += 1
        if self.bmp is not None:
            self.bmp.current_age = 0.0


def _resubscriber(bmp, exporter):
    config = ControllerConfig(
        max_input_age_seconds=60.0,
        resubscribe_initial_seconds=30.0,
        resubscribe_max_attempts=3,
    )
    telemetry = Telemetry(name="resub-test")
    return (
        CollectorResubscriber(bmp, [exporter], config, telemetry),
        telemetry,
    )


class TestResubscriberBackoff:
    def test_healthy_feed_is_a_noop(self):
        bmp = _FakeBmp(age=0.0)
        exporter = _FakeExporter()
        resub, _ = _resubscriber(bmp, exporter)
        assert resub.poll(0.0) is False
        assert resub.attempts == 0
        assert exporter.exports == 0

    def test_backoff_spacing_and_capped_retries(self):
        # A permanently dead feed: attempts space out exponentially
        # (30, 60, 120...) and, past the bound, keep retrying at the
        # capped interval instead of giving up.
        bmp = _FakeBmp(age=1e9)
        exporter = _FakeExporter()
        resub, telemetry = _resubscriber(bmp, exporter)
        exhausted = telemetry.registry.gauge("bmp_resubscribe_exhausted")

        assert resub.poll(0.0) is True  # attempt 1, next at 30
        assert resub.poll(10.0) is False
        assert resub.poll(30.0) is True  # attempt 2, next at 90
        assert resub.poll(60.0) is False
        assert resub.poll(90.0) is True  # attempt 3, next at 210
        assert exhausted.value() == 0.0
        assert resub.poll(210.0) is True  # attempt 4: over the bound
        assert exhausted.value() == 1.0
        # Interval stays capped at 120 s — recovery is never abandoned.
        assert resub.poll(300.0) is False
        assert resub.poll(330.0) is True  # attempt 5
        assert resub.total_attempts == 5
        assert exporter.exports == 5

    def test_new_resync_request_bypasses_backoff(self):
        # Backoff from a dead window must not delay the repair once the
        # transport is back (flap over -> needs_resync raised).
        bmp = _FakeBmp(age=1e9)
        exporter = _FakeExporter(bmp=None)
        resub, _ = _resubscriber(bmp, exporter)
        assert resub.poll(0.0) is True
        assert resub.poll(30.0) is True  # next attempt at 90
        exporter.bmp = bmp  # transport restored: exports now land
        bmp.needs_resync = True
        assert resub.poll(40.0) is True  # immediate, not at 90
        assert bmp.resyncs == 1
        assert bmp.needs_resync is False

    def test_recovery_resets_attempts_and_gauge(self):
        bmp = _FakeBmp(age=1e9)
        exporter = _FakeExporter()
        resub, telemetry = _resubscriber(bmp, exporter)
        exhausted = telemetry.registry.gauge("bmp_resubscribe_exhausted")
        for now in (0.0, 30.0, 90.0, 210.0):
            resub.poll(now)
        assert exhausted.value() == 1.0
        bmp.current_age = 0.0  # feed healthy again
        assert resub.poll(240.0) is False
        assert resub.attempts == 0
        assert exhausted.value() == 0.0
        # A later outage starts a fresh backoff schedule.
        bmp.current_age = 1e9
        assert resub.poll(250.0) is True
        assert resub.poll(260.0) is False
        assert resub.poll(280.0) is True
