"""Tests for the conformance & health engine (SLO burn-rate alerting)."""

import pickle
from types import SimpleNamespace

import pytest

from repro.core.monitoring import CycleReport
from repro.netbase.units import gbps
from repro.obs.health import (
    ALERT_FIRING,
    ALERT_OK,
    ALERT_PENDING,
    ALERT_RESOLVED,
    HEALTH_SIGNALS,
    HealthEngine,
    HealthReport,
    SloError,
    SloRule,
    SloSpec,
)
from repro.obs.telemetry import Telemetry


def _report(time, skipped=False, withdrawn=0, runtime=0.01):
    return CycleReport(
        time=time,
        skipped=skipped,
        skip_reason="stale" if skipped else "",
        withdrawn=withdrawn,
        runtime_seconds=runtime,
    )


class TestSloRule:
    def test_valid_rule(self):
        rule = SloRule(name="r", signal="input_freshness")
        assert rule.objective == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"signal": "nope"},
            {"objective": 0.0},
            {"objective": 1.5},
            {"fast_window": 0},
            {"fast_window": 90, "slow_window": 60},
            {"fast_burn": 0.0},
            {"severity": "urgent"},
        ],
    )
    def test_invalid_rules_raise(self, kwargs):
        base = {"name": "r", "signal": "input_freshness"}
        base.update(kwargs)
        with pytest.raises(SloError):
            SloRule(**base)

    def test_dict_round_trip(self):
        rule = SloRule(
            name="r",
            signal="fail_static",
            objective=0.05,
            severity="ticket",
        )
        assert SloRule.from_dict(rule.to_dict()) == rule


class TestSloSpec:
    def test_default_covers_every_signal(self):
        spec = SloSpec.default()
        assert {rule.signal for rule in spec.rules} == set(HEALTH_SIGNALS)

    def test_duplicate_rule_names_raise(self):
        rule = SloRule(name="r", signal="input_freshness")
        with pytest.raises(SloError):
            SloSpec(rules=[rule, rule])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"load_drift_tolerance": 0.0},
            {"flap_window_cycles": 0},
            {"flap_threshold": 1},
            {"runtime_budget_fraction": 0.0},
            {"conformance_warmup_cycles": -1},
        ],
    )
    def test_invalid_tuning_raises(self, kwargs):
        with pytest.raises(SloError):
            SloSpec(**kwargs)

    def test_json_round_trip(self):
        spec = SloSpec.default()
        restored = SloSpec.from_json(spec.to_json())
        assert restored.to_dict() == spec.to_dict()

    def test_save_load(self, tmp_path):
        path = tmp_path / "slo.json"
        spec = SloSpec.default()
        spec.save(path)
        assert SloSpec.load(path).to_dict() == spec.to_dict()

    def test_bad_json_raises(self):
        with pytest.raises(SloError):
            SloSpec.from_json("not json")
        with pytest.raises(SloError):
            SloSpec.from_json("[1, 2]")
        with pytest.raises(SloError):
            SloSpec.from_dict({"rules": "nope"})


def _lifecycle_engine():
    """One rule tuned so a single error is pending, two are firing."""
    spec = SloSpec(
        rules=[
            SloRule(
                name="freshness",
                signal="input_freshness",
                objective=0.2,
                fast_window=2,
                slow_window=10,
                fast_burn=2.0,
                slow_burn=1.0,
            )
        ]
    )
    return HealthEngine(
        spec=spec, telemetry=Telemetry("t"), cycle_seconds=30.0
    )


class TestAlertLifecycle:
    def test_ok_pending_firing_resolved_ok(self):
        engine = _lifecycle_engine()
        t = 0.0
        for _ in range(9):
            engine.on_cycle(t, _report(t))
            t += 30.0
        alert = engine.alerts["freshness"]
        assert alert.state == ALERT_OK

        # One skipped cycle: fast window hot, slow still inside budget.
        engine.on_cycle(t, _report(t, skipped=True))
        t += 30.0
        assert alert.state == ALERT_PENDING

        # A second: the slow window burns too -> firing.
        engine.on_cycle(t, _report(t, skipped=True))
        t += 30.0
        assert alert.state == ALERT_FIRING
        assert alert.fired_count == 1

        # Two clean cycles cool the fast window -> resolved, then ok.
        engine.on_cycle(t, _report(t))
        t += 30.0
        engine.on_cycle(t, _report(t))
        t += 30.0
        assert alert.state == ALERT_RESOLVED
        engine.on_cycle(t, _report(t))
        assert alert.state == ALERT_OK

        states = [tr.to_state for tr in engine.transitions]
        assert states == [
            ALERT_PENDING,
            ALERT_FIRING,
            ALERT_RESOLVED,
            ALERT_OK,
        ]
        assert engine.ever_fired() == ["freshness"]

    def test_firing_persists_while_fast_window_hot(self):
        engine = _lifecycle_engine()
        t = 0.0
        for skipped in (True, True, True, False):
            engine.on_cycle(t, _report(t, skipped=skipped))
            t += 30.0
        # Fast window still hot (one of last two skipped): stays firing
        # even if the slow window dipped below its threshold.
        assert engine.alerts["freshness"].state == ALERT_FIRING

    def test_transitions_emit_metrics_and_audit(self):
        engine = _lifecycle_engine()
        telemetry = engine.telemetry
        t = 0.0
        for _ in range(9):
            engine.on_cycle(t, _report(t))
            t += 30.0
        for _ in range(2):
            engine.on_cycle(t, _report(t, skipped=True))
            t += 30.0
        registry = telemetry.registry
        transitions = registry.get("health_alert_transitions_total")
        assert transitions.value(rule="freshness", state="pending") == 1.0
        assert transitions.value(rule="freshness", state="firing") == 1.0
        assert registry.get("health_alerts_firing").value() == 1.0
        assert registry.get("health_cycles_total").value() == 11.0
        state_gauge = registry.get("health_alert_state")
        assert state_gauge.value(rule="freshness") == 2.0
        audit_notes = [event.note for event in telemetry.audit.alerts()]
        assert any("freshness -> firing" in note for note in audit_notes)

    def test_alert_state_survives_pickle(self):
        engine = _lifecycle_engine()
        t = 0.0
        for _ in range(9):
            engine.on_cycle(t, _report(t))
            t += 30.0
        engine.on_cycle(t, _report(t, skipped=True))
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.alerts["freshness"].state == ALERT_PENDING
        # The clone keeps observing.
        clone.on_cycle(t + 30.0, _report(t + 30.0, skipped=True))
        assert clone.alerts["freshness"].state == ALERT_FIRING


class _StubController:
    """Just the attributes the monitors read."""

    def __init__(self):
        self.last_drift = {}
        self.last_diff = None
        self.last_final_loads = {}
        self.assembler = SimpleNamespace(
            capacity_of=lambda key: gbps(10)
        )


def _diff(announce=(), withdraw=()):
    def wrap(prefixes):
        return tuple(SimpleNamespace(prefix=p) for p in prefixes)

    return SimpleNamespace(
        announce=wrap(announce), withdraw=wrap(withdraw), keep=()
    )


class TestMonitors:
    def test_flap_detection(self):
        spec = SloSpec(flap_window_cycles=10, flap_threshold=4)
        engine = HealthEngine(spec=spec, cycle_seconds=30.0)
        controller = _StubController()
        t = 0.0
        # The same prefix oscillates announce/withdraw each cycle.
        for i in range(4):
            controller.last_diff = (
                _diff(announce=["10.0.0.0/24"])
                if i % 2 == 0
                else _diff(withdraw=["10.0.0.0/24"])
            )
            engine.on_cycle(t, _report(t), controller=controller)
            t += 30.0
        series = engine.store.series("slo:override_flap")
        assert series.values()[-1] == 1.0
        assert series.values()[:-1] == [0.0, 0.0, 0.0]
        assert "10.0.0.0/24" in engine._context["override_flap"]

    def test_flap_window_expires(self):
        spec = SloSpec(flap_window_cycles=2, flap_threshold=3)
        engine = HealthEngine(spec=spec, cycle_seconds=30.0)
        controller = _StubController()
        t = 0.0
        # Two transitions, then quiet: never reaches 3 in any window.
        for diff in (
            _diff(announce=["10.0.0.0/24"]),
            _diff(withdraw=["10.0.0.0/24"]),
            _diff(),
            _diff(),
            _diff(announce=["10.0.0.0/24"]),
        ):
            controller.last_diff = diff
            engine.on_cycle(t, _report(t), controller=controller)
            t += 30.0
        assert max(engine.store.series("slo:override_flap").values()) == 0.0

    def test_flap_tracker_is_bounded(self):
        engine = HealthEngine(cycle_seconds=30.0, max_flap_prefixes=8)
        controller = _StubController()
        controller.last_diff = _diff(
            announce=[f"10.{i}.0.0/24" for i in range(64)]
        )
        engine.on_cycle(0.0, _report(0.0), controller=controller)
        assert len(engine._flap_events) == 8

    def test_load_conformance_compares_previous_projection(self):
        spec = SloSpec(
            load_drift_tolerance=0.25, conformance_warmup_cycles=0
        )
        engine = HealthEngine(spec=spec, cycle_seconds=30.0)
        controller = _StubController()
        key = ("r0", "if0")
        controller.last_final_loads = {key: gbps(9)}  # projects 0.9
        observed = {"value": 0.9}

        def util(key):
            return observed["value"]

        engine.on_cycle(
            0.0, _report(0.0), controller=controller, utilization_of=util
        )
        # First cycle has no previous projection: no error possible.
        series = engine.store.series("slo:load_conformance")
        assert series.values() == [0.0]

        # The next observation agrees with the projection: conformant.
        engine.on_cycle(
            30.0, _report(30.0), controller=controller, utilization_of=util
        )
        assert series.values() == [0.0, 0.0]

        # Dataplane now measures 0.2 against the projected 0.9.
        observed["value"] = 0.2
        engine.on_cycle(
            60.0, _report(60.0), controller=controller, utilization_of=util
        )
        assert series.values() == [0.0, 0.0, 1.0]
        assert "r0/if0" in engine._context["load_conformance"]

    def test_conformance_warmup_suppresses_early_cycles(self):
        spec = SloSpec(
            load_drift_tolerance=0.1, conformance_warmup_cycles=3
        )
        engine = HealthEngine(spec=spec, cycle_seconds=30.0)
        controller = _StubController()
        controller.last_final_loads = {("r0", "if0"): gbps(9)}
        def util(key):
            return 0.0  # always maximally nonconformant

        t = 0.0
        for _ in range(5):
            engine.on_cycle(
                t, _report(t), controller=controller, utilization_of=util
            )
            t += 30.0
        series = engine.store.series("slo:load_conformance")
        # Cycles 1-3 are warm-up (not recorded); 4 and 5 both breach.
        assert series.values() == [1.0, 1.0]

    def test_runtime_budget(self):
        spec = SloSpec(runtime_budget_fraction=0.5)
        engine = HealthEngine(spec=spec, cycle_seconds=30.0)
        engine.on_cycle(0.0, _report(0.0, runtime=1.0))
        engine.on_cycle(30.0, _report(30.0, runtime=16.0))
        assert engine.store.series("slo:cycle_runtime").values() == [
            0.0,
            1.0,
        ]

    def test_skipped_cycle_skips_active_only_signals(self):
        engine = HealthEngine(cycle_seconds=30.0)
        controller = _StubController()
        engine.on_cycle(
            0.0,
            _report(0.0, skipped=True),
            controller=controller,
            utilization_of=lambda k: 0.0,
        )
        assert engine.store.get("slo:cycle_runtime") is None
        assert engine.store.get("slo:load_conformance") is None
        assert engine.store.series("slo:input_freshness").values() == [1.0]

    def test_collector_and_safety_signals(self):
        engine = HealthEngine(cycle_seconds=30.0)
        bmp = SimpleNamespace(resets=0, needs_resync=False)
        safety = SimpleNamespace(violations=[])
        engine.on_cycle(0.0, _report(0.0), bmp=bmp, safety=safety)
        assert engine.store.series("slo:collector_resync").values() == [0.0]
        assert engine.store.series("slo:safety_violation").values() == [0.0]

        bmp.resets = 1
        safety.violations.append(
            SimpleNamespace(invariant="live_alternate", subject="*")
        )
        engine.on_cycle(30.0, _report(30.0), bmp=bmp, safety=safety)
        assert engine.store.series("slo:collector_resync").values()[-1] == 1.0
        assert engine.store.series("slo:safety_violation").values()[-1] == 1.0

        # No new resets/violations: both signals recover.
        engine.on_cycle(60.0, _report(60.0), bmp=bmp, safety=safety)
        assert engine.store.series("slo:collector_resync").values()[-1] == 0.0
        assert engine.store.series("slo:safety_violation").values()[-1] == 0.0

    def test_projection_drift_signal(self):
        engine = HealthEngine(cycle_seconds=30.0)
        controller = _StubController()
        controller.last_drift = {("r0", "if0"): 0.5}
        engine.on_cycle(0.0, _report(0.0), controller=controller)
        assert engine.store.series("slo:projection_drift").values() == [1.0]


class TestHealthReport:
    def test_report_round_trips(self):
        engine = _lifecycle_engine()
        t = 0.0
        for skipped in (False, True, True, False):
            engine.on_cycle(t, _report(t, skipped=skipped))
            t += 30.0
        report = engine.report()
        restored = HealthReport.from_json(report.to_json())
        assert restored == report
        assert restored.firing == report.firing

    def test_firing_and_render(self):
        engine = _lifecycle_engine()
        engine.on_cycle(0.0, _report(0.0, skipped=True))
        engine.on_cycle(30.0, _report(30.0, skipped=True))
        report = engine.report()
        assert [a["rule"] for a in report.firing] == ["freshness"]
        assert not report.ok
        text = report.render()
        assert "1 FIRING" in text
        assert "freshness" in text
        assert "->" in text  # the transition timeline

    def test_healthy_render(self):
        engine = _lifecycle_engine()
        engine.on_cycle(0.0, _report(0.0))
        report = engine.report()
        assert report.ok
        assert "healthy" in report.render()

    def test_registry_sampling_feeds_store(self):
        telemetry = Telemetry("t")
        telemetry.registry.counter("ticks_total").inc()
        engine = HealthEngine(telemetry=telemetry, cycle_seconds=30.0)
        engine.on_cycle(0.0, _report(0.0))
        assert engine.store.get("ticks_total") is not None


class TestPureObserver:
    """Health on vs off is byte-identical steering: a pure observer."""

    def test_steering_identical_with_health_enabled(self):
        from repro.core.pipeline import PopDeployment

        # The study PoP, not chaos-mini: the cost gate below is a ratio
        # against real cycle work, and a 3 ms mini cycle is not that.
        runs = {}
        for health_checks in (False, True):
            deployment = PopDeployment.build(
                "pop-a",
                seed=7,
                safety_checks=True,
                health_checks=health_checks,
            )
            start = deployment.demand.config.peak_time
            for index in range(20):
                deployment.step(
                    start + index * deployment.tick_seconds
                )
            runs[health_checks] = deployment

        off, on = runs[False], runs[True]
        assert on.record.ticks == off.record.ticks
        assert (
            on.controller.overrides.active_targets()
            == off.controller.overrides.active_targets()
        )
        assert on.health is not None and off.health is None
        assert on.health.cycles == 20
        # Observing costs at most 5% of the cycles it observes (both
        # self-timed in this process; measured ~1%).
        cycle_seconds = sum(
            report.runtime_seconds for report in on.record.cycle_reports
        )
        assert on.health.overhead_seconds <= 0.05 * cycle_seconds


class TestExampleSpec:
    def test_shipped_example_is_the_default_spec(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[2]
            / "examples"
            / "plans"
            / "slo_default.json"
        )
        assert SloSpec.load(path).to_dict() == SloSpec.default().to_dict()
