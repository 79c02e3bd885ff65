"""Tests for the closed-loop steering engine (GREEN/YELLOW/RED)."""

import pickle

import pytest

from repro.core import steering
from repro.core.allocator import Detour
from repro.core.controller import EdgeFabricController
from repro.core.steering import (
    TIER_GREEN,
    TIER_RED,
    TIER_YELLOW,
    PathHealth,
    SignalVote,
    SteeringEngine,
)
from repro.measurement.altpath import AltPathMonitor
from repro.measurement.pathmodel import PathModelConfig, PathPerformanceModel
from repro.netbase.units import Rate, gbps
from repro.obs.telemetry import Telemetry

from .helpers import MiniPop, P_CONE, P_CONE2, default_config
from .test_controller import Harness


class ForcedModel(PathPerformanceModel):
    """Path model whose offsets we control per session suffix."""

    def __init__(self, offsets):
        super().__init__(PathModelConfig(seed=0))
        self._offsets = offsets

    def path_offset_ms(self, prefix, session_name):
        for needle, offset in self._offsets.items():
            if needle in session_name:
                return offset
        return 0.0


@pytest.fixture()
def mini():
    return MiniPop()


@pytest.fixture(autouse=True)
def crisp_ewma(monkeypatch):
    """No smoothing: the tests here read single-cycle signals."""
    monkeypatch.setattr(steering, "EWMA_ALPHA", 1.0)


def build_engine(mini, offsets, telemetry=None, **config_overrides):
    """A steering engine plus its alt-path monitor over the mini-PoP."""
    config = default_config(performance_aware=True, **config_overrides)
    model = ForcedModel(offsets)
    monitor = AltPathMonitor(
        routes_of=lambda p: [
            r for r in mini.collector.routes_for(p) if not r.is_injected
        ],
        model=model,
        egress_interface_of=lambda r: (r.source.router, r.source.interface),
        flows_per_round=30,
        seed=3,
    )
    engine = SteeringEngine(config, telemetry=telemetry)
    return engine, monitor, model


def run_cycle(
    engine,
    mini,
    monitor,
    now,
    traffic,
    detours=None,
    loads=None,
    utilization_of=None,
):
    monitor.measure_round(list(traffic))
    detours = {} if detours is None else detours
    loads = {} if loads is None else loads
    added = engine.run(
        now,
        detours,
        loads,
        mini.inputs(traffic),
        monitor,
        mini.pop,
        utilization_of=utilization_of,
    )
    return added, detours, loads


def votes(bad_count, total=3):
    """Manufactured vote tuples for direct state-machine tests."""
    return tuple(
        SignalVote(
            signal=f"s{index}", value=1.0, threshold=0.5, bad=index < bad_count
        )
        for index in range(total)
    )


class TestVotingAndTiers:
    def test_trips_red_after_consecutive_bad(self, mini):
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=1,
            steering_trip_cycles=2,
            steering_warn_cycles=1,
        )
        traffic = {P_CONE: gbps(2)}
        run_cycle(engine, mini, monitor, 0.0, traffic)
        state = engine.state_of(P_CONE, mini.private.name)
        assert state.tier == TIER_YELLOW  # first bad cycle: warn only

        added, detours, _ = run_cycle(engine, mini, monitor, 30.0, traffic)
        assert state.tier == TIER_RED
        assert len(added) == 1
        assert added[0].prefix == P_CONE
        assert "AS65003" in added[0].target.source.name
        assert detours[P_CONE] is added[0]

    def test_single_bad_signal_yields_yellow_never_red(self, mini):
        # Only the RTT signal is degraded; with votes_to_trip=2 the key
        # must sit in YELLOW (early warning, no action) indefinitely.
        engine, monitor, _ = build_engine(
            mini, {"AS65003": -40.0}, steering_votes_to_trip=2
        )
        assert engine.config.steering_warn_cycles == 2  # default
        traffic = {P_CONE: gbps(2)}
        for cycle in range(8):
            added, _, _ = run_cycle(
                engine, mini, monitor, cycle * 30.0, traffic
            )
            assert added == []
        assert engine.state_of(P_CONE, mini.private.name).tier == TIER_YELLOW

    def test_queue_pressure_joins_the_vote(self, mini):
        # RTT degradation alone is YELLOW; add queue pressure on the
        # preferred egress and two signals agree: the key trips RED.
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=2,
            steering_trip_cycles=2,
        )
        traffic = {P_CONE: gbps(2)}

        def hot(key):
            return 0.97 if key == ("mini-pr0", "pni0") else 0.1

        for cycle in range(2):
            run_cycle(
                engine, mini, monitor, cycle * 30.0, traffic,
                utilization_of=hot,
            )
        state = engine.state_of(P_CONE, mini.private.name)
        assert state.tier == TIER_RED
        assert [v.signal for v in state.last_votes] == [
            "rtt", "retransmit", "queue",
        ]
        assert [v.bad for v in state.last_votes] == [True, False, True]

    def test_queue_signal_abstains_without_utilization_view(self, mini):
        engine, monitor, _ = build_engine(mini, {"AS65003": -40.0})
        run_cycle(engine, mini, monitor, 0.0, {P_CONE: gbps(2)})
        state = engine.state_of(P_CONE, mini.private.name)
        assert [v.signal for v in state.last_votes] == ["rtt", "retransmit"]

    def test_healthy_path_stays_green(self, mini):
        # No gap at all, and a 5 ms gap under the 20 ms trip line.
        for offsets in ({}, {"AS65003": -5.0}):
            engine, monitor, _ = build_engine(
                mini, offsets, steering_votes_to_trip=1
            )
            for cycle in range(5):
                added, _, _ = run_cycle(
                    engine, mini, monitor, cycle * 30.0, {P_CONE: gbps(2)}
                )
                assert added == []
            state = engine.state_of(P_CONE, mini.private.name)
            assert state.tier == TIER_GREEN


class TestHysteresis:
    """Direct state-machine tests with manufactured votes."""

    def _engine(self, **overrides):
        base = dict(
            performance_aware=True,
            steering_trip_cycles=2,
            steering_recover_cycles=4,
            steering_yellow_recover_cycles=2,
            steering_votes_to_trip=2,
            steering_warn_cycles=1,
        )
        base.update(overrides)
        return SteeringEngine(default_config(**base))

    def _step(self, engine, state, assessment_votes, now=0.0):
        state.last_votes = assessment_votes
        return engine._advance(now, state, assessment_votes)

    def test_red_requires_full_recovery_dwell(self):
        engine = self._engine()
        state = PathHealth(prefix="p", path="s", tier=TIER_RED)
        for _ in range(3):  # one short of recover_cycles=4
            self._step(engine, state, votes(0))
            assert state.tier == TIER_RED
        self._step(engine, state, votes(0))
        assert state.tier == TIER_GREEN

    def test_warn_cycle_resets_the_recovery_streak(self):
        engine = self._engine()
        state = PathHealth(prefix="p", path="s", tier=TIER_RED)
        for _ in range(3):
            self._step(engine, state, votes(0))
        self._step(engine, state, votes(1))  # warn: streak broken
        assert state.tier == TIER_RED
        for _ in range(3):
            self._step(engine, state, votes(0))
            assert state.tier == TIER_RED
        self._step(engine, state, votes(0))
        assert state.tier == TIER_GREEN

    def test_single_cycle_spike_moves_nothing(self):
        # With the default warn dampening (2 cycles), an isolated warn
        # or bad cycle leaves GREEN untouched; two in a row drop to
        # YELLOW.
        engine = self._engine(steering_warn_cycles=2)
        state = PathHealth(prefix="p", path="s", tier=TIER_GREEN)
        self._step(engine, state, votes(1))
        assert state.tier == TIER_GREEN
        self._step(engine, state, votes(0))
        self._step(engine, state, votes(1))
        assert state.tier == TIER_GREEN  # spikes separated by good
        self._step(engine, state, votes(1))
        assert state.tier == TIER_YELLOW

    def test_yellow_recovers_faster_than_red(self):
        engine = self._engine()
        state = PathHealth(prefix="p", path="s", tier=TIER_GREEN)
        self._step(engine, state, votes(1))
        assert state.tier == TIER_YELLOW
        self._step(engine, state, votes(0))
        assert state.tier == TIER_YELLOW  # yellow_recover_cycles=2
        self._step(engine, state, votes(0))
        assert state.tier == TIER_GREEN

    def test_recovery_thresholds_shrink_while_red(self, mini):
        # Trip on a 40 ms gap, then improve to ~14 ms: under the 20 ms
        # trip line, but not under the halved 10 ms recovery line — the
        # key must hold RED rather than hover at the boundary.
        engine, monitor, model = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=1,
            steering_trip_cycles=2,
            steering_recover_cycles=2,
        )
        traffic = {P_CONE: gbps(2)}
        for cycle in range(2):
            run_cycle(engine, mini, monitor, cycle * 30.0, traffic)
        state = engine.state_of(P_CONE, mini.private.name)
        assert state.tier == TIER_RED

        model._offsets["AS65003"] = -14.0
        monitor.monitor.clear()  # stats reflect the new path reality
        for cycle in range(2, 8):
            run_cycle(engine, mini, monitor, cycle * 30.0, traffic)
        assert state.tier == TIER_RED

        model._offsets["AS65003"] = 0.0
        monitor.monitor.clear()
        for cycle in range(8, 11):
            run_cycle(engine, mini, monitor, cycle * 30.0, traffic)
        assert engine.state_of(P_CONE, mini.private.name).tier == TIER_GREEN


class TestSteeringAction:
    def build_red(self, mini):
        engine, monitor, model = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
        )
        return engine, monitor, model

    def test_capacity_guard_blocks_steering(self, mini):
        engine, monitor, _ = self.build_red(mini)
        loads = {("mini-pr0", "ixp0"): gbps(18.5)}
        added, detours, _ = run_cycle(
            engine, mini, monitor, 0.0, {P_CONE: gbps(2)}, loads=loads
        )
        assert engine.state_of(P_CONE, mini.private.name).tier == TIER_RED
        assert added == [] and detours == {}

    def test_capacity_detours_take_precedence(self, mini):
        engine, monitor, _ = self.build_red(mini)
        routes = mini.collector.routes_for(P_CONE)
        existing = Detour(
            prefix=P_CONE,
            rate=gbps(2),
            preferred=routes[0],
            target=routes[-1],
            from_interface=("mini-pr0", "pni0"),
            to_interface=("mini-pr0", "tr0"),
        )
        detours = {P_CONE: existing}
        added, detours, _ = run_cycle(
            engine, mini, monitor, 0.0, {P_CONE: gbps(2)}, detours=detours
        )
        assert added == []
        assert detours[P_CONE] is existing

    def test_tiny_prefixes_not_steered(self, mini):
        engine, monitor, _ = self.build_red(mini)
        added, _, _ = run_cycle(
            engine, mini, monitor, 0.0, {P_CONE: Rate(100)}
        )
        assert added == []

    def test_per_cycle_cap(self, mini, monkeypatch):
        monkeypatch.setattr(steering, "PERF_MOVES_PER_CYCLE", 1)
        engine, monitor, _ = self.build_red(mini)
        added, _, _ = run_cycle(
            engine, mini, monitor, 0.0,
            {P_CONE: gbps(2), P_CONE2: gbps(2)},
        )
        assert len(added) == 1

    def test_loads_updated_in_place(self, mini):
        engine, monitor, _ = self.build_red(mini)
        loads = {("mini-pr0", "pni0"): gbps(5)}
        run_cycle(
            engine, mini, monitor, 0.0, {P_CONE: gbps(2)}, loads=loads
        )
        assert loads[("mini-pr0", "pni0")] == gbps(3)
        assert loads[("mini-pr0", "ixp0")] == gbps(2)


class TestObservability:
    def test_transitions_land_in_audit_and_explain(self, mini):
        telemetry = Telemetry()
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            telemetry=telemetry,
            steering_votes_to_trip=1,
            steering_trip_cycles=2,
            steering_warn_cycles=1,
        )
        for cycle in range(2):
            run_cycle(
                engine, mini, monitor, cycle * 30.0, {P_CONE: gbps(2)}
            )
        explanation = telemetry.explain(P_CONE)
        steering_events = [
            e for e in explanation.events if e.action == "steering"
        ]
        assert [e.note.split(" [")[0] for e in steering_events] == [
            "GREEN -> YELLOW",
            "YELLOW -> RED",
        ]
        # Every transition names the signals that voted.
        for event in steering_events:
            assert "rtt=" in event.note and "retransmit=" in event.note
        rendered = explanation.render()
        assert "steering" in rendered and "YELLOW -> RED" in rendered

    def test_metrics_exported(self, mini):
        telemetry = Telemetry()
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            telemetry=telemetry,
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
        )
        run_cycle(engine, mini, monitor, 0.0, {P_CONE: gbps(2)})
        snapshot = telemetry.registry.snapshot()
        tiers = snapshot["gauges"]["steering_tier"]
        assert tiers['tier="RED"'] == 1
        assert tiers['tier="GREEN"'] == 0
        transitions = snapshot["counters"]["steering_transitions_total"]
        assert (
            transitions['from_tier="GREEN",to_tier="RED"'] == 1
        )

    def test_flap_signal_and_rates(self, mini, monkeypatch):
        monkeypatch.setattr(steering, "FLAP_BUDGET", 1)
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
        )
        run_cycle(engine, mini, monitor, 0.0, {P_CONE: gbps(2)})
        assert engine.flap_signal(30.0) == 0.0  # 1 transition == budget
        key = (str(P_CONE), mini.private.name)
        assert engine.flap_rates()[key] == 100.0  # 1 transition / 1 cycle
        # Force a second transition timestamp into the window.
        engine._states[key].transition_times.append(15.0)
        assert engine.flap_signal(30.0) == 1.0

    def test_summary_is_picklable_and_complete(self, mini):
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
        )
        run_cycle(engine, mini, monitor, 0.0, {P_CONE: gbps(2)})
        summary = pickle.loads(pickle.dumps(engine.summary()))
        assert summary["cycles"] == 1
        assert summary["tier_counts"]["RED"] == 1
        assert summary["transitions"][0]["votes"]


class TestLifecycle:
    def test_engine_pickles_across_workers(self, mini):
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            telemetry=Telemetry(),
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
        )
        run_cycle(engine, mini, monitor, 0.0, {P_CONE: gbps(2)})
        clone = pickle.loads(pickle.dumps(engine))
        state = clone.state_of(P_CONE, mini.private.name)
        assert state.tier == TIER_RED
        # The clone keeps running: it is the fleet worker's copy.
        added, _, _ = run_cycle(clone, mini, monitor, 30.0, {P_CONE: gbps(2)})
        assert len(added) == 1

    def test_reset_forgets_all_state(self, mini):
        engine, monitor, _ = build_engine(
            mini,
            {"AS65003": -40.0},
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
        )
        run_cycle(engine, mini, monitor, 0.0, {P_CONE: gbps(2)})
        engine.reset()
        assert engine.states() == []
        assert engine.transitions == []
        assert engine.cycles == 0

    def test_stale_preferred_path_drops_old_key(self, mini):
        engine, monitor, _ = build_engine(mini, {})
        state = engine._state_for(str(P_CONE), "old-session")
        state.tier = TIER_RED
        fresh = engine._state_for(str(P_CONE), "new-session")
        assert fresh.tier == TIER_GREEN
        assert engine.state_of(P_CONE, "old-session") is None

    def test_prune_drops_unmeasured_keys(self, mini):
        engine, monitor, _ = build_engine(mini, {})
        run_cycle(
            engine, mini, monitor, 0.0,
            {P_CONE: gbps(2), P_CONE2: gbps(2)},
        )
        assert len(engine.states()) == 2
        monitor.monitor = type(monitor.monitor)()  # fresh, empty monitor
        run_cycle(engine, mini, monitor, 30.0, {P_CONE: gbps(2)})
        assert {s.prefix for s in engine.states()} == {str(P_CONE)}


class TestModeDispatch:
    """The controller arms the engine correctly."""

    def _controller(self, offsets=None, **overrides):
        harness = Harness()
        config = default_config(
            performance_aware=True,
            steering_votes_to_trip=1,
            steering_trip_cycles=1,
            **overrides,
        )
        mini = harness.mini
        monitor = AltPathMonitor(
            routes_of=lambda p: [
                r
                for r in mini.collector.routes_for(p)
                if not r.is_injected
            ],
            model=ForcedModel(offsets or {}),
            egress_interface_of=lambda r: (
                r.source.router,
                r.source.interface,
            ),
            flows_per_round=30,
            seed=3,
        )
        controller = EdgeFabricController(
            harness.assembler, harness.injector, config, altpath=monitor
        )
        return harness, controller, monitor

    def test_closed_loop_arms_engine(self):
        harness, controller, _ = self._controller()
        assert isinstance(controller.steering, SteeringEngine)
        # Armed exactly when performance_aware: the default harness
        # controller has no engine.
        assert harness.controller.steering is None

    def test_closed_loop_steers_through_full_cycle(self):
        harness, controller, monitor = self._controller(
            offsets={"AS65003": -40.0}
        )
        harness.feed_traffic({P_CONE: gbps(2)}, now=10.0)
        monitor.measure_round([P_CONE])
        controller.run_cycle(10.0)
        targets = controller.overrides.active_targets()
        assert str(P_CONE) in {str(p) for p in targets}
        state = controller.steering.state_of(
            P_CONE, harness.mini.private.name
        )
        assert state.tier == TIER_RED

    def test_crash_resets_engine(self):
        _, controller, _ = self._controller()
        controller.steering._state_for(str(P_CONE), "s")
        controller.crash(0.0)
        assert controller.steering.states() == []
