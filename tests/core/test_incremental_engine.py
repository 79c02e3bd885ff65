"""Tests for the incremental cycle engine: delta snapshots, the
incremental projection, and the controller's decision paths."""

import pytest

from repro.core.projection import IncrementalProjection, project
from repro.core.scale import ScaleConfig, ScaleScenario
from repro.netbase.units import gbps, mbps

from tests.bgp.helpers import withdraw

from .helpers import P_CONE, P_CONE2, P_IXP, P_TRANSIT_ONLY
from .test_controller import Harness


def small_config(**overrides):
    base = dict(
        prefix_count=400,
        cycles=6,
        seed=11,
        pni_count=2,
        tight_pni_count=1,
        tight_prefix_share=0.1,
    )
    base.update(overrides)
    return ScaleConfig(**base)


class TestIncrementalSnapshot:
    def test_first_snapshot_full_then_delta(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: mbps(100)}, now=0.0)
        first = harness.assembler.snapshot(0.0)
        assert first.dirty_prefixes is None
        assert harness.assembler.full_snapshots == 1
        harness.feed_traffic({P_CONE2: mbps(50)}, now=30.0)
        second = harness.assembler.snapshot(30.0)
        assert second.dirty_prefixes is not None
        assert P_CONE2 in second.dirty_prefixes
        assert P_CONE not in second.dirty_prefixes
        assert harness.assembler.incremental_snapshots == 1

    def test_delta_traffic_table_matches_full_rebuild(self):
        harness = Harness()
        harness.feed_traffic(
            {P_CONE: mbps(100), P_IXP: mbps(30)}, now=0.0
        )
        harness.assembler.snapshot(0.0)
        harness.feed_traffic(
            {P_CONE: mbps(40), P_TRANSIT_ONLY: mbps(20)}, now=30.0
        )
        snapshot = harness.assembler.snapshot(30.0)
        truth = harness.sflow.prefix_rates(30.0)
        assert snapshot.traffic == truth
        assert snapshot.total_traffic().bits_per_second == (
            pytest.approx(
                sum(r.bits_per_second for r in truth.values())
            )
        )

    def test_route_churn_lands_in_route_dirty(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: mbps(100)}, now=0.0)
        harness.assembler.snapshot(0.0)
        harness.mini.clock = 30.0
        withdraw(harness.mini.speaker, harness.mini.private.name, [P_CONE])
        snapshot = harness.assembler.snapshot(30.0)
        assert snapshot.dirty_prefixes is not None
        assert P_CONE in snapshot.dirty_prefixes

    def test_capacity_edit_forces_full(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: mbps(100)}, now=0.0)
        harness.assembler.snapshot(0.0)
        harness.assembler.set_capacity(("mini-pr0", "pni0"), gbps(5))
        harness.feed_traffic({P_CONE: mbps(100)}, now=30.0)
        assert harness.assembler.snapshot(30.0).dirty_prefixes is None

    def test_force_full_snapshot(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: mbps(100)}, now=0.0)
        harness.assembler.snapshot(0.0)
        harness.assembler.force_full_snapshot()
        harness.feed_traffic({P_CONE: mbps(100)}, now=30.0)
        assert harness.assembler.snapshot(30.0).dirty_prefixes is None

    def test_collector_reset_forces_full(self):
        harness = Harness()
        harness.feed_traffic({P_CONE: mbps(100)}, now=0.0)
        harness.assembler.snapshot(0.0)
        harness.mini.clock = 30.0
        harness.mini.collector.reset()  # new LocRib object
        harness.mini.exporter.export_full_rib()
        harness.mini.collector.mark_resynced()
        harness.feed_traffic({P_CONE: mbps(100)}, now=30.0)
        assert harness.assembler.snapshot(30.0).dirty_prefixes is None

    def test_engine_off_always_full(self):
        harness = Harness(incremental_engine=False)
        harness.feed_traffic({P_CONE: mbps(100)}, now=0.0)
        harness.assembler.snapshot(0.0)
        harness.feed_traffic({P_CONE: mbps(100)}, now=30.0)
        assert harness.assembler.snapshot(30.0).dirty_prefixes is None
        assert harness.assembler.incremental_snapshots == 0


class TestIncrementalProjection:
    def _snapshots(self, harness, feeds):
        """Yield successive snapshots after each feed dict."""
        now = 0.0
        for rates in feeds:
            harness.feed_traffic(rates, now=now)
            yield now, harness.assembler.snapshot(now)
            now += 30.0

    def test_rebuild_matches_classic_projection(self):
        harness = Harness()
        (_, inputs), = self._snapshots(
            harness, [{P_CONE: mbps(100), P_IXP: mbps(30)}]
        )
        classic = project(harness.mini.pop, inputs)
        incremental = IncrementalProjection(harness.mini.pop)
        incremental.rebuild(inputs)
        assert incremental.placements == classic.placements
        assert incremental.loads == classic.loads
        assert incremental.unplaceable == classic.unplaceable

    def test_apply_matches_classic_after_churn(self):
        harness = Harness()
        feeds = [
            {P_CONE: mbps(100), P_IXP: mbps(30)},
            {P_CONE: mbps(45), P_CONE2: mbps(10)},
            {P_IXP: mbps(5), P_TRANSIT_ONLY: mbps(60)},
        ]
        incremental = IncrementalProjection(harness.mini.pop)
        for _now, inputs in self._snapshots(harness, feeds):
            if inputs.dirty_prefixes is None:
                incremental.rebuild(inputs)
            else:
                incremental.apply(inputs)
            classic = project(harness.mini.pop, inputs)
            assert incremental.placements == classic.placements
            assert set(incremental.loads) == set(classic.loads)
            for key, rate in classic.loads.items():
                held = incremental.loads[key].bits_per_second
                assert held == pytest.approx(
                    rate.bits_per_second, rel=1e-12
                )
            assert incremental.unplaceable == classic.unplaceable

    def test_apply_requires_delta(self):
        harness = Harness()
        (_, inputs), = self._snapshots(
            harness, [{P_CONE: mbps(100)}]
        )
        incremental = IncrementalProjection(harness.mini.pop)
        with pytest.raises(ValueError):
            incremental.apply(inputs)

    def test_emptied_interface_key_disappears(self):
        harness = Harness()
        harness.feed_traffic(
            {P_CONE: mbps(100), P_IXP: mbps(30)}, now=0.0
        )
        first = harness.assembler.snapshot(0.0)
        incremental = IncrementalProjection(harness.mini.pop)
        incremental.rebuild(first)
        assert ("mini-pr0", "pni0") in incremental.loads
        # P_CONE's samples age out of the 60 s estimator window; the
        # P_IXP feed keeps the sflow input fresh so the snapshot is
        # still a delta.
        harness.feed_traffic({P_IXP: mbps(30)}, now=90.0)
        second = harness.assembler.snapshot(90.0)
        assert second.dirty_prefixes is not None
        incremental.apply(second)
        # No ulp residue: the drained interface's key is gone, exactly
        # as a fresh rebuild would have it.
        assert ("mini-pr0", "pni0") not in incremental.loads


class TestControllerPaths:
    def test_path_sequence_with_reconciliation(self):
        config = small_config(cycles=8)
        every = 3
        scenario = ScaleScenario(
            config,
            controller_config=config.controller_config(
                True, full_recompute_every=every
            ),
        )
        result = scenario.run()
        paths = [capture.decision_path for capture in result.cycles]
        assert paths[0] == "rebuild"
        # Cold build + the periodic reconciliations and nothing more: a
        # fallback that silently parks the engine on rebuilds fails here.
        assert paths.count("rebuild") == 1 + (config.cycles - 1) // every
        assert set(paths) == {"rebuild", "delta"}
        assert result.violations == 0

    def test_zero_churn_rebuilds_once_then_deltas(self):
        config = small_config(churn_fraction=0.0)
        result = ScaleScenario(config).run()
        paths = [capture.decision_path for capture in result.cycles]
        assert paths[0] == "rebuild"
        assert set(paths[1:]) == {"delta"}
        # Re-allocating unchanged inputs must decide the same.
        for capture in result.cycles[1:]:
            assert capture.overrides == result.cycles[0].overrides
        assert result.violations == 0

    def test_engine_off_runs_full_every_cycle(self):
        config = small_config(cycles=4)
        result = ScaleScenario(config, incremental=False).run()
        assert {c.decision_path for c in result.cycles} == {"full"}

    def test_crash_forces_rebuild_despite_delta_snapshot(self):
        # The assembler survives a controller crash in-process state
        # intact only in tests; the controller must not apply a delta
        # to a freshly-created empty projection.
        config = small_config(cycles=8)
        scenario = ScaleScenario(config)
        for index in range(3):
            scenario.run_one_cycle(index)
        scenario.injector.teardown_sessions()
        scenario.controller.crash(3 * config.cycle_seconds)
        scenario.injector.reestablish_sessions()
        capture = scenario.run_one_cycle(3)
        assert capture.decision_path == "rebuild"
        follow_up = scenario.run_one_cycle(4)
        assert follow_up.decision_path == "delta"
        assert not scenario.safety.violations

    def test_reconciliation_detects_injected_drift(self):
        config = small_config(cycles=8)
        scenario = ScaleScenario(
            config,
            controller_config=config.controller_config(
                True, full_recompute_every=2
            ),
        )
        scenario.run_one_cycle(0)
        scenario.run_one_cycle(1)
        # Corrupt one maintained load well past the tolerance; the next
        # reconciliation cycle must flag and repair it.
        incremental = scenario.controller._incremental
        key = next(iter(incremental.loads))
        incremental._loads_col[incremental._ifaces.id_of(key)] *= 1.5
        while scenario.controller._cycles_since_full < 1:
            scenario.run_one_cycle(2)
        capture = scenario.run_one_cycle(3)
        assert capture.decision_path == "rebuild"
        drifted = [
            violation
            for violation in scenario.safety.violations
            if violation.invariant == "projection_drift"
        ]
        assert drifted
        assert "/".join(key) in {v.subject for v in drifted}
        # The rebuild repaired the projection: later reconciliations
        # are clean again.
        before = len(scenario.safety.violations)
        scenario.run_one_cycle(4)
        scenario.run_one_cycle(5)
        assert len(scenario.safety.violations) == before
