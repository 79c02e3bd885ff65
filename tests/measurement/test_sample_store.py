"""The array-backed sample store against its slow definitions.

Every check here counts or compares values — none of them times
anything: the store equals a per-sample list reference after every
batch, the per-key bound holds for every cap, each key's stats are
computed once per append, the memoised path model equals a fresh one,
and ``sample_flows`` reproduces values recorded before the store and
model were rewritten.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ControllerConfig
from repro.core.pipeline import PopDeployment
from repro.core.steering import SteeringEngine
from repro.measurement.altpath import AltPathMonitor
from repro.measurement.passive import PassiveMonitor
from repro.measurement.pathmodel import PathModelConfig, PathPerformanceModel
from repro.netbase.addr import Prefix
from repro.netbase.errors import MeasurementError
from repro.netbase.units import gbps

from ..core.helpers import MiniPop, P_CONE, P_CONE2, P_IXP, default_config

PREFIX = Prefix.parse("11.0.7.0/24")


class ListStore:
    """The store's definition: one list per key, one sample at a time,
    the oldest ``max(1, cap // 2)`` recycled when a sample finds the
    key full."""

    def __init__(self, cap):
        self.cap = cap
        self.rtts, self.retx = [], []

    def record(self, rtts, retx):
        for rtt, flag in zip(rtts, retx):
            if len(self.rtts) >= self.cap:
                del self.rtts[: max(1, self.cap // 2)]
                del self.retx[: max(1, self.cap // 2)]
            self.rtts.append(float(rtt))
            self.retx.append(bool(flag))


def batch(rng, size):
    return rng.uniform(1.0, 200.0, size), rng.random(size) < 0.3


class TestParityWithListReference:
    @settings(max_examples=150, deadline=None)
    @given(
        cap=st.integers(2, 64),
        sizes=st.lists(st.integers(0, 150), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_equal_after_every_batch(self, cap, sizes, seed):
        rng = np.random.default_rng(seed)
        monitor = PassiveMonitor(max_samples_per_key=cap)
        reference = ListStore(cap)
        for size in sizes:
            rtts, retx = batch(rng, size)
            monitor.record(PREFIX, "s0", rtts, retx)
            reference.record(rtts, retx)
            stats = monitor.stats(PREFIX, "s0")
            if not reference.rtts:
                assert stats is None
                continue
            assert stats.samples == len(reference.rtts)
            assert stats.median_rtt_ms == float(np.median(reference.rtts))
            assert stats.retransmit_rate == float(np.mean(reference.retx))
            assert monitor.size() == (1, len(reference.rtts))

    def test_retained_samples_are_the_newest_in_order(self):
        monitor = PassiveMonitor(max_samples_per_key=10)
        reference = ListStore(10)
        rng = np.random.default_rng(5)
        for size in (4, 9, 1, 23, 10, 3):
            rtts, retx = batch(rng, size)
            monitor.record(PREFIX, "s0", rtts, retx)
            reference.record(rtts, retx)
            entry = monitor._index[PREFIX]["s0"]
            assert list(entry.rtts[: entry.count]) == reference.rtts
            assert list(entry.retx[: entry.count]) == reference.retx

    def test_mismatched_batch_rejected(self):
        monitor = PassiveMonitor()
        with pytest.raises(MeasurementError):
            monitor.record(PREFIX, "s0", np.ones(3), np.zeros(2, dtype=bool))


class TestPerKeyBound:
    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 10])
    def test_samples_never_exceed_cap(self, cap):
        """Batches below, at and above the cap, on one growing key."""
        monitor = PassiveMonitor(max_samples_per_key=cap)
        rng = np.random.default_rng(cap)
        sizes = [max(1, cap - 1), cap, cap + 1, 5 * cap + 3, 50, 1, 1]
        for size in sizes:
            monitor.record(PREFIX, "s0", *batch(rng, size))
            stats = monitor.stats(PREFIX, "s0")
            assert 1 <= stats.samples <= cap
            assert monitor.size() == (1, stats.samples)

    def test_cap_one_keeps_the_latest_sample(self):
        monitor = PassiveMonitor(max_samples_per_key=1)
        monitor.record(
            PREFIX, "s0", np.arange(1.0, 51.0), np.zeros(50, dtype=bool)
        )
        stats = monitor.stats(PREFIX, "s0")
        assert stats.samples == 1
        assert stats.median_rtt_ms == 50.0


class TestStatsCache:
    def test_record_after_stats_is_visible(self):
        monitor = PassiveMonitor()
        monitor.record(PREFIX, "s0", np.array([10.0]), np.array([False]))
        first = monitor.stats(PREFIX, "s0")
        assert monitor.stats(PREFIX, "s0") is first  # cached, not recomputed
        assert monitor.stats_computed == 1
        monitor.record(PREFIX, "s0", np.array([30.0]), np.array([True]))
        second = monitor.stats(PREFIX, "s0")
        assert (second.samples, second.median_rtt_ms) == (2, 20.0)
        assert second.retransmit_rate == 0.5
        assert monitor.stats_for_prefix(PREFIX) == {"s0": second}
        assert monitor.stats_computed == 2

    def test_one_cycle_computes_each_key_once(self):
        """A round, a steering cycle and the comparisons read every key
        — and between them compute each key's stats exactly once."""
        mini = MiniPop()
        altpath = AltPathMonitor(
            routes_of=mini.collector.routes_for,
            model=PathPerformanceModel(PathModelConfig(seed=2)),
            egress_interface_of=lambda r: (r.source.router, r.source.interface),
            seed=2,
        )
        engine = SteeringEngine(default_config(performance_aware=True))
        traffic = {p: gbps(1) for p in (P_CONE, P_CONE2, P_IXP)}
        monitor = altpath.monitor
        for cycle in range(3):
            before = monitor.stats_computed
            measured = altpath.measure_round(list(traffic))
            engine.run(
                30.0 * cycle, {}, {}, mini.inputs(traffic), altpath, mini.pop
            )
            assert altpath.comparisons()
            for prefix in monitor.prefixes():
                for name in monitor.paths_for(prefix):
                    assert monitor.stats(prefix, name) is not None
            keys, samples = monitor.size()
            assert measured == keys == 8  # 3 + 2 + 3 ranked paths
            assert samples == keys * altpath.flows_per_round * (cycle + 1)
            assert monitor.stats_computed - before == keys


class TestMemoisedModel:
    def test_equals_a_fresh_model_for_every_key(self):
        config = PathModelConfig(seed=9)
        memoised = PathPerformanceModel(config)
        keys = [
            (Prefix.parse(f"11.{i // 50}.{i % 50}.0/24"), f"session{i % 4}")
            for i in range(200)
        ]
        for _repeat in range(2):  # second pass answers from the memo
            for prefix, session in keys:
                fresh = PathPerformanceModel(config)
                assert memoised.base_rtt_ms(prefix) == fresh.base_rtt_ms(prefix)
                assert memoised.path_offset_ms(
                    prefix, session
                ) == fresh.path_offset_ms(prefix, session)
                for utilization in (0.0, 0.97, 1.4):
                    assert memoised.retransmit_rate(
                        prefix, session, utilization
                    ) == fresh.retransmit_rate(prefix, session, utilization)
                    assert memoised.path_rtt_ms(
                        prefix, session, utilization
                    ) == fresh.path_rtt_ms(prefix, session, utilization)

    def test_sample_flows_reproduces_recorded_values(self):
        """Values recorded from the per-flow-object implementation
        (seed-3 model, ``default_rng(11)``): same generator, same draw
        order, same floats."""
        model = PathPerformanceModel(PathModelConfig(seed=3))
        rng = np.random.default_rng(11)
        recorded = [
            (
                ("s0", 0.0, 4, False),
                [
                    28.08959218272437,
                    31.232009194317452,
                    30.896453000296315,
                    26.892276737415997,
                ],
                [False] * 4,
            ),
            (
                ("s1", 0.97, 4, False),
                [
                    41.23633006614738,
                    33.50795362537154,
                    44.03094658605101,
                    38.54607362803618,
                ],
                [False] * 4,
            ),
            (
                ("s0", 2.0, 8, True),
                [
                    54.72377738582906,
                    50.40724074065668,
                    50.60823578596483,
                    54.11942121487556,
                    47.784913309927155,
                    45.38522173467851,
                    52.875271331753574,
                    48.55474644459593,
                ],
                [True, False, True, False, False, True, True, True],
            ),
        ]
        for (session, utilization, count, preferred), rtts, retx in recorded:
            got_rtts, got_retx = model.sample_flows(
                PREFIX, session, utilization, count, rng, preferred=preferred
            )
            assert got_rtts.tolist() == rtts
            assert got_retx.tolist() == retx


def test_store_gauges_stay_within_the_declared_bound():
    """DESIGN.md §14: keys <= measured prefixes x measured ranks and
    samples <= keys x max_samples_per_key, on every tick of a run long
    enough to recycle (a 100-sample cap fills on the third round)."""
    measured_prefixes = 30
    deployment = PopDeployment.build(
        "pop-a",
        seed=7,
        controller_config=ControllerConfig(performance_aware=True),
        altpath_every_ticks=1,
        altpath_prefix_count=measured_prefixes,
    )
    altpath = deployment.altpath
    altpath.monitor = PassiveMonitor(max_samples_per_key=100)
    key_bound = measured_prefixes * altpath.policy.measured_ranks
    registry = deployment.telemetry.registry
    peak_samples = 0
    for tick in range(40):
        deployment.step(64_800.0 + 30.0 * (tick + 1))
        keys = registry.get("altpath_keys").value()
        samples = registry.get("altpath_samples_retained").value()
        assert (keys, samples) == altpath.monitor.size()
        assert 0 < keys <= key_bound
        assert samples <= keys * altpath.monitor.max_samples_per_key
        peak_samples = max(peak_samples, samples)
    assert peak_samples > keys * 50  # the cap was reached and recycled
