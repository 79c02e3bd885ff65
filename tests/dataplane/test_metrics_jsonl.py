"""Round-trip tests for MetricsStore JSONL persistence."""

from repro.dataplane.metrics import InterfaceSample, MetricsStore
from repro.netbase.units import Rate, gbps


def _sample(time, offered_g, capacity_g):
    offered = gbps(offered_g)
    capacity = gbps(capacity_g)
    transmitted = min(offered, capacity)
    dropped = Rate(
        max(
            0.0,
            offered.bits_per_second - capacity.bits_per_second,
        )
    )
    return InterfaceSample(
        time=time,
        offered=offered,
        capacity=capacity,
        transmitted=transmitted,
        dropped=dropped,
    )


def _populated():
    store = MetricsStore()
    store.record(
        ("pr0", "tr0"), _sample(0.0, 8.0, 10.0), tick_seconds=30.0
    )
    store.record(("pr0", "tr0"), _sample(30.0, 12.0, 10.0))
    store.record(("pr1", "pni3"), _sample(0.0, 4.0, 40.0))
    return store


class TestJsonlRoundTrip:
    def test_round_trip_preserves_series(self, tmp_path):
        store = _populated()
        path = tmp_path / "interfaces.jsonl"
        lines = store.to_jsonl(path)
        # One meta line + one line per sample.
        assert lines == 4

        reloaded = MetricsStore.from_jsonl(path)
        assert sorted(reloaded.interfaces()) == sorted(
            store.interfaces()
        )
        for key in store.interfaces():
            assert reloaded.series(key) == store.series(key)

    def test_round_trip_preserves_aggregates(self, tmp_path):
        store = _populated()
        path = tmp_path / "interfaces.jsonl"
        store.to_jsonl(path)
        reloaded = MetricsStore.from_jsonl(path)
        assert (
            reloaded.overload_summaries()
            == store.overload_summaries()
        )
        assert (
            reloaded.total_dropped_bits() == store.total_dropped_bits()
        )

    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert MetricsStore().to_jsonl(path) == 1  # just the meta line
        reloaded = MetricsStore.from_jsonl(path)
        assert reloaded.interfaces() == []
