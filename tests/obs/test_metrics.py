"""Tests for the typed metrics registry."""

import json

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


class TestRegistration:
    def test_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", "help text")
        second = registry.counter("requests_total")
        assert first is second

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_labelname_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("y_total", labelnames=("pop",))
        with pytest.raises(ValueError):
            registry.counter("y_total", labelnames=("router",))


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("ticks_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("ticks_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_bound_labels(self):
        counter = MetricsRegistry().counter(
            "moves_total", labelnames=("status",)
        )
        ok = counter.labels(status="ok")
        ok.inc()
        ok.inc(4)
        counter.labels(status="err").inc()
        assert counter.value(status="ok") == 5.0
        assert counter.value(status="err") == 1.0

    def test_wrong_labels_raise(self):
        counter = MetricsRegistry().counter(
            "moves_total", labelnames=("status",)
        )
        with pytest.raises(ValueError):
            counter.labels(other="x")


class TestGauge:
    def test_set_add(self):
        gauge = MetricsRegistry().gauge("active")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value() == 7.0

    def test_bound_set(self):
        gauge = MetricsRegistry().gauge("load", labelnames=("iface",))
        bound = gauge.labels(iface="tr0")
        bound.set(2.0)
        assert gauge.value(iface="tr0") == 2.0


class TestHistogram:
    def test_observe_counts_and_sum(self):
        histogram = MetricsRegistry().histogram("lat_seconds")
        histogram.observe(0.003)
        histogram.observe(0.003)
        histogram.observe(9.0)
        assert histogram.count() == 3
        series = histogram.series()[()]
        assert series.sum == pytest.approx(9.006)
        # 0.003 falls in the 0.005 bucket; 9.0 in the 10.0 bucket.
        bucket_index = DEFAULT_BUCKETS.index(0.005)
        assert series.bucket_counts[bucket_index] == 2

    def test_over_the_top_goes_to_inf(self):
        histogram = MetricsRegistry().histogram(
            "lat_seconds", buckets=(0.1, 1.0)
        )
        histogram.observe(5.0)
        assert histogram.series()[()].bucket_counts == [0, 0, 1]

    def test_empty_buckets_raise(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("x", buckets=())


class TestSnapshotAndExport:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("ticks_total").inc(3)
        registry.gauge("offered_bps", labelnames=("pop",)).labels(
            pop="a"
        ).set(100.0)
        registry.histogram("wall_seconds", buckets=(0.1, 1.0)).observe(
            0.05
        )
        return registry

    def test_snapshot_shape(self):
        snapshot = self._populated().snapshot()
        assert snapshot["counters"]["ticks_total"][""] == 3.0
        assert snapshot["gauges"]["offered_bps"]['pop="a"'] == 100.0
        histogram = snapshot["histograms"]["wall_seconds"][""]
        assert histogram["count"] == 1
        # Cumulative buckets, "+Inf" last.
        assert histogram["buckets"] == {"0.1": 1, "1.0": 1, "+Inf": 1}

    def test_prometheus_text(self):
        text = self._populated().to_prometheus()
        assert "# TYPE ticks_total counter" in text
        assert "ticks_total 3.0" in text
        assert 'offered_bps{pop="a"} 100.0' in text
        assert 'wall_seconds_bucket{le="0.1"} 1' in text
        assert 'wall_seconds_bucket{le="+Inf"} 1' in text
        assert "wall_seconds_count 1" in text

    def test_json_round_trips(self):
        registry = self._populated()
        assert json.loads(registry.to_json()) == registry.snapshot()

    def test_reset_keeps_bound_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", labelnames=("k",))
        bound = counter.labels(k="v")
        bound.inc()
        registry.reset()
        assert counter.value(k="v") == 0.0
        bound.inc()
        assert counter.value(k="v") == 1.0


class TestExportDeterminism:
    """Exports are stable regardless of registration order.

    Dashboards diff exports across runs; if series order followed dict
    insertion order, registering the same series in a different order
    would produce spuriously different text.
    """

    @staticmethod
    def _registry(reverse):
        """Three metrics x three PoPs, registered in one order or its
        reverse."""
        registry = MetricsRegistry()
        kinds = ["counter", "gauge", "histogram"]
        pops = [("pop-a", 1, 0.1), ("pop-b", 2, 0.2), ("pop-c", 3, 0.3)]
        if reverse:
            kinds.reverse()
            pops.reverse()
        for kind in kinds:
            for pop, ticks, load in pops:
                if kind == "counter":
                    registry.counter(
                        "ticks_total", labelnames=("pop",)
                    ).labels(pop=pop).inc(ticks)
                elif kind == "gauge":
                    registry.gauge(
                        "load", labelnames=("iface", "pop")
                    ).labels(iface="if0", pop=pop).set(load)
                else:
                    registry.histogram(
                        "cycle_seconds", labelnames=("pop",)
                    ).labels(pop=pop).observe(load)
        return registry

    def test_registration_order_does_not_change_export(self):
        forward = self._registry(reverse=False)
        backward = self._registry(reverse=True)
        assert forward.to_prometheus() == backward.to_prometheus()
        assert forward.to_json() == backward.to_json()
        assert forward.snapshot() == backward.snapshot()

    def test_prometheus_series_sorted_by_label_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", labelnames=("pop",))
        for pop in ("zulu", "alpha", "mike"):
            counter.labels(pop=pop).inc()
        lines = [
            line
            for line in registry.to_prometheus().splitlines()
            if line.startswith("n_total{")
        ]
        assert lines == sorted(lines)
