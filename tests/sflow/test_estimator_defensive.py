"""Defensive estimator behaviour: empty windows degrade, never raise."""

import math

from repro.sflow.estimator import RateEstimator


class TestWindowStats:
    def test_empty_window_is_all_zeros(self):
        estimator = RateEstimator(window_seconds=60.0)
        stats = estimator.window_stats("k", 100.0)
        assert stats.empty
        assert stats.samples == 0
        assert stats.total_bytes == 0.0
        assert stats.window_rate.bits_per_second == 0.0
        assert stats.observed_span == 0.0
        assert stats.mean_sample_gap == 0.0
        # And the rate query itself is equally safe.
        assert estimator.rate("k", 100.0).bits_per_second == 0.0

    def test_single_sample_has_rate_but_no_gap(self):
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("k", 600.0, 10.0)
        stats = estimator.window_stats("k", 10.0)
        assert not stats.empty
        assert stats.samples == 1
        assert stats.total_bytes == 600.0
        assert stats.window_rate.bits_per_second == 600.0 * 8 / 60.0
        assert stats.observed_span == 0.0
        assert stats.mean_sample_gap == 0.0

    def test_multi_sample_gap_is_mean_spacing(self):
        estimator = RateEstimator(window_seconds=60.0)
        for at in (0.0, 10.0, 30.0):
            estimator.add("k", 100.0, at)
        stats = estimator.window_stats("k", 30.0)
        assert stats.samples == 3
        assert stats.observed_span == 30.0
        assert stats.mean_sample_gap == 15.0

    def test_window_starved_by_fault_returns_to_zero(self):
        # A loss fault that starves the collector for a whole window
        # must read as "no samples, rate 0" — never a ZeroDivisionError
        # inside the controller's input path.
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("k", 600.0, 0.0)
        assert estimator.rate("k", 30.0).bits_per_second > 0.0
        stats = estimator.window_stats("k", 1000.0)
        assert stats.empty
        assert estimator.rate("k", 1000.0).bits_per_second == 0.0


class TestAge:
    def test_infinite_before_first_sample(self):
        estimator = RateEstimator(window_seconds=60.0)
        assert math.isinf(estimator.age(0.0))

    def test_tracks_most_recent_sample(self):
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("a", 1.0, 10.0)
        estimator.add("b", 1.0, 40.0)
        assert estimator.age(100.0) == 60.0
        # Expiry does not reset age: staleness measures arrival, not
        # window contents.
        assert estimator.age(1000.0) == 960.0

    def test_never_negative(self):
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("a", 1.0, 50.0)
        assert estimator.age(40.0) == 0.0

    def test_clear_resets(self):
        estimator = RateEstimator(window_seconds=60.0)
        estimator.add("a", 1.0, 10.0)
        estimator.clear()
        assert math.isinf(estimator.age(20.0))
        assert estimator.window_stats("a", 20.0).empty


class TestCollectorDelegation:
    def test_collector_age(self):
        from repro.sflow.collector import SflowCollector

        collector = SflowCollector(lambda family, addr: None)
        assert math.isinf(collector.age(0.0))
