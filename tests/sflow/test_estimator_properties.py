"""Property tests for the sliding-window rate estimator."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sflow.estimator import RateEstimator

events = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1000, allow_nan=False),  # time
        st.floats(min_value=0, max_value=1e9, allow_nan=False),  # bytes
    ),
    max_size=40,
)


class TestEstimatorProperties:
    @settings(max_examples=150, deadline=None)
    @given(events, st.floats(min_value=1, max_value=120))
    # A large sample expiring ahead of a small one: a plain running sum
    # left the large add's rounding error as most of the remainder.
    @example(
        rows=[(0.0, 536870853.0), (1.0, 59.154575288295746), (2.0, 0.0)],
        window=2.0,
    )
    def test_rate_equals_window_bytes_over_window(self, rows, window):
        rows = sorted(rows)
        estimator = RateEstimator(window_seconds=window)
        for when, count in rows:
            estimator.add("k", count, when)
        if not rows:
            return
        now = rows[-1][0]
        in_window = sum(
            count for when, count in rows if now - window < when <= now
        )
        assert estimator.rate("k", now).bits_per_second == pytest.approx(
            in_window * 8.0 / window, rel=1e-9, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(events)
    def test_rate_never_negative_and_expires_to_zero(self, rows):
        rows = sorted(rows)
        estimator = RateEstimator(window_seconds=30.0)
        for when, count in rows:
            estimator.add("k", count, when)
        if rows:
            far_future = rows[-1][0] + 1000.0
            assert estimator.rate("k", far_future).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(events, events)
    def test_keys_are_independent(self, rows_a, rows_b):
        estimator = RateEstimator(window_seconds=60.0)
        for when, count in sorted(rows_a):
            estimator.add("a", count, when)
        snapshot = estimator.rate("a", 500.0)
        for when, count in sorted(rows_b):
            estimator.add("b", count, when)
        assert estimator.rate("a", 500.0) == snapshot
