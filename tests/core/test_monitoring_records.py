"""Tests for cycle reports, run records and pipeline bookkeeping."""

import pytest

from repro.core.monitoring import ControllerMonitor, CycleReport
from repro.core.pipeline import RunRecord, TickSummary
from repro.netbase.units import Rate, gbps


def report(time=0.0, **kwargs):
    defaults = dict(
        total_traffic=gbps(100),
        prefixes_seen=50,
        detour_count=3,
        detoured_rate=gbps(5),
        announced=1,
        withdrawn=1,
        kept=2,
        runtime_seconds=0.05,
    )
    defaults.update(kwargs)
    return CycleReport(time=time, **defaults)


class TestCycleReport:
    def test_churn_and_fraction(self):
        r = report()
        assert r.churn == 2
        assert r.detoured_fraction == pytest.approx(0.05)

    def test_zero_traffic_fraction(self):
        r = report(total_traffic=Rate(0), detoured_rate=Rate(0))
        assert r.detoured_fraction == 0.0

    def test_skipped_report(self):
        r = CycleReport(time=1.0, skipped=True, skip_reason="stale")
        assert r.skipped and r.churn == 0


class TestControllerMonitor:
    def make_monitor(self):
        monitor = ControllerMonitor()
        monitor.record(report(time=0.0, announced=2, withdrawn=0))
        monitor.record(
            CycleReport(time=30.0, skipped=True, skip_reason="stale")
        )
        monitor.record(
            report(
                time=60.0,
                announced=0,
                withdrawn=1,
                unresolved=(("pr0", "x"),),
                runtime_seconds=0.15,
            )
        )
        return monitor

    def test_counts(self):
        monitor = self.make_monitor()
        assert monitor.cycles() == 3
        assert monitor.skipped_cycles() == 1
        assert monitor.total_churn() == 3
        assert monitor.unresolved_overload_cycles() == 1

    def test_series_exclude_skipped(self):
        monitor = self.make_monitor()
        assert len(monitor.detoured_fraction_series()) == 2

    def test_means(self):
        monitor = self.make_monitor()
        assert monitor.mean_churn_per_cycle() == pytest.approx(1.5)
        assert monitor.peak_detoured_fraction() == pytest.approx(0.05)

    def test_empty_monitor(self):
        monitor = ControllerMonitor()
        assert monitor.mean_churn_per_cycle() == 0.0
        assert monitor.peak_detoured_fraction() == 0.0


class TestRunRecord:
    def make_record(self):
        record = RunRecord()
        for index, (offered, dropped, detoured) in enumerate(
            [(100, 5, 0), (200, 0, 20), (150, 1, 10)]
        ):
            record.ticks.append(
                TickSummary(
                    time=float(index * 30),
                    offered=gbps(offered),
                    dropped=gbps(dropped),
                    detoured=gbps(detoured),
                    active_overrides=index,
                )
            )
        return record

    def test_total_dropped_bits(self):
        record = self.make_record()
        assert record.total_dropped_bits(30.0) == pytest.approx(
            6e9 * 30.0
        )

    def test_detoured_fraction_series(self):
        series = self.make_record().detoured_fraction_series()
        assert series[0] == (0.0, 0.0)
        assert series[1][1] == pytest.approx(0.1)

    def test_empty_record(self):
        record = RunRecord()
        assert record.total_dropped_bits(30.0) == 0.0
        assert record.detoured_fraction_series() == []
