"""Controller self-monitoring: per-cycle reports and run-level history.

Production Edge Fabric is audited heavily (every decision logged, every
override accounted for); this module is that audit trail, and doubles as
the data source for the evaluation — detour volume over time, detour
durations, override churn, unresolved overloads.

The run-level history is backed by a
:class:`~repro.obs.timeseries.TimeSeriesStore` (one named ring series
per signal, recorded as each report lands) so the same store the health
engine samples also answers the evaluation queries; the full
:class:`CycleReport` list is kept alongside for the detail-level
consumers (experiments, chaos reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..netbase.units import Rate
from ..obs.timeseries import TimeSeriesStore

__all__ = ["CycleReport", "ControllerMonitor"]


@dataclass(frozen=True)
class CycleReport:
    """What one controller cycle saw and did."""

    time: float
    skipped: bool = False
    skip_reason: str = ""
    total_traffic: Rate = Rate(0)
    prefixes_seen: int = 0
    overloaded_interfaces: tuple = ()
    detour_count: int = 0
    detoured_rate: Rate = Rate(0)
    announced: int = 0
    withdrawn: int = 0
    kept: int = 0
    unresolved: tuple = ()
    perf_moves: int = 0
    runtime_seconds: float = 0.0
    #: Which decision path produced this cycle: "full" (incremental
    #: engine off), "rebuild" (reconciliation or delta fallback) or
    #: "delta" (incremental projection + fresh allocation).  "" on
    #: skipped cycles.
    decision_path: str = ""
    #: Routes actually held by the injector after this cycle.  Equal to
    #: the active override count normally; under aggregated injection
    #: it is the (much smaller) covering-prefix count.
    installed_overrides: int = 0

    @property
    def churn(self) -> int:
        return self.announced + self.withdrawn

    @property
    def detoured_fraction(self) -> float:
        if self.total_traffic.is_zero():
            return 0.0
        return self.detoured_rate / self.total_traffic


@dataclass
class ControllerMonitor:
    """Accumulates cycle reports for a whole run.

    Every report also lands in :attr:`series` — churn per cycle (all
    cycles: skipped ones still carry fail-static withdrawals), plus
    detoured-fraction / unresolved for active cycles and a 0/1 skipped
    marker — so run-level queries read bounded ring series instead of
    rescanning the report list.
    """

    reports: List[CycleReport] = field(default_factory=list)
    series: TimeSeriesStore = field(default_factory=TimeSeriesStore)

    def record(self, report: CycleReport) -> None:
        self.reports.append(report)
        series = self.series
        time = report.time
        series.record("churn", time, report.churn)
        series.record("skipped", time, 1.0 if report.skipped else 0.0)
        if not report.skipped:
            series.record(
                "detoured_fraction", time, report.detoured_fraction
            )
            series.record(
                "unresolved", time, 1.0 if report.unresolved else 0.0
            )

    # -- run-level queries ---------------------------------------------------

    def cycles(self) -> int:
        return len(self.reports)

    def skipped_cycles(self) -> int:
        skipped = self.series.get("skipped")
        return int(sum(skipped.values())) if skipped else 0

    def detoured_fraction_series(self) -> List[tuple]:
        """(time, fraction of traffic detoured) per active cycle."""
        fractions = self.series.get("detoured_fraction")
        return fractions.points() if fractions else []

    def total_churn(self) -> int:
        churn = self.series.get("churn")
        return int(sum(churn.values())) if churn else 0

    def mean_churn_per_cycle(self) -> float:
        active = self.cycles() - self.skipped_cycles()
        if not active:
            return 0.0
        # Skipped cycles contribute fail-static withdrawals to total
        # churn but are not "cycles" for the per-cycle mean.
        skipped_churn = sum(
            report.churn for report in self.reports if report.skipped
        )
        return (self.total_churn() - skipped_churn) / active

    def peak_detoured_fraction(self) -> float:
        fractions = self.series.get("detoured_fraction")
        if fractions is None or not len(fractions):
            return 0.0
        return max(fractions.values())

    def unresolved_overload_cycles(self) -> int:
        unresolved = self.series.get("unresolved")
        return int(sum(unresolved.values())) if unresolved else 0
