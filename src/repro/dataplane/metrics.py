"""Interface utilization and loss accounting over simulated time.

Every simulator tick records, per egress interface, what was offered,
what fit, and what dropped.  The evaluation experiments (overload
frequency and magnitude, loss avoided by Edge Fabric) are all queries
over this store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..netbase.units import Rate
from ..topology.entities import InterfaceKey

__all__ = ["InterfaceSample", "MetricsStore", "OverloadSummary"]


@dataclass(frozen=True)
class InterfaceSample:
    """One interface, one tick."""

    time: float
    offered: Rate
    capacity: Rate
    transmitted: Rate
    dropped: Rate

    @property
    def utilization(self) -> float:
        """Offered load over capacity (can exceed 1.0)."""
        if self.capacity.is_zero():
            return 0.0
        return self.offered / self.capacity

    @property
    def is_overloaded(self) -> bool:
        return self.offered > self.capacity


@dataclass(frozen=True)
class OverloadSummary:
    """Aggregate overload behaviour of one interface over a run."""

    interface: InterfaceKey
    samples: int
    overloaded_samples: int
    peak_utilization: float
    total_dropped_bits: float

    @property
    def overload_fraction(self) -> float:
        return (
            self.overloaded_samples / self.samples if self.samples else 0.0
        )


class MetricsStore:
    """Time series of :class:`InterfaceSample` per interface."""

    def __init__(self) -> None:
        self._series: Dict[InterfaceKey, List[InterfaceSample]] = {}
        self._tick_seconds: Optional[float] = None

    def record(
        self,
        key: InterfaceKey,
        sample: InterfaceSample,
        tick_seconds: Optional[float] = None,
    ) -> None:
        self._series.setdefault(key, []).append(sample)
        if tick_seconds is not None:
            self._tick_seconds = tick_seconds

    def series(self, key: InterfaceKey) -> List[InterfaceSample]:
        return list(self._series.get(key, []))

    def interfaces(self) -> List[InterfaceKey]:
        return list(self._series)

    def items(self) -> Iterator[Tuple[InterfaceKey, List[InterfaceSample]]]:
        for key, samples in self._series.items():
            yield key, list(samples)

    # -- aggregates --------------------------------------------------------------

    def overload_summary(self, key: InterfaceKey) -> OverloadSummary:
        samples = self._series.get(key, [])
        tick = self._tick_seconds or 1.0
        return OverloadSummary(
            interface=key,
            samples=len(samples),
            overloaded_samples=sum(1 for s in samples if s.is_overloaded),
            peak_utilization=max(
                (s.utilization for s in samples), default=0.0
            ),
            total_dropped_bits=sum(
                s.dropped.bits_per_second * tick for s in samples
            ),
        )

    def overload_summaries(self) -> List[OverloadSummary]:
        return [self.overload_summary(key) for key in self._series]

    def total_dropped_bits(self) -> float:
        return sum(
            summary.total_dropped_bits
            for summary in self.overload_summaries()
        )

    def utilization_at(self, key: InterfaceKey, time: float) -> float:
        for sample in reversed(self._series.get(key, [])):
            if sample.time <= time:
                return sample.utilization
        return 0.0

    # -- persistence -------------------------------------------------------------

    def to_jsonl(self, path) -> int:
        """Write the store as JSON lines; returns lines written.

        One header line carries the tick interval, then one line per
        (interface, sample).  :meth:`from_jsonl` reloads the result into
        an equivalent store, so a run's interface series can be archived
        next to its telemetry and re-queried offline.
        """
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            header = {"kind": "meta", "tick_seconds": self._tick_seconds}
            handle.write(json.dumps(header) + "\n")
            lines += 1
            for (router, interface), samples in self._series.items():
                for sample in samples:
                    handle.write(
                        json.dumps(
                            {
                                "kind": "sample",
                                "router": router,
                                "interface": interface,
                                "time": sample.time,
                                "offered_bps": sample.offered.bits_per_second,
                                "capacity_bps": sample.capacity.bits_per_second,
                                "transmitted_bps": (
                                    sample.transmitted.bits_per_second
                                ),
                                "dropped_bps": sample.dropped.bits_per_second,
                            }
                        )
                        + "\n"
                    )
                    lines += 1
        return lines

    @classmethod
    def from_jsonl(cls, path) -> "MetricsStore":
        """Reload a store written by :meth:`to_jsonl`."""
        store = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                if payload.get("kind") == "meta":
                    store._tick_seconds = payload.get("tick_seconds")
                    continue
                store.record(
                    (payload["router"], payload["interface"]),
                    InterfaceSample(
                        time=payload["time"],
                        offered=Rate(payload["offered_bps"]),
                        capacity=Rate(payload["capacity_bps"]),
                        transmitted=Rate(payload["transmitted_bps"]),
                        dropped=Rate(payload["dropped_bps"]),
                    ),
                )
        return store
