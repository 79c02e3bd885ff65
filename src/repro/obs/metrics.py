"""Typed metrics registry: counters, gauges, histograms with label sets.

Production Edge Fabric exports per-interface and per-decision counters to
the same monitoring fabric as the rest of the CDN; this module is that
export surface for the reproduction.  A :class:`MetricsRegistry` owns a
namespace of metrics; each metric owns a family of *series* keyed by its
label values.  The design borrows the Prometheus client model:

- registration is idempotent (``registry.counter("x")`` twice returns the
  same object; a kind clash raises),
- hot paths pre-bind label sets once (``metric.labels(pop="a")``) so a
  per-tick increment is one dict store, no string formatting,
- ``snapshot()`` is a plain-dict view suitable for JSON and asserts in
  tests.

Exporters: :meth:`to_prometheus` emits the text exposition format;
:meth:`to_json` the snapshot as JSON.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "process_rss_bytes",
]


def process_rss_bytes() -> float:
    """This process's resident set size in bytes (0.0 if unknowable).

    Reads ``/proc/self/statm`` where procfs exists (Linux); falls back
    to ``getrusage`` peak RSS elsewhere.  The soak report samples it
    to gate memory growth.
    """
    try:
        with open("/proc/self/statm", "rb") as statm:
            fields = statm.read().split()
        import resource

        page = resource.getpagesize()
        return float(int(fields[1]) * page)
    except (OSError, IndexError, ValueError):
        pass
    try:  # pragma: no cover - non-procfs platforms
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; procfs handled Linux above.
        return float(peak)
    except Exception:  # pragma: no cover
        return 0.0

#: Histogram bucket upper bounds in seconds (Prometheus-style defaults,
#: trimmed to the latency range a simulated tick/cycle actually spans).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelValues = Tuple[str, ...]


def _label_string(labelnames: Sequence[str], values: LabelValues) -> str:
    """Prometheus-style label rendering: ``a="x",b="y"`` ('' if none)."""
    return ",".join(
        f'{name}="{value}"' for name, value in zip(labelnames, values)
    )


class _Metric:
    """Shared plumbing for one metric family (one name, many series)."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def _values_key(self, labels: Dict[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} do not match "
                f"declared {sorted(self.labelnames)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)


class Counter(_Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def labels(self, **labels: str) -> "BoundCounter":
        return BoundCounter(self, self._values_key(labels))

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less series (shorthand for ``labels()``)."""
        if amount < 0:
            raise ValueError("counters only go up")
        key: LabelValues = ()
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(self._values_key(labels), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        return dict(self._values)

    def _reset(self) -> None:
        self._values.clear()


class BoundCounter:
    """A counter pre-bound to one label set — hot-path increment."""

    __slots__ = ("_values", "_key")

    def __init__(self, parent: Counter, key: LabelValues) -> None:
        self._values = parent._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._values[self._key] = (
            self._values.get(self._key, 0.0) + amount
        )


class Gauge(_Metric):
    """A value that can go up and down (per label set)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelValues, float] = {}

    def labels(self, **labels: str) -> "BoundGauge":
        return BoundGauge(self, self._values_key(labels))

    def set(self, value: float) -> None:
        self._values[()] = float(value)

    def add(self, amount: float) -> None:
        self._values[()] = self._values.get((), 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(self._values_key(labels), 0.0)

    def series(self) -> Dict[LabelValues, float]:
        return dict(self._values)

    def _reset(self) -> None:
        self._values.clear()


class BoundGauge:
    """A gauge pre-bound to one label set."""

    __slots__ = ("_values", "_key")

    def __init__(self, parent: Gauge, key: LabelValues) -> None:
        self._values = parent._values
        self._key = key

    def set(self, value: float) -> None:
        self._values[self._key] = float(value)

    def add(self, amount: float) -> None:
        self._values[self._key] = (
            self._values.get(self._key, 0.0) + amount
        )


class _HistogramSeries:
    """Bucket counts + sum + count for one label set."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * (bucket_count + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0


class Histogram(_Metric):
    """Bucketed distribution of observed values (seconds by default)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise ValueError("histogram needs at least one bucket")
        self.buckets: Tuple[float, ...] = ordered
        self._series: Dict[LabelValues, _HistogramSeries] = {}

    def labels(self, **labels: str) -> "BoundHistogram":
        return BoundHistogram(self, self._values_key(labels))

    def _series_for(self, key: LabelValues) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.buckets))
            self._series[key] = series
        return series

    def observe(self, value: float) -> None:
        self._observe((), value)

    def _observe(self, key: LabelValues, value: float) -> None:
        series = self._series_for(key)
        series.bucket_counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1

    def series(self) -> Dict[LabelValues, _HistogramSeries]:
        return dict(self._series)

    def count(self, **labels: str) -> int:
        series = self._series.get(self._values_key(labels))
        return series.count if series is not None else 0

    def _reset(self) -> None:
        self._series.clear()


class BoundHistogram:
    """A histogram pre-bound to one label set."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: Histogram, key: LabelValues) -> None:
        self._parent = parent
        self._key = key

    def observe(self, value: float) -> None:
        self._parent._observe(self._key, value)


class MetricsRegistry:
    """One namespace of metrics; the unit of export and merging."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # -- registration (idempotent) -------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric) or (
                existing.labelnames != metric.labelnames
            ):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labelnames, buckets))

    # -- views -----------------------------------------------------------------

    def metrics(self) -> List[_Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every series; registrations (and bound handles) survive."""
        for metric in self._metrics.values():
            metric._reset()

    def snapshot(self) -> Dict:
        """Plain-dict view: {kind: {name: {label_string: value}}}.

        Histogram series render as ``{"count", "sum", "buckets"}`` where
        buckets map the upper bound (``"+Inf"`` last) to a *cumulative*
        count, mirroring the Prometheus exposition semantics.
        """
        out: Dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            if isinstance(metric, (Counter, Gauge)):
                section = out[
                    "counters" if metric.kind == "counter" else "gauges"
                ]
                section[metric.name] = {
                    _label_string(metric.labelnames, key): value
                    for key, value in sorted(metric.series().items())
                }
            elif isinstance(metric, Histogram):
                rendered = {}
                for key, series in sorted(metric.series().items()):
                    cumulative = 0
                    buckets = {}
                    bounds = [str(b) for b in metric.buckets] + ["+Inf"]
                    for bound, count in zip(
                        bounds, series.bucket_counts
                    ):
                        cumulative += count
                        buckets[bound] = cumulative
                    rendered[
                        _label_string(metric.labelnames, key)
                    ] = {
                        "count": series.count,
                        "sum": series.sum,
                        "buckets": buckets,
                    }
                out["histograms"][metric.name] = rendered
        return out

    # -- exporters --------------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                for key, value in sorted(metric.series().items()):
                    labels = _label_string(metric.labelnames, key)
                    suffix = f"{{{labels}}}" if labels else ""
                    lines.append(f"{metric.name}{suffix} {value}")
            elif isinstance(metric, Histogram):
                for key, series in sorted(metric.series().items()):
                    base = _label_string(metric.labelnames, key)
                    cumulative = 0
                    bounds = [str(b) for b in metric.buckets] + ["+Inf"]
                    for bound, count in zip(
                        bounds, series.bucket_counts
                    ):
                        cumulative += count
                        labels = (
                            f'{base},le="{bound}"'
                            if base
                            else f'le="{bound}"'
                        )
                        lines.append(
                            f"{metric.name}_bucket{{{labels}}} "
                            f"{cumulative}"
                        )
                    suffix = f"{{{base}}}" if base else ""
                    lines.append(
                        f"{metric.name}_sum{suffix} {series.sum}"
                    )
                    lines.append(
                        f"{metric.name}_count{suffix} {series.count}"
                    )
        return "\n".join(lines) + "\n"
