"""repro.obs — the observability subsystem for the tick pipeline.

Six pieces, one facade:

- :mod:`repro.obs.metrics` — typed metrics registry (counters, gauges,
  histograms with label sets) with Prometheus-text and JSON exporters,
- :mod:`repro.obs.tracing` — ring-buffered spans over the tick hot path,
- :mod:`repro.obs.audit` — the per-prefix decision audit trail behind
  ``explain(prefix)``,
- :mod:`repro.obs.logs` — structured run logs with a JSONL emitter,
- :mod:`repro.obs.timeseries` — fixed-capacity ring time series sampled
  from the registry once per controller cycle,
- :mod:`repro.obs.health` — conformance monitors and SLO burn-rate
  alerting over all of the above.

:class:`repro.obs.Telemetry` bundles the recording pieces per deployment
and is what the controller, pipeline, simulator and collectors are
instrumented against; :class:`repro.obs.HealthEngine` is the layer that
*watches* what they record.
"""

from .audit import (
    DecisionAudit,
    OverrideEvent,
    PrefixExplanation,
    decisive_step,
)
from .health import (
    Alert,
    AlertTransition,
    HealthEngine,
    HealthReport,
    SloError,
    SloRule,
    SloSpec,
)
from .logs import JsonlHandler, configure_logging, get_logger, log_event
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .telemetry import Telemetry
from .timeseries import TimeSeries, TimeSeriesStore
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "DecisionAudit",
    "OverrideEvent",
    "PrefixExplanation",
    "decisive_step",
    "JsonlHandler",
    "configure_logging",
    "get_logger",
    "log_event",
    "Telemetry",
    "TimeSeries",
    "TimeSeriesStore",
    "Alert",
    "AlertTransition",
    "HealthEngine",
    "HealthReport",
    "SloError",
    "SloRule",
    "SloSpec",
]
