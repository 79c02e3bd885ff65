"""The :class:`Telemetry` facade: one handle for a deployment's signals.

A deployment (one PoP's full stack) owns one ``Telemetry`` bundling its
metrics registry, span tracer, and decision-audit trail.  The object
holds plain data only — no open files, no loggers, no closures — so it
pickles, and a fleet reads each PoP's telemetry separately.

``write_jsonl`` persists everything as one JSONL stream (metrics, spans,
audit events, each line tagged with ``kind``), the format the CI bench
uploads and :meth:`snapshot` mirrors in-memory.
"""

from __future__ import annotations

import json
from typing import Dict

from .audit import DecisionAudit, PrefixExplanation
from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["Telemetry"]


class Telemetry:
    """Metrics + tracing + decision audit for one deployment."""

    def __init__(
        self,
        name: str = "default",
        span_capacity: int = 4096,
        audit_per_prefix: int = 256,
        audit_max_prefixes: int = 4096,
    ) -> None:
        self.name = name
        self.registry = MetricsRegistry()
        self.tracer = Tracer(capacity=span_capacity)
        self.tracer.set_drop_counter(
            self.registry.counter(
                "tracer_dropped_spans_total",
                "Spans evicted from the tracer ring buffer",
            )
        )
        self.audit = DecisionAudit(
            per_prefix_capacity=audit_per_prefix,
            max_prefixes=audit_max_prefixes,
        )

    # -- queries -------------------------------------------------------------------

    def explain(self, prefix: object) -> PrefixExplanation:
        """Delegate to the audit trail: why is this prefix detoured?"""
        return self.audit.explain(prefix)

    def snapshot(self) -> Dict:
        return {
            "name": self.name,
            "metrics": self.registry.snapshot(),
            "spans": {
                "buffered": len(self.tracer),
                "recorded": self.tracer.recorded,
                "dropped": self.tracer.dropped,
                "by_name": self.tracer.counts(),
            },
            "audit": {
                "events": len(self.audit),
                "prefixes": len(self.audit.prefixes()),
                "detoured": self.audit.detoured_prefixes(),
            },
        }

    # -- persistence ----------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write metrics, spans and audit events as JSONL; returns lines."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            meta = {"kind": "meta", "name": self.name}
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            lines += 1
            snapshot = self.registry.snapshot()
            for kind_key, metric_kind in (
                ("counters", "counter"),
                ("gauges", "gauge"),
                ("histograms", "histogram"),
            ):
                for name, series in snapshot[kind_key].items():
                    for labels, value in series.items():
                        handle.write(
                            json.dumps(
                                {
                                    "kind": "metric",
                                    "type": metric_kind,
                                    "metric": name,
                                    "labels": labels,
                                    "value": value,
                                },
                                sort_keys=True,
                            )
                            + "\n"
                        )
                        lines += 1
            for span in self.tracer.to_dicts():
                span_line = {"kind": "span"}
                span_line.update(span)
                handle.write(
                    json.dumps(span_line, sort_keys=True) + "\n"
                )
                lines += 1
            for event in self.audit.events():
                event_line = {"kind": "audit"}
                event_line.update(event.to_dict())
                handle.write(
                    json.dumps(event_line, sort_keys=True) + "\n"
                )
                lines += 1
        return lines
