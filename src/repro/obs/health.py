"""The conformance & health engine: SLOs over the controller's signals.

Production Edge Fabric earned trust by being *watched*: operators
tracked projected-vs-actual interface load, override churn, and input
freshness before letting the controller steer unattended.  This module
is that watcher for the reproduction.  Once per controller cycle the
:class:`HealthEngine`:

1. samples the deployment's :class:`~repro.obs.metrics.MetricsRegistry`
   into its :class:`~repro.obs.timeseries.TimeSeriesStore` (bounded
   history for every exported series),
2. derives per-cycle *error samples* (0/1) for each conformance signal —
   input freshness, fail-static, collector resyncs, projection drift,
   projected-vs-observed utilization conformance, per-prefix override
   flapping, cycle-runtime budget, safety-checker findings,
3. evaluates every :class:`SloRule` with multi-window burn rates
   (Google-SRE style: a fast window to catch active breakage, a slow
   window to confirm budget spend) and walks each alert through
   ``ok → pending → firing → resolved``, emitting a metrics counter, a
   structured log event, and a decision-audit entry on every transition.

The engine is strictly an observer: it never touches steering state, so
runs with it on and off are byte-identical in every decision — the
property ``tests/obs/test_health.py`` asserts together with its cost
bound.  It is also plain data (no closures, no open files), so it
pickles like the rest of telemetry.
"""

from __future__ import annotations

import json
import time as _time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..netbase.errors import ReproError
from .logs import get_logger, log_event
from .timeseries import TimeSeriesStore

__all__ = [
    "SloError",
    "SloRule",
    "SloSpec",
    "Alert",
    "AlertTransition",
    "HealthEngine",
    "HealthReport",
    "HEALTH_SIGNALS",
    "ALERT_OK",
    "ALERT_PENDING",
    "ALERT_FIRING",
    "ALERT_RESOLVED",
]

_log = get_logger("repro.obs.health")


class SloError(ReproError):
    """An SLO spec was malformed or internally inconsistent."""


#: Every conformance signal the engine derives, and what 1.0 means.
HEALTH_SIGNALS: Tuple[str, ...] = (
    "input_freshness",  # cycle skipped on stale inputs
    "fail_static",  # fail-static withdrew overrides this cycle
    "collector_resync",  # BMP collector reset / awaiting resync
    "projection_drift",  # incremental loads drifted past tolerance
    "load_conformance",  # projected vs observed utilization mismatch
    "override_flap",  # some prefix oscillated announce/withdraw
    "steering_flap",  # a steering key burned its tier-transition budget
    "cycle_runtime",  # cycle compute time blew its budget
    "safety_violation",  # the safety checker found new violations
    "ingest_backpressure",  # the wire-ingest queues dropped or expired input
)

ALERT_OK = "ok"
ALERT_PENDING = "pending"
ALERT_FIRING = "firing"
ALERT_RESOLVED = "resolved"

_SEVERITIES = ("page", "ticket")


@dataclass(frozen=True)
class SloRule:
    """One objective over one signal, evaluated with two burn windows.

    ``objective`` is the tolerated mean error level of the signal
    (0.01 = one bad cycle in a hundred).  The *burn rate* of a window is
    its observed mean error divided by the objective; the alert goes
    ``pending`` when the fast window alone burns hot and ``firing`` when
    both windows do — fast to catch active breakage, slow to ignore a
    single ancient blip.  Windows are counted in controller cycles.
    """

    name: str
    signal: str
    objective: float = 0.01
    fast_window: int = 5
    slow_window: int = 60
    fast_burn: float = 10.0
    slow_burn: float = 1.0
    severity: str = "page"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SloError("rule needs a name")
        if self.signal not in HEALTH_SIGNALS:
            raise SloError(
                f"{self.name}: unknown signal {self.signal!r}; "
                f"expected one of {HEALTH_SIGNALS}"
            )
        if not 0.0 < self.objective <= 1.0:
            raise SloError(f"{self.name}: objective must be in (0, 1]")
        if self.fast_window < 1 or self.slow_window < 1:
            raise SloError(f"{self.name}: windows must be >= 1 cycle")
        if self.fast_window > self.slow_window:
            raise SloError(
                f"{self.name}: fast window must not exceed slow window"
            )
        if self.fast_burn <= 0.0 or self.slow_burn <= 0.0:
            raise SloError(f"{self.name}: burn thresholds must be > 0")
        if self.severity not in _SEVERITIES:
            raise SloError(
                f"{self.name}: severity must be one of {_SEVERITIES}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "signal": self.signal,
            "objective": self.objective,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "severity": self.severity,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloRule":
        try:
            return cls(
                name=str(data["name"]),
                signal=str(data["signal"]),
                objective=float(data.get("objective", 0.01)),
                fast_window=int(data.get("fast_window", 5)),
                slow_window=int(data.get("slow_window", 60)),
                fast_burn=float(data.get("fast_burn", 10.0)),
                slow_burn=float(data.get("slow_burn", 1.0)),
                severity=str(data.get("severity", "page")),
                description=str(data.get("description", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SloError(f"bad SLO rule {data!r}") from exc


@dataclass
class SloSpec:
    """A declarative health spec: alert rules plus monitor tuning.

    Serializes like :class:`~repro.faults.FaultPlan` (dict/JSON/file
    round-trip) so specs live next to experiments and chaos plans.
    Monitor thresholds ride along so one file describes the whole
    conformance posture, not just the alerting layer:

    - ``load_drift_tolerance`` — absolute utilization gap between what
      the previous cycle projected for an interface and what the
      dataplane then measured before the cycle counts as nonconformant,
    - ``flap_window_cycles`` / ``flap_threshold`` — a prefix whose
      override was announced/withdrawn at least *threshold* times
      within the window counts as flapping,
    - ``runtime_budget_fraction`` — cycle compute time beyond this
      fraction of the cycle period counts as a runtime overrun.
    """

    rules: List[SloRule] = field(default_factory=list)
    load_drift_tolerance: float = 0.25
    flap_window_cycles: int = 10
    #: Clean chaos-mini runs reach 6 transitions per window when the
    #: allocator hovers at an interface's hysteresis band; 8 keeps the
    #: monitor quiet there while still catching sustained oscillation.
    flap_threshold: int = 8
    runtime_budget_fraction: float = 0.5
    #: Cycles to skip before the load-conformance monitor arms: the
    #: first projections ride a half-warm rate-estimator window and
    #: disagree with the dataplane by design, not by defect.
    conformance_warmup_cycles: int = 5

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise SloError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)
        if self.load_drift_tolerance <= 0.0:
            raise SloError("load_drift_tolerance must be > 0")
        if self.flap_window_cycles < 1:
            raise SloError("flap_window_cycles must be >= 1")
        if self.flap_threshold < 2:
            raise SloError("flap_threshold must be >= 2")
        if self.runtime_budget_fraction <= 0.0:
            raise SloError("runtime_budget_fraction must be > 0")
        if self.conformance_warmup_cycles < 0:
            raise SloError("conformance_warmup_cycles must be >= 0")

    @classmethod
    def default(cls) -> "SloSpec":
        """The stock posture: page on degradation-ladder signals,
        ticket on conformance/efficiency signals."""
        return cls(
            rules=[
                SloRule(
                    name="input_freshness",
                    signal="input_freshness",
                    objective=0.01,
                    description="cycles skipped on stale inputs",
                ),
                SloRule(
                    name="fail_static",
                    signal="fail_static",
                    objective=0.005,
                    description="fail-static withdrew the override set",
                ),
                SloRule(
                    name="collector_resync",
                    signal="collector_resync",
                    objective=0.01,
                    description="BMP collector reset or awaiting resync",
                ),
                SloRule(
                    name="projection_drift",
                    signal="projection_drift",
                    objective=0.005,
                    description=(
                        "incremental projection drifted from full replay"
                    ),
                ),
                SloRule(
                    name="load_conformance",
                    signal="load_conformance",
                    objective=0.02,
                    fast_window=10,
                    slow_window=120,
                    fast_burn=8.0,
                    severity="ticket",
                    description=(
                        "projected interface utilization disagrees with "
                        "the dataplane's measurement"
                    ),
                ),
                SloRule(
                    name="override_flap",
                    signal="override_flap",
                    objective=0.01,
                    severity="ticket",
                    description="a prefix's override is oscillating",
                ),
                SloRule(
                    name="steering_flap",
                    signal="steering_flap",
                    objective=0.01,
                    severity="ticket",
                    description=(
                        "a closed-loop steering key exceeded its "
                        "tier-transition budget"
                    ),
                ),
                SloRule(
                    name="cycle_runtime",
                    signal="cycle_runtime",
                    objective=0.05,
                    severity="ticket",
                    description="cycle compute time over budget",
                ),
                SloRule(
                    name="safety",
                    signal="safety_violation",
                    objective=0.001,
                    description="the safety checker found violations",
                ),
                SloRule(
                    name="ingest_backpressure",
                    signal="ingest_backpressure",
                    objective=0.02,
                    severity="ticket",
                    description=(
                        "the socket ingest path shed load (queue-full "
                        "drops, stale expiry, or TCP pauses)"
                    ),
                ),
            ]
        )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "load_drift_tolerance": self.load_drift_tolerance,
            "flap_window_cycles": self.flap_window_cycles,
            "flap_threshold": self.flap_threshold,
            "runtime_budget_fraction": self.runtime_budget_fraction,
            "conformance_warmup_cycles": self.conformance_warmup_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloSpec":
        rules_raw = data.get("rules", [])
        if not isinstance(rules_raw, list):
            raise SloError("spec 'rules' must be a list")
        try:
            return cls(
                rules=[SloRule.from_dict(entry) for entry in rules_raw],
                load_drift_tolerance=float(
                    data.get("load_drift_tolerance", 0.25)
                ),
                flap_window_cycles=int(
                    data.get("flap_window_cycles", 10)
                ),
                flap_threshold=int(data.get("flap_threshold", 8)),
                runtime_budget_fraction=float(
                    data.get("runtime_budget_fraction", 0.5)
                ),
                conformance_warmup_cycles=int(
                    data.get("conformance_warmup_cycles", 5)
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SloError(f"bad SLO spec: {exc}") from exc

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SloSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SloError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SloError("spec JSON must be an object")
        return cls.from_dict(data)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "SloSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


@dataclass(frozen=True)
class AlertTransition:
    """One alert state change, for the report timeline."""

    time: float
    rule: str
    signal: str
    from_state: str
    to_state: str
    fast_burn: float
    slow_burn: float
    message: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "rule": self.rule,
            "signal": self.signal,
            "from_state": self.from_state,
            "to_state": self.to_state,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "message": self.message,
        }


@dataclass
class Alert:
    """The live state of one rule's alert."""

    rule: SloRule
    state: str = ALERT_OK
    since: float = 0.0
    fired_count: int = 0
    fast_burn: float = 0.0
    slow_burn: float = 0.0
    message: str = ""

    @property
    def firing(self) -> bool:
        return self.state == ALERT_FIRING

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule.name,
            "signal": self.rule.signal,
            "severity": self.rule.severity,
            "state": self.state,
            "since": self.since,
            "fired_count": self.fired_count,
            "fast_burn": round(self.fast_burn, 4),
            "slow_burn": round(self.slow_burn, 4),
            "message": self.message,
        }


@dataclass
class HealthReport:
    """One deployment's health, machine-readable and round-trippable."""

    name: str
    time: float
    cycles: int
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    transitions: List[Dict[str, Any]] = field(default_factory=list)
    signals: Dict[str, float] = field(default_factory=dict)
    ever_fired: List[str] = field(default_factory=list)
    overhead_seconds: float = 0.0
    #: Closed-loop steering tier counts at report time ({} when the
    #: deployment runs without the v2 engine).
    steering: Dict[str, int] = field(default_factory=dict)

    @property
    def firing(self) -> List[Dict[str, Any]]:
        return [a for a in self.alerts if a["state"] == ALERT_FIRING]

    @property
    def ok(self) -> bool:
        return not self.firing

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "time": self.time,
            "cycles": self.cycles,
            "alerts": self.alerts,
            "transitions": self.transitions,
            "signals": self.signals,
            "ever_fired": self.ever_fired,
            "overhead_seconds": self.overhead_seconds,
            "steering": self.steering,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HealthReport":
        return cls(
            name=str(data.get("name", "")),
            time=float(data.get("time", 0.0)),
            cycles=int(data.get("cycles", 0)),
            alerts=list(data.get("alerts", [])),
            transitions=list(data.get("transitions", [])),
            signals=dict(data.get("signals", {})),
            ever_fired=list(data.get("ever_fired", [])),
            overhead_seconds=float(data.get("overhead_seconds", 0.0)),
            steering={
                str(tier): int(count)
                for tier, count in dict(
                    data.get("steering", {})
                ).items()
            },
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "HealthReport":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("health report JSON must be an object")
        return cls.from_dict(data)

    def render(self) -> str:
        """Operator-facing summary."""
        firing = self.firing
        verdict = (
            f"{len(firing)} FIRING" if firing else "healthy"
        )
        lines = [
            f"health [{self.name}] t={self.time:.0f}: {verdict} "
            f"({self.cycles} cycles observed)"
        ]
        if self.steering:
            tiers = "  ".join(
                f"{tier}={self.steering.get(tier, 0)}"
                for tier in ("GREEN", "YELLOW", "RED")
            )
            lines.append(f"  steering tiers: {tiers}")
        for alert in self.alerts:
            flag = {
                ALERT_FIRING: "FIRING  ",
                ALERT_PENDING: "pending ",
                ALERT_RESOLVED: "resolved",
            }.get(str(alert["state"]), "ok      ")
            lines.append(
                f"  {flag} {alert['rule']:<18} "
                f"burn fast={alert['fast_burn']:>6.2f}x "
                f"slow={alert['slow_burn']:>6.2f}x "
                f"[{alert['severity']}]"
                + (f"  {alert['message']}" if alert["message"] else "")
            )
        if self.transitions:
            lines.append("recent transitions:")
            for entry in self.transitions[-8:]:
                lines.append(
                    f"  t={entry['time']:>9.1f}  {entry['rule']:<18} "
                    f"{entry['from_state']} -> {entry['to_state']}"
                    + (
                        f"  {entry['message']}"
                        if entry.get("message")
                        else ""
                    )
                )
        return "\n".join(lines)


#: Gauge encoding of alert states (resolved reads as 0: it is healthy).
_STATE_VALUES = {
    ALERT_OK: 0.0,
    ALERT_RESOLVED: 0.0,
    ALERT_PENDING: 1.0,
    ALERT_FIRING: 2.0,
}


class HealthEngine:
    """Per-cycle conformance monitors + burn-rate alerting for one PoP."""

    def __init__(
        self,
        spec: Optional[SloSpec] = None,
        telemetry=None,
        cycle_seconds: float = 30.0,
        store_capacity: int = 4096,
        sample_metrics: bool = True,
        max_flap_prefixes: int = 4096,
    ) -> None:
        self.spec = spec or SloSpec.default()
        self.telemetry = telemetry
        self.cycle_seconds = cycle_seconds
        self.sample_metrics = sample_metrics
        self.max_flap_prefixes = max_flap_prefixes
        self.store = TimeSeriesStore(capacity=store_capacity)
        self.alerts: Dict[str, Alert] = {
            rule.name: Alert(rule=rule) for rule in self.spec.rules
        }
        self.transitions: List[AlertTransition] = []
        self.cycles = 0
        #: Wall-clock seconds this engine has spent observing — the
        #: numerator of the <=5% overhead gate in ``tests/obs``.
        self.overhead_seconds = 0.0
        # Monitor state.
        self._last_resets = 0
        self._last_violations = 0
        self._last_projected: Dict = {}
        self._flap_events: "OrderedDict[str, Deque[float]]" = (
            OrderedDict()
        )
        self._context: Dict[str, str] = {}
        self._last_backpressure = 0
        #: Last observed steering tier counts ({} without an engine).
        self._last_steering: Dict[str, int] = {}
        self._m_cycles = None
        self._m_transitions = None
        self._m_firing = None
        self._m_overhead = None
        if telemetry is not None:
            registry = telemetry.registry
            self._m_cycles = registry.counter(
                "health_cycles_total", "Cycles observed by health engine"
            )
            self._m_transitions = registry.counter(
                "health_alert_transitions_total",
                "Alert state transitions",
                ("rule", "state"),
            )
            self._m_firing = registry.gauge(
                "health_alerts_firing", "Alerts currently firing"
            )
            self._m_overhead = registry.counter(
                "health_overhead_seconds_total",
                "Wall-clock seconds spent in health observation",
            )

    # -- the per-cycle observation --------------------------------------------

    def on_cycle(
        self,
        now: float,
        report,
        controller=None,
        bmp=None,
        safety=None,
        utilization_of=None,
        ingest=None,
    ) -> List[AlertTransition]:
        """Observe one finished controller cycle.

        *report* is the cycle's :class:`~repro.core.monitoring.CycleReport`;
        the rest are the live objects the monitors read (all optional so
        the engine can run against partial stacks in tests).  *ingest*
        is the wire-ingest engine's stats view (anything with a
        ``backpressure_total`` attribute); when present, a cycle during
        which the ingest queues shed load raises ``ingest_backpressure``.
        Returns the alert transitions this observation caused.
        """
        started = _time.perf_counter()
        self.cycles += 1
        if self._m_cycles is not None:
            self._m_cycles.inc()

        signals = self._gather(now, report, controller, bmp, safety,
                               utilization_of, ingest)
        store = self.store
        for name, value in signals.items():
            store.record(f"slo:{name}", now, value)
        if self.sample_metrics and self.telemetry is not None:
            store.sample_registry(self.telemetry.registry, now)

        new_transitions = self._evaluate(now)

        elapsed = _time.perf_counter() - started
        self.overhead_seconds += elapsed
        if self._m_overhead is not None:
            self._m_overhead.inc(elapsed)
        return new_transitions

    # -- signal derivation ----------------------------------------------------

    def _gather(
        self, now, report, controller, bmp, safety, utilization_of,
        ingest=None,
    ) -> Dict[str, float]:
        context = self._context
        signals: Dict[str, float] = {}

        skipped = bool(report is not None and report.skipped)
        signals["input_freshness"] = 1.0 if skipped else 0.0
        if skipped:
            context["input_freshness"] = (
                f"cycle skipped: {report.skip_reason}"
            )

        fail_static = bool(skipped and report.withdrawn > 0)
        signals["fail_static"] = 1.0 if fail_static else 0.0
        if fail_static:
            context["fail_static"] = (
                f"withdrew {report.withdrawn} overrides fail-static"
            )

        if bmp is not None:
            resets = getattr(bmp, "resets", 0)
            reset_seen = resets != self._last_resets
            self._last_resets = resets
            resync = bool(getattr(bmp, "needs_resync", False))
            signals["collector_resync"] = (
                1.0 if (reset_seen or resync) else 0.0
            )
            if reset_seen or resync:
                context["collector_resync"] = (
                    f"collector resets={resets}"
                    + (", awaiting resync" if resync else "")
                )

        if safety is not None:
            count = len(safety.violations)
            fresh = count - self._last_violations
            self._last_violations = count
            signals["safety_violation"] = 1.0 if fresh > 0 else 0.0
            if fresh > 0:
                last = safety.violations[-1]
                context["safety_violation"] = (
                    f"{fresh} new violations (last: {last.invariant} "
                    f"on {last.subject})"
                )

        if controller is not None:
            drift = getattr(controller, "last_drift", None)
            drifted = bool(drift)
            signals["projection_drift"] = 1.0 if drifted else 0.0
            if drifted:
                worst = max(drift.values())
                context["projection_drift"] = (
                    f"{len(drift)} interfaces drifted "
                    f"(worst {worst:.3e} relative)"
                )
            signals["override_flap"] = self._observe_flaps(
                now, getattr(controller, "last_diff", None)
            )
            steering = getattr(controller, "steering", None)
            if steering is not None:
                flapping = steering.flap_signal(now)
                signals["steering_flap"] = flapping
                self._last_steering = steering.tier_counts()
                if flapping:
                    from ..core.steering import (
                        FLAP_BUDGET,
                        FLAP_WINDOW_CYCLES,
                    )

                    budget = FLAP_BUDGET
                    window = FLAP_WINDOW_CYCLES
                    context["steering_flap"] = (
                        f"a steering key exceeded {budget} tier "
                        f"transitions in {window} cycles"
                    )

        if ingest is not None:
            total = int(getattr(ingest, "backpressure_total", 0))
            shed = total - self._last_backpressure
            self._last_backpressure = total
            signals["ingest_backpressure"] = 1.0 if shed > 0 else 0.0
            if shed > 0:
                context["ingest_backpressure"] = (
                    f"ingest shed load {shed} times since last cycle "
                    f"(queue drops / stale expiry / TCP pauses)"
                )

        if report is not None and not skipped:
            budget = (
                self.spec.runtime_budget_fraction * self.cycle_seconds
            )
            over = report.runtime_seconds > budget
            signals["cycle_runtime"] = 1.0 if over else 0.0
            if over:
                context["cycle_runtime"] = (
                    f"cycle took {report.runtime_seconds:.2f}s, "
                    f"budget {budget:.2f}s"
                )
            if controller is not None and utilization_of is not None:
                conformance = self._observe_conformance(
                    controller, utilization_of
                )
                if self.cycles > self.spec.conformance_warmup_cycles:
                    signals["load_conformance"] = conformance
        return signals

    def _observe_conformance(self, controller, utilization_of) -> float:
        """Compare the *previous* cycle's projected per-interface
        utilization against what the dataplane measured since.

        The off-by-one is deliberate: a cycle's projection describes the
        coming interval, so it is checked against the next observation,
        not the tick that already played out under the prior decision.
        """
        tolerance = self.spec.load_drift_tolerance
        previous = self._last_projected
        worst_gap = 0.0
        worst_key = None
        for key, projected in previous.items():
            observed = utilization_of(key)
            gap = abs(projected - observed)
            if gap > worst_gap:
                worst_gap = gap
                worst_key = key
        # Stash this cycle's projection for the next observation.
        assembler = controller.assembler
        current: Dict = {}
        for key, load in controller.last_final_loads.items():
            capacity = assembler.capacity_of(key).bits_per_second
            if capacity > 0.0:
                current[key] = load.bits_per_second / capacity
        self._last_projected = current
        if worst_gap > tolerance:
            name = (
                "/".join(worst_key)
                if isinstance(worst_key, tuple)
                else str(worst_key)
            )
            self._context["load_conformance"] = (
                f"{name}: projected vs observed utilization gap "
                f"{worst_gap:.2f} (tolerance {tolerance:.2f})"
            )
            return 1.0
        return 0.0

    def _observe_flaps(self, now: float, diff) -> float:
        """Track announce/withdraw transitions per prefix; 1.0 when any
        prefix crossed the flap threshold inside the window."""
        window = self.spec.flap_window_cycles * self.cycle_seconds
        threshold = self.spec.flap_threshold
        events = self._flap_events
        if diff is not None:
            for override in diff.announce:
                self._note_flap(str(override.prefix), now)
            for override in diff.withdraw:
                self._note_flap(str(override.prefix), now)
        edge = now - window
        worst_prefix = None
        worst_count = 0
        for prefix in list(events):
            times = events[prefix]
            while times and times[0] < edge:
                times.popleft()
            if not times:
                del events[prefix]
                continue
            if len(times) > worst_count:
                worst_count = len(times)
                worst_prefix = prefix
        if worst_count >= threshold:
            self._context["override_flap"] = (
                f"{worst_prefix}: {worst_count} override transitions "
                f"in {self.spec.flap_window_cycles} cycles"
            )
            return 1.0
        return 0.0

    def _note_flap(self, prefix: str, now: float) -> None:
        events = self._flap_events
        times = events.get(prefix)
        if times is None:
            if len(events) >= self.max_flap_prefixes:
                events.popitem(last=False)
            times = deque(maxlen=4 * self.spec.flap_threshold)
            events[prefix] = times
        else:
            events.move_to_end(prefix)
        times.append(now)

    # -- burn-rate evaluation -------------------------------------------------

    def _evaluate(self, now: float) -> List[AlertTransition]:
        new_transitions: List[AlertTransition] = []
        firing = 0
        for alert in self.alerts.values():
            rule = alert.rule
            series = self.store.get(f"slo:{rule.signal}")
            if series is None or not len(series):
                continue
            fast = series.mean(rule.fast_window) / rule.objective
            slow = series.mean(rule.slow_window) / rule.objective
            alert.fast_burn = fast
            alert.slow_burn = slow
            fast_hot = fast >= rule.fast_burn
            slow_hot = slow >= rule.slow_burn
            state = alert.state
            if fast_hot and slow_hot:
                target = ALERT_FIRING
            elif fast_hot:
                # Stay firing while the fast window is still hot.
                target = (
                    ALERT_FIRING
                    if state == ALERT_FIRING
                    else ALERT_PENDING
                )
            elif state in (ALERT_FIRING, ALERT_PENDING):
                target = ALERT_RESOLVED
            elif state == ALERT_RESOLVED:
                target = ALERT_OK
            else:
                target = ALERT_OK
            if target != state:
                transition = self._transition(now, alert, target)
                new_transitions.append(transition)
            if alert.state == ALERT_FIRING:
                firing += 1
        if self._m_firing is not None:
            self._m_firing.set(firing)
        return new_transitions

    def _transition(
        self, now: float, alert: Alert, target: str
    ) -> AlertTransition:
        rule = alert.rule
        message = ""
        if target in (ALERT_PENDING, ALERT_FIRING):
            message = self._context.get(rule.signal, "")
        transition = AlertTransition(
            time=now,
            rule=rule.name,
            signal=rule.signal,
            from_state=alert.state,
            to_state=target,
            fast_burn=alert.fast_burn,
            slow_burn=alert.slow_burn,
            message=message,
        )
        self.transitions.append(transition)
        alert.state = target
        alert.since = now
        alert.message = message
        if target == ALERT_FIRING:
            alert.fired_count += 1
        if self._m_transitions is not None:
            self._m_transitions.labels(
                rule=rule.name, state=target
            ).inc()
        if self.telemetry is not None:
            gauge = self.telemetry.registry.gauge(
                "health_alert_state",
                "Per-rule alert state (0 ok, 1 pending, 2 firing)",
                ("rule",),
            )
            gauge.labels(rule=rule.name).set(_STATE_VALUES[target])
            self.telemetry.audit.record_alert(
                now, rule.name, target, message
            )
        log_event(
            _log,
            "health.alert",
            time=now,
            rule=rule.name,
            signal=rule.signal,
            state=target,
            fast_burn=round(alert.fast_burn, 3),
            slow_burn=round(alert.slow_burn, 3),
            message=message,
        )
        return transition

    # -- reporting ------------------------------------------------------------

    def ever_fired(self) -> List[str]:
        """Rule names that reached ``firing`` at any point, sorted."""
        return sorted(
            alert.rule.name
            for alert in self.alerts.values()
            if alert.fired_count > 0
        )

    def firing_alerts(self) -> List[Alert]:
        return [a for a in self.alerts.values() if a.firing]

    def latest_signals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name in HEALTH_SIGNALS:
            series = self.store.get(f"slo:{name}")
            if series is not None:
                latest = series.latest()
                if latest is not None:
                    out[name] = latest[1]
        return out

    def report(
        self, now: Optional[float] = None, name: Optional[str] = None
    ) -> HealthReport:
        if name is None:
            name = (
                self.telemetry.name
                if self.telemetry is not None
                else "health"
            )
        if now is None:
            times = [
                series.latest()[0]
                for key in self.store.names()
                if key.startswith("slo:")
                and (series := self.store.get(key)) is not None
                and series.latest() is not None
            ]
            now = max(times, default=0.0)
        return HealthReport(
            name=name,
            time=now,
            cycles=self.cycles,
            alerts=[
                alert.to_dict()
                for _, alert in sorted(self.alerts.items())
            ],
            transitions=[t.to_dict() for t in self.transitions],
            signals=self.latest_signals(),
            ever_fired=self.ever_fired(),
            overhead_seconds=round(self.overhead_seconds, 6),
            steering=dict(self._last_steering),
        )
