"""Post-cycle safety invariants: the controller's own watchdog.

Edge Fabric's failure story only holds if three properties survive every
cycle, including (especially) cycles degraded by faults:

- ``live_alternate`` — every active override still has a live,
  non-injected route on its target session; an override pointing at a
  vanished route would blackhole the prefix the moment the FIB recursed.
- ``target_over_threshold`` — no detour target was projected above its
  utilization threshold by the cycle that placed it; detouring *into*
  overload is the exact failure the controller exists to prevent.
- ``fail_static`` — once inputs have been stale for the configured
  number of cycles, zero overrides remain installed (paper §5: a blind
  controller must return the network to vanilla BGP).
- ``injector_consistency`` — the override table and the routers' own
  view of injected routes agree exactly; disagreement means a withdraw
  was lost or a route leaked.
- ``projection_drift`` — the incremental engine's maintained
  per-interface loads agree with a full replay at every reconciliation
  cycle, within the configured tolerance; sustained disagreement means
  the delta path is mis-accounting traffic and the controller is
  steering on a fictional picture.

The checker runs after every controller cycle (run or skipped), costs a
few dict scans, and reports through the ordinary observability channels:
a labelled violation counter, a structured log event, the decision audit
trail, and a picklable :attr:`violations` list the chaos report and the
fleet runner aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..dataplane.fib import egress_interface
from ..obs.logs import get_logger, log_event
from .controller import DRIFT_TOLERANCE, EdgeFabricController
from .monitoring import CycleReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bmp.collector import BmpCollector

__all__ = ["Violation", "SafetyChecker"]

_log = get_logger("repro.core.safety")

#: Relative slack on threshold comparisons — float accumulation across
#: an allocation must not read as a safety violation.
_EPSILON = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant breach, at one cycle."""

    time: float
    invariant: str
    subject: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "invariant": self.invariant,
            "subject": self.subject,
            "message": self.message,
        }


class SafetyChecker:
    """Asserts the degradation invariants after every cycle."""

    def __init__(
        self,
        controller: EdgeFabricController,
        bmp: "BmpCollector",
    ) -> None:
        self.controller = controller
        self.bmp = bmp
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._m_violations = controller.telemetry.registry.counter(
            "safety_violations_total",
            "Post-cycle safety invariant breaches",
            ("invariant",),
        )

    # -- the check ------------------------------------------------------------

    def check(
        self, now: float, report: Optional[CycleReport] = None
    ) -> List[Violation]:
        """Run every invariant; returns (and records) new violations."""
        self.checks_run += 1
        found: List[Violation] = []
        self._check_live_alternate(now, found)
        if report is not None and not report.skipped:
            self._check_target_threshold(now, found)
            self._check_projection_drift(now, found)
        self._check_fail_static(now, found)
        self._check_injector_consistency(now, found)
        for violation in found:
            self._record(violation)
        return found

    def _record(self, violation: Violation) -> None:
        self.violations.append(violation)
        self._m_violations.labels(
            invariant=violation.invariant
        ).inc()
        self.controller.telemetry.audit.record_violation(
            violation.time,
            violation.subject,
            violation.invariant,
            violation.message,
        )
        log_event(
            _log,
            "safety.violation",
            time=violation.time,
            invariant=violation.invariant,
            subject=violation.subject,
            message=violation.message,
        )

    # -- invariants ------------------------------------------------------------

    def _check_live_alternate(
        self, now: float, found: List[Violation]
    ) -> None:
        # A collector awaiting resync knows its RIB is incomplete (a
        # reset mid-outage leaves it empty until a full re-export gets
        # through); absence of a route in that view proves nothing, and
        # fail-static separately bounds how long overrides may outlive
        # trustworthy inputs.
        if getattr(self.bmp, "needs_resync", False):
            return
        for prefix, override in self.controller.overrides.active().items():
            alive = any(
                route.source.name == override.target_session
                and not route.is_injected
                for route in self.bmp.routes_for(prefix)
            )
            if not alive:
                found.append(
                    Violation(
                        time=now,
                        invariant="live_alternate",
                        subject=str(prefix),
                        message=(
                            "override targets session "
                            f"{override.target_session} but no live "
                            "route from it remains"
                        ),
                    )
                )

    def _check_target_threshold(
        self, now: float, found: List[Violation]
    ) -> None:
        loads = self.controller.last_final_loads
        if not loads:
            return
        assembler = self.controller.assembler
        threshold = self.controller.config.utilization_threshold
        checked = set()
        for override in self.controller.overrides.active().values():
            key = egress_interface(assembler.pop, override.target)
            if key in checked:
                continue
            checked.add(key)
            load = loads.get(key)
            if load is None:
                continue
            capacity = assembler.capacity_of(key)
            limit = capacity.bits_per_second * threshold
            if load.bits_per_second > limit * (1.0 + _EPSILON):
                found.append(
                    Violation(
                        time=now,
                        invariant="target_over_threshold",
                        subject="/".join(key),
                        message=(
                            f"detour target projected at {load} against "
                            f"a {threshold:.0%} limit of {capacity}"
                        ),
                    )
                )

    def _check_projection_drift(
        self, now: float, found: List[Violation]
    ) -> None:
        # The controller populates last_drift only on reconciliation
        # cycles, with the interfaces whose incrementally-maintained
        # load disagreed with the full replay beyond DRIFT_TOLERANCE;
        # any entry at all is an invariant breach.
        drift: Dict[object, float] = self.controller.last_drift
        for key, relative in drift.items():
            found.append(
                Violation(
                    time=now,
                    invariant="projection_drift",
                    subject="/".join(key) if isinstance(key, tuple)
                    else str(key),
                    message=(
                        f"incremental load drifted {relative:.3e} "
                        f"(relative) from full replay, tolerance "
                        f"{DRIFT_TOLERANCE:.1e}"
                    ),
                )
            )

    def _check_fail_static(
        self, now: float, found: List[Violation]
    ) -> None:
        controller = self.controller
        bound = controller.config.fail_static_after_cycles
        if controller.stale_cycles >= bound and len(controller.overrides):
            found.append(
                Violation(
                    time=now,
                    invariant="fail_static",
                    subject=f"{len(controller.overrides)} overrides",
                    message=(
                        f"inputs stale for {controller.stale_cycles} "
                        f"cycles (bound {bound}) but overrides remain "
                        "installed"
                    ),
                )
            )

    def _check_injector_consistency(
        self, now: float, found: List[Violation]
    ) -> None:
        injected = self.controller.injector.injected_prefixes()
        # Compare against the *installed* table: under aggregation the
        # injector legitimately holds covering prefixes, not the
        # per-prefix desired set.
        tracked = self.controller.installed_prefixes()
        if injected != tracked:
            extra = [str(p) for p in injected if p not in tracked]
            missing = [str(p) for p in tracked if p not in injected]
            found.append(
                Violation(
                    time=now,
                    invariant="injector_consistency",
                    subject="override table vs router RIBs",
                    message=(
                        f"injected-but-untracked={extra} "
                        f"tracked-but-not-injected={missing}"
                    ),
                )
            )

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        return {
            "checks_run": self.checks_run,
            "violations": [v.to_dict() for v in self.violations],
        }
