"""Steering-stability trials: prove the closed loop never flaps.

The v2 steering engine's contract is hysteresis: measurement noise and
transient faults may move a ⟨prefix, path⟩ key's tier, but no key may
*oscillate* — its tier-transition rate must stay inside the configured
flap budget even while the chaos plans the gauntlet already runs
(``sflow_skew`` sampling distortion, ``link_flap`` capacity dips) are
hammering the signals the engine votes on.  This module is that trial:
one seeded fault plan of a single kind, one steering-armed chaos
deployment, one machine-readable verdict per run.  The
``steering-stability`` CI job sweeps it over seeds and fails on any
budget breach, uploading each :class:`StabilityReport` as an artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..core.steering import FLAP_BUDGET, FLAP_WINDOW_CYCLES
from .harness import FaultInjector
from .plan import FaultPlan
from .scenario import build_chaos_deployment

__all__ = [
    "STABILITY_FAULT_KINDS",
    "STABILITY_DURATION",
    "StabilityReport",
    "run_stability_trial",
]

#: The fault kinds the stability gate exercises: both distort the
#: signals steering votes on (rates and queue pressure) without taking
#: the control plane down, which is exactly where a flappy loop would
#: oscillate.
STABILITY_FAULT_KINDS: Tuple[str, ...] = ("sflow_skew", "link_flap")

#: 60 cycles of 30 s — long enough for trips, dwell and recovery.
STABILITY_DURATION = 1800.0


@dataclass(frozen=True)
class StabilityReport:
    """One steering-stability trial, summarized for CI artifacts."""

    seed: int
    fault_kind: str
    plan: Dict[str, Any]
    cycles: int
    #: Tier population at end of run.
    tier_counts: Dict[str, int]
    #: Whole-run tier transitions per 100 observed cycles, per key
    #: (``"prefix via session"`` → rate).
    flap_rates: Dict[str, float]
    #: The budget a key's rate must not exceed (transitions per
    #: ``FLAP_WINDOW_CYCLES`` cycles, normalized to 100).
    flap_budget: float
    #: Keys whose rate exceeded the budget — a clean run has none.
    breaches: Dict[str, float]
    #: Every tier transition the engine recorded, with its votes.
    transitions: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.breaches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "fault_kind": self.fault_kind,
            "plan": self.plan,
            "cycles": self.cycles,
            "tier_counts": self.tier_counts,
            "flap_rates": self.flap_rates,
            "flap_budget": self.flap_budget,
            "breaches": self.breaches,
            "transitions": self.transitions,
            "clean": self.clean,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        tiers = self.tier_counts
        lines = [
            f"steering stability (seed {self.seed}, {self.fault_kind}): "
            f"{'CLEAN' if self.clean else f'{len(self.breaches)} BREACHES'}",
            f"  {self.cycles} steering cycles, tiers "
            f"GREEN={tiers.get('GREEN', 0)} "
            f"YELLOW={tiers.get('YELLOW', 0)} "
            f"RED={tiers.get('RED', 0)}, "
            f"{len(self.transitions)} transitions, budget "
            f"{self.flap_budget:.0f}/100 cycles",
        ]
        for key, rate in sorted(self.breaches.items()):
            lines.append(f"  BREACH {key}: {rate:.1f}/100 cycles")
        return "\n".join(lines)


def run_stability_trial(
    seed: int,
    fault_kind: str,
    duration: float = STABILITY_DURATION,
) -> StabilityReport:
    """Run one steering-armed chaos deployment under *fault_kind*.

    The plan is ``FaultPlan.random`` restricted to the one kind, so the
    trial inherits the gauntlet's seeding and recovery-window shape.
    Returns the per-key flap verdict; the caller asserts ``clean``.
    """
    if fault_kind not in STABILITY_FAULT_KINDS:
        raise ValueError(
            f"fault_kind must be one of {STABILITY_FAULT_KINDS}, "
            f"got {fault_kind!r}"
        )
    plan = FaultPlan.random(seed, duration=duration, kinds=(fault_kind,))
    injector = FaultInjector(plan)
    deployment = build_chaos_deployment(
        seed=seed,
        faults=injector,
        safety_checks=True,
        health_checks=True,
        steering=True,
    )
    start = deployment.demand.config.peak_time
    ticks = int(duration / deployment.tick_seconds)
    for index in range(ticks):
        deployment.step(start + index * deployment.tick_seconds)

    engine = deployment.controller.steering
    assert engine is not None  # steering=True armed the closed loop
    # Normalize the configured budget to per-100-cycles so reports are
    # comparable across budget settings.
    budget = FLAP_BUDGET * 100.0 / FLAP_WINDOW_CYCLES
    rates = {
        f"{prefix} via {path}": rate
        for (prefix, path), rate in engine.flap_rates().items()
    }
    breaches = {
        key: rate for key, rate in rates.items() if rate > budget
    }
    return StabilityReport(
        seed=seed,
        fault_kind=fault_kind,
        plan=plan.to_dict(),
        cycles=engine.cycles,
        tier_counts=engine.tier_counts(),
        flap_rates=rates,
        flap_budget=budget,
        breaches=breaches,
        transitions=[t.to_dict() for t in engine.transitions],
    )
