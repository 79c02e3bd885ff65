"""Fleet orchestration: Edge Fabric across many PoPs.

The paper deploys one controller instance per PoP, with no cross-PoP
coordination — each PoP's egress problem is local.  The fleet runner
mirrors that: independent :class:`PopDeployment` instances stepped
serially in lockstep, in one process, sharing only the synthetic
Internet they were built over.  ``repro top`` is its console.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.config import ControllerConfig
from ..netbase.units import gbps
from ..topology.builder import build_pop, provision_against_demand
from ..topology.scenarios import default_internet, fleet_specs
from ..traffic.demand import DemandConfig, DemandModel
from .pipeline import PopDeployment

__all__ = ["FleetDeployment"]


@dataclass
class FleetDeployment:
    """Independent per-PoP deployments, stepped together."""

    deployments: Dict[str, PopDeployment]
    tick_seconds: float

    @classmethod
    def build(
        cls,
        pop_count: int = 4,
        seed: int = 0,
        tick_seconds: float = 60.0,
        controller_config: Optional[ControllerConfig] = None,
        sampling_rate: int = 131_072,
        fault_plans: Optional[Dict[str, object]] = None,
        safety_checks: bool = False,
        health_checks: bool = False,
        slo_spec: object = None,
    ) -> "FleetDeployment":
        """Build *pop_count* PoPs over one shared synthetic Internet.

        Each PoP gets its own demand (different seeds: PoPs serve
        different regions with offset peaks) and its own controller.

        *fault_plans* maps PoP name (``pop-00`` ...) to a
        :class:`~repro.faults.FaultPlan`; listed PoPs get their own
        :class:`~repro.faults.FaultInjector` while the rest run clean.
        """
        internet = default_internet(seed)
        prefixes = internet.all_prefixes()
        config = controller_config or ControllerConfig(
            cycle_seconds=tick_seconds
        )
        deployments: Dict[str, PopDeployment] = {}
        for index, pop_spec in enumerate(fleet_specs(pop_count, seed)):
            wired = build_pop(pop_spec, internet)
            peak = pop_spec.expected_peak or gbps(160)
            demand = DemandModel(
                prefixes,
                DemandConfig(
                    seed=seed + 100 + index,
                    peak_total=peak,
                    # Regional peaks: offset each PoP by ~90 minutes.
                    peak_time=(64_800.0 + index * 5_400.0) % 86_400.0,
                ),
                popular=wired.popular_prefixes(),
            )
            provision_against_demand(
                wired,
                demand.weight_of,
                expected_peak=peak,
                headroom=pop_spec.private_headroom,
                tight_headroom=pop_spec.tight_headroom,
                tight_peer_count=pop_spec.tight_peer_count,
                seed=seed + 200 + index,
            )
            faults = None
            if fault_plans and pop_spec.name in fault_plans:
                from ..faults.harness import FaultInjector

                faults = FaultInjector(fault_plans[pop_spec.name])
            deployments[pop_spec.name] = PopDeployment(
                wired,
                demand,
                controller_config=config,
                tick_seconds=tick_seconds,
                sampling_rate=sampling_rate,
                seed=seed + 300 + index,
                faults=faults,
                safety_checks=safety_checks,
                health_checks=health_checks,
                slo_spec=slo_spec,
            )
        return cls(deployments=deployments, tick_seconds=tick_seconds)

    def step(self, now: float) -> None:
        """One tick at *now* on every PoP."""
        for deployment in self.deployments.values():
            deployment.step(now)

    def firing_alerts(self) -> Dict[str, List]:
        """Per-PoP alerts currently firing (PoPs with none are omitted)."""
        out: Dict[str, List] = {}
        for name, deployment in sorted(self.deployments.items()):
            if deployment.health is None:
                continue
            firing = deployment.health.firing_alerts()
            if firing:
                out[name] = firing
        return out
