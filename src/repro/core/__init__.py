"""Edge Fabric: the egress traffic-engineering controller."""

from .aggregate import InstallIntent, OverrideAggregator
from .allocator import AllocationResult, Allocator, Detour
from .config import ControllerConfig
from .controller import EdgeFabricController
from .fleet import FleetDeployment
from .injector import BgpInjector
from .inputs import ControllerInputs, InputAssembler
from .monitoring import ControllerMonitor, CycleReport
from .overrides import Override, OverrideDiff, OverrideSet
from .pipeline import PopDeployment, RunRecord, TickSummary
from .projection import Placement, Projection, project
from .steering import (
    STEERING_TIERS,
    TIER_GREEN,
    TIER_RED,
    TIER_YELLOW,
    PathHealth,
    SignalVote,
    SteeringEngine,
    TierTransition,
)

__all__ = [
    "InstallIntent",
    "OverrideAggregator",
    "AllocationResult",
    "Allocator",
    "Detour",
    "ControllerConfig",
    "EdgeFabricController",
    "FleetDeployment",
    "BgpInjector",
    "ControllerInputs",
    "InputAssembler",
    "ControllerMonitor",
    "CycleReport",
    "Override",
    "OverrideDiff",
    "OverrideSet",
    "PopDeployment",
    "RunRecord",
    "TickSummary",
    "Placement",
    "Projection",
    "project",
    "STEERING_TIERS",
    "TIER_GREEN",
    "TIER_YELLOW",
    "TIER_RED",
    "PathHealth",
    "SignalVote",
    "SteeringEngine",
    "TierTransition",
]
