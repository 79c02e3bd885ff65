"""PoP and Internet topology substrate."""

from .builder import PopSpec, WiredPop, build_pop
from .entities import Interface, InterfaceKey, PeeringRouter, PoP
from .internet import AsNode, InternetConfig, InternetTopology
from .scenarios import (
    STUDY_POP_NAMES,
    build_study_pop,
    default_internet,
    fleet_specs,
    study_pop_spec,
)

__all__ = [
    "PopSpec",
    "WiredPop",
    "build_pop",
    "Interface",
    "InterfaceKey",
    "PeeringRouter",
    "PoP",
    "AsNode",
    "InternetConfig",
    "InternetTopology",
    "STUDY_POP_NAMES",
    "build_study_pop",
    "default_internet",
    "fleet_specs",
    "study_pop_spec",
]
