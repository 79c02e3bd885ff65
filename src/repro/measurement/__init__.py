"""Path performance measurement: models, passive stats, alt-path rounds."""

from .altpath import AltPathComparison, AltPathMonitor, DscpPolicy
from .passive import PassiveMonitor, PathStats
from .pathmodel import PathModelConfig, PathPerformanceModel

__all__ = [
    "AltPathComparison",
    "AltPathMonitor",
    "DscpPolicy",
    "PassiveMonitor",
    "PathStats",
    "PathModelConfig",
    "PathPerformanceModel",
]
