"""Flow-level dataplane: forwarding, utilization, drops, sampling hooks."""

from .fib import egress_interface, resolve_egress
from .metrics import InterfaceSample, MetricsStore, OverloadSummary
from .popview import PopView
from .simulator import PopSimulator, TickResult

__all__ = [
    "egress_interface",
    "resolve_egress",
    "InterfaceSample",
    "MetricsStore",
    "OverloadSummary",
    "PopView",
    "PopSimulator",
    "TickResult",
]
