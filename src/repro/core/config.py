"""Edge Fabric controller configuration.

Every number the paper calls out as a design choice lives here so the
ablation benchmarks can sweep it: the cycle period, the utilization
threshold that defines "overloaded", the staleness bound on inputs, and
the stability preference that keeps detours from churning.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netbase.errors import ControllerError

__all__ = ["ControllerConfig"]


@dataclass(frozen=True)
class ControllerConfig:
    #: How often the controller runs (the paper's ~30 seconds).
    cycle_seconds: float = 30.0
    #: An interface is overloaded when projected load exceeds this
    #: fraction of capacity; detour targets must stay below it too.
    utilization_threshold: float = 0.95
    #: Refuse to act on route/traffic inputs older than this.
    max_input_age_seconds: float = 90.0
    #: Prefer last cycle's detour target for a prefix still detoured.
    stability_preference: bool = True
    #: Enable the performance-aware second pass (paper §5).
    performance_aware: bool = False
    #: Detour a prefix for performance when an alternate beats the
    #: preferred path's median RTT by at least this much.
    perf_improvement_threshold_ms: float = 20.0
    #: Consecutive bad-vote cycles before a key trips GREEN/YELLOW→RED
    #: (fast to protect).
    steering_trip_cycles: int = 2
    #: Consecutive good cycles a RED key must sustain before returning
    #: to GREEN (slow to recover — the asymmetric dwell).
    steering_recover_cycles: int = 15
    #: Consecutive good cycles that clear YELLOW back to GREEN.
    steering_yellow_recover_cycles: int = 3
    #: Signals that must agree in one cycle for it to count as bad; a
    #: single dissenting signal yields YELLOW, never RED.
    steering_votes_to_trip: int = 2
    #: Consecutive non-good cycles before GREEN drops to YELLOW.  A
    #: single-cycle spike on one signal (sFlow skew hopping an
    #: interface's utilization over the queue line for one cycle) must
    #: not move the tier at all, or the early-warning tier itself flaps.
    steering_warn_cycles: int = 2
    #: Safety rail: at most this many *new* detours per cycle (kept
    #: detours are free).  A controller fed garbage inputs can then
    #: shift only a bounded amount of traffic before a human notices.
    #: ``None`` disables the cap.
    max_new_detours_per_cycle: int | None = None
    #: When a prefix is too large for any single alternate, announce
    #: more-specific halves and detour them independently (the
    #: finer-granularity mechanism the paper discusses).
    allow_prefix_splitting: bool = False
    #: Fail static: after this many consecutive skipped (stale-input)
    #: cycles, withdraw every override and fall back to vanilla BGP.
    fail_static_after_cycles: int = 3
    #: Aggregated injection: install one covering prefix per run of
    #: same-target detours instead of one route per prefix (the paper's
    #: BGP-update-volume concern at full-table scale).  Decisions stay
    #: per-prefix; only the *installed* table is aggregated, and only
    #: where every routed prefix under the aggregate provably resolves
    #: to the same egress either way.
    aggregate_overrides: bool = False
    #: Record a "keep" audit event for every standing override every
    #: cycle.  Full continuity for small tables; at full-table scale
    #: (tens of thousands of standing detours) this is O(standing) work
    #: per cycle whose entries the bounded trail immediately evicts, so
    #: large deployments turn it off and keep announce/withdraw/violation
    #: auditing only.
    audit_keep_events: bool = True
    #: Incremental cycle engine: when on, snapshots/projection/allocation
    #: apply route+rate deltas instead of re-deriving the full table
    #: every cycle.  Decisions are identical either way; turn it off
    #: (``--full-recompute``) to rule the fast path out while debugging.
    incremental_engine: bool = True
    #: Drift guard: every Nth cycle runs a full recompute regardless,
    #: rebuilding the projection from scratch and reconciling the
    #: incrementally-maintained loads against it.
    full_recompute_every: int = 16
    #: Collector resubscription: first retry after this many seconds of
    #: a stale route feed, then exponential backoff
    #: (``pipeline.RESUBSCRIBE_BACKOFF``).
    resubscribe_initial_seconds: float = 30.0
    #: Give up resubscribing (and raise an operator-facing gauge) after
    #: this many failed attempts; reset once the feed is healthy again.
    resubscribe_max_attempts: int = 6

    def __post_init__(self) -> None:
        if self.cycle_seconds <= 0:
            raise ControllerError("cycle_seconds must be positive")
        if not 0.0 < self.utilization_threshold <= 1.0:
            raise ControllerError(
                "utilization_threshold must be in (0, 1]"
            )
        if self.max_input_age_seconds <= 0:
            raise ControllerError("max_input_age_seconds must be positive")
        if self.perf_improvement_threshold_ms < 0:
            raise ControllerError(
                "perf_improvement_threshold_ms must be non-negative"
            )
        if (
            self.max_new_detours_per_cycle is not None
            and self.max_new_detours_per_cycle < 0
        ):
            raise ControllerError(
                "max_new_detours_per_cycle must be non-negative"
            )
        if self.fail_static_after_cycles < 1:
            raise ControllerError(
                "fail_static_after_cycles must be at least 1"
            )
        if self.full_recompute_every < 1:
            raise ControllerError(
                "full_recompute_every must be at least 1"
            )
        if self.resubscribe_initial_seconds <= 0:
            raise ControllerError(
                "resubscribe_initial_seconds must be positive"
            )
        if self.resubscribe_max_attempts < 1:
            raise ControllerError(
                "resubscribe_max_attempts must be at least 1"
            )
        if self.steering_trip_cycles < 1:
            raise ControllerError(
                "steering_trip_cycles must be at least 1"
            )
        if self.steering_recover_cycles < 1:
            raise ControllerError(
                "steering_recover_cycles must be at least 1"
            )
        if self.steering_yellow_recover_cycles < 1:
            raise ControllerError(
                "steering_yellow_recover_cycles must be at least 1"
            )
        if self.steering_votes_to_trip < 1:
            raise ControllerError(
                "steering_votes_to_trip must be at least 1"
            )
        if self.steering_warn_cycles < 1:
            raise ControllerError(
                "steering_warn_cycles must be at least 1"
            )
