"""Closed-loop performance-aware steering: the GREEN/YELLOW/RED engine.

The paper's §5 pass is open-loop: every cycle it re-ranks the
alternate-path comparisons and detours whatever currently clears the
improvement threshold.  Deployed Edge Fabric moved past that
to *continuous* performance-aware steering, and this module is that
controller: a per-⟨prefix, preferred-path⟩ state machine in the mold of
closed-loop CAKE steering controllers —

- **Three tiers.**  GREEN (healthy, no action), YELLOW (early warning,
  explicitly *no* steering), RED (degradation confirmed, steer to the
  best measured alternate and hold it there).
- **Multi-signal voting.**  No single measurement toggles routing.  Each
  cycle three signals vote on the preferred path: the RTT EWMA against
  the best alternate's EWMA (user experience), the retransmit-rate EWMA
  delta (congestion confirmed), and the egress interface's measured
  utilization (queue pressure, early warning).  A cycle is *bad* only
  when ``steering_votes_to_trip`` signals agree; one dissenting signal
  alone yields YELLOW, never RED.
- **Asymmetric hysteresis.**  Fast to protect: ``steering_trip_cycles``
  consecutive bad cycles trip RED.  Deliberate to warn:
  ``steering_warn_cycles`` consecutive non-good cycles before GREEN
  even drops to YELLOW, so a single-cycle spike on one signal moves
  nothing.  Slow to recover:
  ``steering_recover_cycles`` consecutive good cycles — judged against
  *stricter* recovery thresholds (:data:`RECOVERY_FRACTION`) so a
  path hovering at the trip line cannot oscillate — are required before
  traffic returns.  A key that entered RED therefore cannot be GREEN
  again in fewer than ``steering_recover_cycles`` cycles, which is the
  dwell bound the hypothesis property suite asserts.

Every tier transition lands in the decision audit trail (so
``explain(prefix)`` names the signals that voted and why the tier
moved), in ``steering_transitions_total{from,to}``, and in a bounded
per-key timestamp ring that feeds the ``steering_flap`` health signal
and the chaos stability reports.  The engine is deterministic for a
given input sequence (iteration is sorted, ties break lexically), holds
no closures or live objects beyond its :class:`Telemetry` handle, and
pickles exactly like the health engine.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..dataplane.fib import egress_interface
from ..netbase.units import Rate
from ..obs.logs import get_logger, log_event
from .allocator import MIN_DETOUR_RATE, Detour

__all__ = [
    "TIER_GREEN",
    "TIER_YELLOW",
    "TIER_RED",
    "STEERING_TIERS",
    "SignalVote",
    "TierTransition",
    "PathHealth",
    "SteeringEngine",
    "RETX_DEGRADED",
    "QUEUE_UTILIZATION",
    "RECOVERY_FRACTION",
    "FLAP_WINDOW_CYCLES",
    "FLAP_BUDGET",
    "EWMA_ALPHA",
    "PERF_MOVES_PER_CYCLE",
    "MAX_KEYS",
]

_log = get_logger("repro.core.steering")

TIER_GREEN = "GREEN"
TIER_YELLOW = "YELLOW"
TIER_RED = "RED"
STEERING_TIERS: Tuple[str, ...] = (TIER_GREEN, TIER_YELLOW, TIER_RED)

#: Retransmit-rate excess (preferred minus best alternate) that counts
#: as a degraded-path vote.
RETX_DEGRADED = 0.02
#: Egress-interface utilization at which the queue signal votes bad
#: (early-warning pressure, below the overload threshold).
QUEUE_UTILIZATION = 0.92
#: While RED, the RTT/retransmit trip lines shrink to this fraction:
#: recovery demands clear health, not hovering at the trip line.
RECOVERY_FRACTION = 0.5
#: The window, in cycles, over which :data:`FLAP_BUDGET` tier
#: transitions per key are counted.
FLAP_WINDOW_CYCLES = 100
#: Flap accounting: a key exceeding this many tier transitions within
#: :data:`FLAP_WINDOW_CYCLES` cycles raises the ``steering_flap`` health
#: signal.  A key legitimately *tracking* repeated faults — trip,
#: 15-cycle recovery dwell, trip again, with a YELLOW round-trip per
#: episode — costs up to 6 transitions per 60-cycle chaos trial
#: (10/100).  12 keeps the gate quiet for fault-tracking while rates the
#: hysteresis should make impossible (YELLOW toggling every few cycles
#: reaches 50/100) still breach.
FLAP_BUDGET = 12
#: EWMA smoothing factor for the per-path RTT/retransmit estimates.
EWMA_ALPHA = 0.3
#: Cap on how many prefixes the perf-aware pass may move per cycle.
PERF_MOVES_PER_CYCLE = 50
#: Cap on tracked ⟨prefix, path⟩ keys (LRU-evicted beyond it).
MAX_KEYS = 4096

#: Per-cycle assessments the voting layer hands the state machine.
_BAD = "bad"
_WARN = "warn"
_GOOD = "good"


@dataclass(frozen=True)
class SignalVote:
    """One signal's verdict on a preferred path, one cycle."""

    signal: str  # "rtt" | "retransmit" | "queue"
    value: float
    threshold: float
    bad: bool

    def render(self) -> str:
        verdict = "BAD" if self.bad else "ok"
        return (
            f"{self.signal}={self.value:.3g}"
            f"{'>=' if self.bad else '<'}{self.threshold:.3g} {verdict}"
        )


@dataclass(frozen=True)
class TierTransition:
    """One tier change of one ⟨prefix, preferred-path⟩ key."""

    time: float
    prefix: str
    path: str  # the preferred session being judged
    from_tier: str
    to_tier: str
    votes: Tuple[SignalVote, ...]
    target_session: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "prefix": self.prefix,
            "path": self.path,
            "from_tier": self.from_tier,
            "to_tier": self.to_tier,
            "votes": [vote.render() for vote in self.votes],
            "target_session": self.target_session,
        }


@dataclass
class PathHealth:
    """Live closed-loop state for one ⟨prefix, preferred-path⟩ key."""

    prefix: str
    path: str
    tier: str = TIER_GREEN
    rtt_ewma_ms: Optional[float] = None
    retx_ewma: Optional[float] = None
    consecutive_bad: int = 0
    consecutive_good: int = 0
    #: Consecutive non-good cycles (bad or warn): feeds YELLOW entry.
    consecutive_warn: int = 0
    #: Cycle index at which the key last entered RED (dwell accounting).
    red_entered_cycle: Optional[int] = None
    #: Simulation times of every tier transition, bounded.
    transition_times: Deque[float] = field(
        default_factory=lambda: deque(maxlen=256)
    )
    transitions_total: int = 0
    last_votes: Tuple[SignalVote, ...] = ()
    #: The alternate session RED steering currently targets ("" in
    #: GREEN/YELLOW, or when RED found no viable alternate).
    target_session: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "prefix": self.prefix,
            "path": self.path,
            "tier": self.tier,
            "rtt_ewma_ms": self.rtt_ewma_ms,
            "retx_ewma": self.retx_ewma,
            "transitions_total": self.transitions_total,
            "target_session": self.target_session,
        }


class SteeringEngine:
    """The per-PoP closed loop over every measured ⟨prefix, path⟩."""

    def __init__(self, config, telemetry=None, seed: int = 0) -> None:
        self.config = config
        self.telemetry = telemetry
        #: Reserved for future probabilistic policies; every decision
        #: today is a pure function of the measurement sequence.
        self.seed = seed
        self.cycles = 0
        self._states: "OrderedDict[Tuple[str, str], PathHealth]" = (
            OrderedDict()
        )
        #: prefix → path of its one live key in ``_states``.
        self._path_of: Dict[str, str] = {}
        #: prefix → session → [rtt_ewma, retx_ewma] for alternates.
        self._alt_ewma: Dict[str, Dict[str, List[Optional[float]]]] = {}
        self.transitions: List[TierTransition] = []
        self._m_tier = None
        self._m_transitions = None
        if telemetry is not None:
            registry = telemetry.registry
            self._m_tier = registry.gauge(
                "steering_tier",
                "Tracked (prefix, path) keys per steering tier",
                ("tier",),
            )
            self._m_transitions = registry.counter(
                "steering_transitions_total",
                "Steering tier transitions",
                ("from_tier", "to_tier"),
            )

    # -- the per-cycle loop ----------------------------------------------------

    def run(
        self,
        now: float,
        detours: Dict,
        loads: Dict,
        inputs,
        altpath,
        pop,
        utilization_of=None,
    ) -> List[Detour]:
        """Observe one cycle's measurements and steer RED keys.

        Mutates *detours*/*loads* in place (the reconcile/inject path
        downstream sees one detour table) and returns the detours
        steering added.  *utilization_of* is the dataplane's
        per-interface utilization view, passed per call so the engine
        stays picklable; ``None`` makes the queue signal abstain.
        """
        self.cycles += 1
        monitor = altpath.monitor
        measured_ranks = altpath.policy.measured_ranks
        added: List[Detour] = []
        seen: set = set()

        for prefix in monitor.prefixes():
            routes = inputs.routes_of(prefix)
            if len(routes) < 2:
                continue
            preferred = routes[0]
            pref_session = preferred.source.name
            prefix_str = str(prefix)
            key = (prefix_str, pref_session)
            seen.add(key)
            stats_by_session = monitor.stats_for_prefix(prefix)
            pref_stats = stats_by_session.get(pref_session)
            if pref_stats is None:
                continue
            state = self._state_for(prefix_str, pref_session)
            state.rtt_ewma_ms = _ewma(
                state.rtt_ewma_ms, pref_stats.median_rtt_ms, EWMA_ALPHA
            )
            state.retx_ewma = _ewma(
                state.retx_ewma, pref_stats.retransmit_rate, EWMA_ALPHA
            )

            best = self._best_alternate(
                prefix_str, routes[1:measured_ranks], stats_by_session
            )
            if best is None:
                continue
            best_route, best_rtt, best_retx = best

            votes = self._vote(
                state, best_rtt, best_retx, preferred, pop,
                utilization_of,
            )
            state.last_votes = votes
            self._advance(now, state, votes)

            if state.tier != TIER_RED:
                state.target_session = ""
                continue
            state.target_session = best_route.source.name
            if len(added) >= PERF_MOVES_PER_CYCLE:
                continue
            detour = self._steer(
                prefix, preferred, best_route, detours, loads, inputs,
                pop,
            )
            if detour is not None:
                added.append(detour)

        self._prune(seen)
        self._export_tiers()
        return added

    # -- voting ----------------------------------------------------------------

    def _vote(
        self,
        state: PathHealth,
        best_alt_rtt: float,
        best_alt_retx: float,
        preferred,
        pop,
        utilization_of,
    ) -> Tuple[SignalVote, ...]:
        """The three signals' verdicts on *state*'s preferred path.

        While RED, the RTT/retransmit trip lines shrink by
        :data:`RECOVERY_FRACTION`: recovery demands the path be
        clearly healthy, not merely back under the line it tripped on.
        """
        config = self.config
        recovering = state.tier == TIER_RED
        fraction = RECOVERY_FRACTION if recovering else 1.0

        rtt_threshold = config.perf_improvement_threshold_ms * fraction
        rtt_delta = (state.rtt_ewma_ms or 0.0) - best_alt_rtt
        votes = [
            SignalVote(
                signal="rtt",
                value=rtt_delta,
                threshold=rtt_threshold,
                bad=rtt_delta >= rtt_threshold,
            )
        ]

        retx_threshold = RETX_DEGRADED * fraction
        retx_delta = (state.retx_ewma or 0.0) - best_alt_retx
        votes.append(
            SignalVote(
                signal="retransmit",
                value=retx_delta,
                threshold=retx_threshold,
                bad=retx_delta >= retx_threshold,
            )
        )

        if utilization_of is not None:
            utilization = utilization_of(
                egress_interface(pop, preferred)
            )
            votes.append(
                SignalVote(
                    signal="queue",
                    value=utilization,
                    threshold=QUEUE_UTILIZATION,
                    bad=utilization >= QUEUE_UTILIZATION,
                )
            )
        return tuple(votes)

    @staticmethod
    def assess(votes, votes_to_trip: int) -> str:
        """Fold one cycle's votes into bad / warn / good."""
        bad = sum(1 for vote in votes if vote.bad)
        if bad >= votes_to_trip:
            return _BAD
        if bad >= 1:
            return _WARN
        return _GOOD

    # -- the state machine -----------------------------------------------------

    def _advance(
        self, now: float, state: PathHealth, votes
    ) -> Optional[TierTransition]:
        """One hysteresis step; returns the transition if the tier moved."""
        config = self.config
        assessment = self.assess(votes, config.steering_votes_to_trip)
        tier = state.tier

        if assessment == _BAD:
            state.consecutive_bad += 1
            state.consecutive_good = 0
        elif assessment == _GOOD:
            state.consecutive_good += 1
            state.consecutive_bad = 0
        else:  # warn: breaks both streaks — neither protect nor recover
            state.consecutive_bad = 0
            state.consecutive_good = 0
        if assessment == _GOOD:
            state.consecutive_warn = 0
        else:
            state.consecutive_warn += 1

        target = tier
        if tier == TIER_RED:
            if state.consecutive_good >= config.steering_recover_cycles:
                target = TIER_GREEN
        else:
            if state.consecutive_bad >= config.steering_trip_cycles:
                target = TIER_RED
            elif (
                tier == TIER_GREEN
                and state.consecutive_warn
                >= config.steering_warn_cycles
            ):
                target = TIER_YELLOW
            elif (
                tier == TIER_YELLOW
                and state.consecutive_good
                >= config.steering_yellow_recover_cycles
            ):
                target = TIER_GREEN
        if target == tier:
            return None
        return self._transition(now, state, target)

    def _transition(
        self, now: float, state: PathHealth, target: str
    ) -> TierTransition:
        transition = TierTransition(
            time=now,
            prefix=state.prefix,
            path=state.path,
            from_tier=state.tier,
            to_tier=target,
            votes=state.last_votes,
            target_session=state.target_session,
        )
        if target == TIER_RED:
            state.red_entered_cycle = self.cycles
        # Streaks are owned by the per-cycle assessment in _advance, not
        # reset here: a GREEN -> YELLOW hop must not swallow the first
        # bad cycle, or RED would need trip_cycles + 1 bad cycles.
        state.tier = target
        state.transition_times.append(now)
        state.transitions_total += 1
        self.transitions.append(transition)
        if self._m_transitions is not None:
            self._m_transitions.labels(
                from_tier=transition.from_tier,
                to_tier=transition.to_tier,
            ).inc()
        if self.telemetry is not None:
            self.telemetry.audit.record_steering(
                now,
                state.prefix,
                transition.from_tier,
                transition.to_tier,
                votes=[vote.render() for vote in transition.votes],
                path=state.path,
            )
        log_event(
            _log,
            "steering.transition",
            time=now,
            prefix=state.prefix,
            path=state.path,
            from_tier=transition.from_tier,
            to_tier=transition.to_tier,
            votes=[vote.render() for vote in transition.votes],
        )
        return transition

    # -- steering action -------------------------------------------------------

    def _steer(
        self, prefix, preferred, target, detours, loads, inputs, pop
    ) -> Optional[Detour]:
        """Install a RED key's detour if the guards allow it."""
        config = self.config
        if prefix in detours:
            return None  # capacity detours take precedence
        rate = inputs.traffic.get(prefix)
        if rate is None or rate < MIN_DETOUR_RATE:
            return None
        from_key = egress_interface(pop, preferred)
        to_key = egress_interface(pop, target)
        if to_key == from_key:
            return None
        capacity = inputs.capacities.get(to_key)
        if capacity is None or capacity.is_zero():
            return None
        limit = (
            capacity.bits_per_second * config.utilization_threshold
        )
        projected = loads.get(to_key, Rate(0)).bits_per_second
        if projected + rate.bits_per_second > limit:
            return None
        detour = Detour(
            prefix=prefix,
            rate=rate,
            preferred=preferred,
            target=target,
            from_interface=from_key,
            to_interface=to_key,
        )
        detours[prefix] = detour
        loads[from_key] = loads.get(from_key, Rate(0)) - rate
        loads[to_key] = loads.get(to_key, Rate(0)) + rate
        return detour

    # -- bookkeeping -----------------------------------------------------------

    def _state_for(self, prefix: str, path: str) -> PathHealth:
        key = (prefix, path)
        state = self._states.get(key)
        if state is None:
            # A new preferred path for a known prefix means routing
            # changed underneath the loop: the old key's judgement does
            # not transfer, so it is dropped and the new one starts
            # GREEN.
            stale = self._path_of.get(prefix)
            if stale is not None:
                del self._states[(prefix, stale)]
            if len(self._states) >= MAX_KEYS:
                evicted, _state = self._states.popitem(last=False)
                del self._path_of[evicted[0]]
            state = PathHealth(prefix=prefix, path=path)
            self._states[key] = state
            self._path_of[prefix] = path
        else:
            self._states.move_to_end(key)
        return state

    def _best_alternate(self, prefix_str, alternates, stats_by_session):
        """Lowest-RTT measured alternate, EWMA-smoothed; None without data."""
        best = None
        slots = self._alt_ewma.setdefault(prefix_str, {})
        for route in alternates:
            session = route.source.name
            stats = stats_by_session.get(session)
            if stats is None:
                continue
            slot = slots.setdefault(session, [None, None])
            slot[0] = _ewma(slot[0], stats.median_rtt_ms, EWMA_ALPHA)
            slot[1] = _ewma(slot[1], stats.retransmit_rate, EWMA_ALPHA)
            candidate = (slot[0], session, route, slot[1])
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        if best is None:
            return None
        return best[2], best[0], best[3]

    def _prune(self, seen) -> None:
        """Drop keys that no longer have routes or measurements."""
        for key in [k for k in self._states if k not in seen]:
            del self._states[key]
            del self._path_of[key[0]]
            self._alt_ewma.pop(key[0], None)

    def _export_tiers(self) -> None:
        if self._m_tier is None:
            return
        counts = self.tier_counts()
        for tier in STEERING_TIERS:
            self._m_tier.labels(tier=tier).set(counts[tier])

    def reset(self) -> None:
        """Forget every key (controller crash: in-memory state is lost)."""
        self._states.clear()
        self._path_of.clear()
        self._alt_ewma.clear()
        self.transitions = []
        self.cycles = 0
        self._export_tiers()

    # -- queries ---------------------------------------------------------------

    def states(self) -> List[PathHealth]:
        return list(self._states.values())

    def state_of(self, prefix, path: str) -> Optional[PathHealth]:
        return self._states.get((str(prefix), path))

    def tier_counts(self) -> Dict[str, int]:
        counts = {tier: 0 for tier in STEERING_TIERS}
        for state in self._states.values():
            counts[state.tier] += 1
        return counts

    def flap_signal(self, now: float) -> float:
        """1.0 when any key burned its transition budget in the window.

        The window is :data:`FLAP_WINDOW_CYCLES` × the cycle period and
        the budget is :data:`FLAP_BUDGET` transitions,
        making this the ``override_flap``-compatible signal the health
        engine samples.
        """
        window = FLAP_WINDOW_CYCLES * self.config.cycle_seconds
        edge = now - window
        budget = FLAP_BUDGET
        for state in self._states.values():
            recent = sum(
                1 for time in state.transition_times if time >= edge
            )
            if recent > budget:
                return 1.0
        return 0.0

    def flap_rates(self) -> Dict[Tuple[str, str], float]:
        """Whole-run transitions per 100 observed cycles, per key."""
        cycles = max(self.cycles, 1)
        return {
            key: state.transitions_total * 100.0 / cycles
            for key, state in self._states.items()
        }

    def summary(self) -> Dict[str, object]:
        """Picklable roll-up for chaos/stability reports."""
        return {
            "cycles": self.cycles,
            "keys": len(self._states),
            "tier_counts": self.tier_counts(),
            "transitions_total": len(self.transitions),
            "transitions": [t.to_dict() for t in self.transitions],
        }


def _ewma(
    previous: Optional[float], sample: float, alpha: float
) -> float:
    if previous is None:
        return float(sample)
    return alpha * float(sample) + (1.0 - alpha) * previous
