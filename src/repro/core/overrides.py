"""Override lifecycle: what is currently injected, and what must change.

The allocator produces a *desired* override set each cycle; this module
diffs it against what is currently injected, yielding the minimal set of
announcements and withdrawals for the injector, and tracks per-override
timing (which feeds the detour-duration evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..bgp.route import Route
from ..netbase.addr import Prefix
from ..netbase.units import Rate
from .allocator import Detour

__all__ = ["Override", "OverrideDiff", "OverrideSet"]


@dataclass(frozen=True)
class Override:
    """One active injected override."""

    prefix: Prefix
    target: Route
    rate_at_decision: Rate
    created_at: float

    @property
    def target_session(self) -> str:
        return self.target.source.name


@dataclass(frozen=True)
class OverrideDiff:
    """The injector's work order for one cycle."""

    announce: Tuple[Override, ...]
    withdraw: Tuple[Override, ...]
    keep: Tuple[Override, ...]

    @property
    def churn(self) -> int:
        """Routing changes this cycle (announcements + withdrawals)."""
        return len(self.announce) + len(self.withdraw)


class OverrideSet:
    """Currently-active overrides, with cycle-to-cycle diffing."""

    def __init__(self) -> None:
        self._active: Dict[Prefix, Override] = {}
        #: (prefix, session, started, ended) for every finished override.
        self.completed: List[Tuple[Prefix, str, float, float]] = []
        # active_targets() is read twice per cycle (stability input and
        # the aggregated install) but only changes on reconcile/flush;
        # cache the derived dict between mutations.
        self._targets_cache: Dict[Prefix, str] | None = None

    def active(self) -> Dict[Prefix, Override]:
        return dict(self._active)

    def active_targets(self) -> Dict[Prefix, str]:
        """prefix → target session name (the allocator's stability input).

        The returned dict is a cached snapshot — treat it as read-only.
        """
        if self._targets_cache is None:
            self._targets_cache = {
                prefix: override.target_session
                for prefix, override in self._active.items()
            }
        return self._targets_cache

    def __len__(self) -> int:
        return len(self._active)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._active

    def reconcile(
        self, desired: Dict[Prefix, Detour], now: float
    ) -> OverrideDiff:
        """Diff the desired detours against the active set and commit.

        A detour whose target changed counts as a withdraw + announce
        (the injector replaces the route); an unchanged one is kept with
        its original ``created_at`` so durations accumulate.
        """
        announce: List[Override] = []
        withdraw: List[Override] = []
        keep: List[Override] = []
        self._targets_cache = None

        for prefix, current in list(self._active.items()):
            wanted = desired.get(prefix)
            if wanted is None:
                withdraw.append(current)
                self.completed.append(
                    (prefix, current.target_session, current.created_at, now)
                )
                del self._active[prefix]
            elif wanted.target.source.name != current.target_session:
                withdraw.append(current)
                self.completed.append(
                    (prefix, current.target_session, current.created_at, now)
                )
                replacement = Override(
                    prefix=prefix,
                    target=wanted.target,
                    rate_at_decision=wanted.rate,
                    created_at=now,
                )
                self._active[prefix] = replacement
                announce.append(replacement)
            else:
                keep.append(current)

        for prefix, wanted in desired.items():
            if prefix not in self._active:
                override = Override(
                    prefix=prefix,
                    target=wanted.target,
                    rate_at_decision=wanted.rate,
                    created_at=now,
                )
                self._active[prefix] = override
                announce.append(override)

        return OverrideDiff(
            announce=tuple(announce),
            withdraw=tuple(withdraw),
            keep=tuple(keep),
        )

    def flush(self, now: float) -> List[Override]:
        """Withdraw everything (controller shutdown / failover drill)."""
        flushed = list(self._active.values())
        self._targets_cache = None
        for override in flushed:
            self.completed.append(
                (
                    override.prefix,
                    override.target_session,
                    override.created_at,
                    now,
                )
            )
        self._active.clear()
        return flushed

    def durations(self, now: float | None = None) -> List[float]:
        """Completed override durations (plus running ones if *now*)."""
        out = [ended - started for _p, _s, started, ended in self.completed]
        if now is not None:
            out.extend(
                now - override.created_at
                for override in self._active.values()
            )
        return out
