"""Passive flow measurement aggregation.

Production Edge Fabric taps TCP state on the front-end servers (an
eBPF-style sampler) and aggregates per ⟨destination prefix, egress path⟩
performance.  This module is that aggregation layer: it ingests each
round's RTT / retransmit sample arrays and answers median-RTT and
retransmission-rate queries per key.

Layout: one index, prefix → session → :class:`_KeySamples`, whose two
arrays (``float64`` RTTs, ``bool_`` retransmit flags — 9 bytes a sample)
are preallocated and grown geometrically up to ``max_samples_per_key``.
A key's :class:`PathStats` is computed on first read after an append
and cached until the next append, so every reader in a cycle (steering,
the alt-path comparisons, ``stats``) shares one median per key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netbase.addr import Prefix
from ..netbase.errors import MeasurementError

__all__ = ["PathStats", "PassiveMonitor"]

#: First allocation per key, in samples (one default round fits).
_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class PathStats:
    """Aggregate statistics for one (prefix, path)."""

    prefix: Prefix
    session_name: str
    samples: int
    median_rtt_ms: float
    retransmit_rate: float


class _KeySamples:
    """One ⟨prefix, session⟩ key: retained samples plus cached stats."""

    __slots__ = ("rtts", "retx", "count", "stats")

    def __init__(self) -> None:
        self.rtts = np.empty(0, dtype=np.float64)
        self.retx = np.empty(0, dtype=np.bool_)
        self.count = 0
        self.stats: Optional[PathStats] = None


class PassiveMonitor:
    """Accumulates flow measurements per (prefix, egress session)."""

    def __init__(self, max_samples_per_key: int = 4096) -> None:
        if max_samples_per_key < 1:
            raise MeasurementError("need at least one sample per key")
        self.max_samples_per_key = max_samples_per_key
        self._index: Dict[Prefix, Dict[str, _KeySamples]] = {}
        self._keys = 0
        self._retained = 0
        #: Work counter: :class:`PathStats` computations (cache misses).
        self.stats_computed = 0

    def record(
        self,
        prefix: Prefix,
        session_name: str,
        rtts_ms: np.ndarray,
        retransmitted: np.ndarray,
    ) -> None:
        """Append one batch of flow samples (parallel arrays) to a key.

        Samples are retained as if appended one at a time under the
        drop-oldest-half rule: a sample arriving at a full key first
        recycles the oldest ``max(1, cap // 2)``.  Drops only ever take
        the oldest, so the batch form keeps the newest ``retain`` of
        (old + new) where ``retain`` is the length that rule ends on.
        """
        incoming = len(rtts_ms)
        if len(retransmitted) != incoming:
            raise MeasurementError("rtt and retransmit batches differ in length")
        sessions = self._index.setdefault(prefix, {})
        entry = sessions.get(session_name)
        if entry is None:
            entry = sessions[session_name] = _KeySamples()
            self._keys += 1
        if not incoming:
            return

        cap = self.max_samples_per_key
        held = entry.count
        retain = held + incoming
        if retain > cap:
            half = max(1, cap // 2)
            retain = cap - half + (retain - cap - 1) % half + 1
        new = min(incoming, retain)
        old = retain - new
        rtts, retx = entry.rtts, entry.retx
        if retain > len(rtts):
            capacity = min(
                cap, max(retain, 2 * len(rtts), _INITIAL_CAPACITY)
            )
            entry.rtts = np.empty(capacity, dtype=np.float64)
            entry.retx = np.empty(capacity, dtype=np.bool_)
        if old < held or entry.rtts is not rtts:
            # Survivors move to the front (numpy copies overlapping
            # slices as if through a temporary).
            entry.rtts[:old] = rtts[held - old : held]
            entry.retx[:old] = retx[held - old : held]
        entry.rtts[old:retain] = rtts_ms[incoming - new :]
        entry.retx[old:retain] = retransmitted[incoming - new :]
        entry.count = retain
        entry.stats = None
        self._retained += retain - held

    def _stats_of(
        self, prefix: Prefix, session_name: str, entry: _KeySamples
    ) -> Optional[PathStats]:
        stats = entry.stats
        if stats is None and entry.count:
            self.stats_computed += 1
            stats = entry.stats = PathStats(
                prefix=prefix,
                session_name=session_name,
                samples=entry.count,
                median_rtt_ms=float(np.median(entry.rtts[: entry.count])),
                retransmit_rate=float(np.mean(entry.retx[: entry.count])),
            )
        return stats

    def stats(self, prefix: Prefix, session_name: str) -> Optional[PathStats]:
        entry = self._index.get(prefix, {}).get(session_name)
        if entry is None:
            return None
        return self._stats_of(prefix, session_name, entry)

    def prefixes(self) -> List[Prefix]:
        return sorted(self._index)

    def paths_for(self, prefix: Prefix) -> List[str]:
        """Measured sessions of *prefix*, in first-recorded order."""
        return list(self._index.get(prefix, ()))

    def stats_for_prefix(self, prefix: Prefix) -> Dict[str, PathStats]:
        """Every measured path's stats for *prefix*, keyed by session.

        The closed-loop steering engine's per-cycle read: one index
        lookup per prefix, cached stats per key.
        """
        out: Dict[str, PathStats] = {}
        for name, entry in self._index.get(prefix, {}).items():
            stats = self._stats_of(prefix, name, entry)
            if stats is not None:
                out[name] = stats
        return out

    def size(self) -> Tuple[int, int]:
        """(keys, retained samples) — the store's declared-bound gauges.

        ``samples <= keys * max_samples_per_key`` always; keys grow with
        the distinct ⟨prefix, session⟩ pairs ever recorded.
        """
        return self._keys, self._retained

    def clear(self) -> None:
        self._index.clear()
        self._keys = 0
        self._retained = 0
