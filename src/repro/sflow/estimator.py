"""Windowed traffic-rate estimation from scaled samples.

The collector turns samples into byte estimates; this module turns byte
estimates into *rates* over a sliding window (the paper's controller uses
an average over roughly the last minute of traffic, long enough to smooth
sampling noise, short enough to track demand shifts).

Every derived statistic is defensive about empty or single-sample
windows: a fault that starves the collector for an interval (datagram
loss, an agent flap) must read as "rate 0, no samples", never as a
``ZeroDivisionError`` inside the controller's input path.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from ..netbase.intern import Interner
from ..netbase.units import Rate

__all__ = ["RateEstimator", "ColumnarRateEstimator", "WindowStats"]

K = TypeVar("K", bound=Hashable)

#: Sentinel for "no changed_keys() call has happened yet".
_NEVER = float("-inf")

#: Cap on the change log.  Without a consumer (nobody calls
#: :meth:`RateEstimator.changed_keys`) the log would grow with every
#: add; overflowing clears it and parks ``changed_keys`` on "unknown"
#: until the dropped history has aged out of every possible window.
DEFAULT_CHANGE_LOG_LIMIT = 262_144

#: Running sum of an empty window: (total, compensation).
_EMPTY = (0.0, 0.0)


def _accumulate(
    total: float, error: float, value: float
) -> Tuple[float, float]:
    """One Neumaier compensated-summation step.

    A window's byte total is a running sum: samples are added as they
    arrive and subtracted as they expire.  Kept as a bare float, a large
    sample leaving a window that still holds small ones would leave
    the rounding error of the large add behind as most of what remains.
    ``error`` carries the low-order bits each add rounded away, so
    ``total + error`` tracks the exact sum of the in-window samples.
    When every add is exact, ``error`` stays ``0.0`` and the running
    total is what plain addition gives.
    """
    result = total + value
    if abs(total) >= abs(value):
        error += (total - result) + value
    else:
        error += (value - result) + total
    return result, error


@dataclass(frozen=True)
class WindowStats:
    """Diagnostics for one key's current estimation window.

    All fields degrade to zero rather than raising: an empty window has
    no samples, no bytes, zero rate, zero span and zero gap; a
    single-sample window has a defined rate but no gap to average.
    """

    samples: int
    total_bytes: float
    window_rate: Rate
    #: Seconds between the oldest and newest in-window sample.
    observed_span: float
    #: Mean seconds between consecutive samples (0.0 below 2 samples).
    mean_sample_gap: float

    @property
    def empty(self) -> bool:
        return self.samples == 0


class RateEstimator(Generic[K]):
    """Sliding-window byte-rate estimator keyed by an arbitrary key.

    ``add(key, byte_count, now)`` records an estimate; ``rate(key, now)``
    returns bytes-in-window / window as a :class:`Rate` (bits/second).
    """

    def __init__(
        self,
        window_seconds: float = 60.0,
        change_log_limit: int = DEFAULT_CHANGE_LOG_LIMIT,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        self.window_seconds = window_seconds
        self._log_limit = change_log_limit
        self._events: Dict[K, Deque[Tuple[float, float]]] = defaultdict(deque)
        #: Per-key running byte sum as (total, compensation); see
        #: :func:`_accumulate`.
        self._totals: Dict[K, Tuple[float, float]] = {}
        #: When the most recent sample (for any key) was recorded.
        self.last_add_at: Optional[float] = None
        # Change-detection state: every add appends (ts, key) to a
        # global log, so "which keys' rates may differ between two
        # instants" is answerable without touching unchanged keys — a
        # key changes either by gaining a sample (log tail) or by a
        # sample sliding out of the window (log head).  The log is only
        # sound while adds arrive in non-decreasing time order; an
        # out-of-order add flips ``_log_ordered`` and changed_keys()
        # reports "unknown" until clear().
        self._add_log: Deque[Tuple[float, K]] = deque()
        self._changed_watermark: float = _NEVER
        self._log_ordered: bool = True
        self._log_dropped_until: float = _NEVER

    def add(self, key: K, byte_count: float, now: float) -> None:
        if byte_count < 0:
            raise ValueError("byte count cannot be negative")
        self._expire(key, now)
        self._events[key].append((now, byte_count))
        total, error = self._totals.get(key, _EMPTY)
        self._totals[key] = _accumulate(total, error, byte_count)
        if self.last_add_at is None or now >= self.last_add_at:
            self.last_add_at = now
        else:
            self._log_ordered = False
        log = self._add_log
        log.append((now, key))
        # Trim what no reader can need: the single consumer only ever
        # asks about instants at or after its watermark, so entries
        # expired out of every window ending there are dead weight.
        floor = self._changed_watermark - self.window_seconds
        while log and log[0][0] <= floor:
            log.popleft()
        if len(log) > self._log_limit:
            # No consumer is draining the log; stop carrying history
            # and park changed_keys() on "unknown" until the dropped
            # span has aged out of every possible window.
            self._log_dropped_until = log[-1][0]
            log.clear()

    def _expire(self, key: K, now: float) -> None:
        horizon = now - self.window_seconds
        events = self._events[key]
        total, error = self._totals.get(key, _EMPTY)
        while events and events[0][0] <= horizon:
            _ts, stale = events.popleft()
            total, error = _accumulate(total, error, -stale)
        if events:
            self._totals[key] = (total, error)
        else:
            del self._events[key]
            self._totals.pop(key, None)

    def _window_bytes(self, key: K) -> float:
        total, error = self._totals.get(key, _EMPTY)
        return max(0.0, total + error)

    def rate(self, key: K, now: float) -> Rate:
        """Estimated rate for *key* over the window ending at *now*."""
        if key in self._events:
            self._expire(key, now)
        total_bytes = self._window_bytes(key)
        return Rate(total_bytes * 8.0 / self.window_seconds)

    def window_stats(self, key: K, now: float) -> WindowStats:
        """Diagnostics for *key*'s window; safe on empty windows."""
        if key in self._events:
            self._expire(key, now)
        events = self._events.get(key)
        if not events:
            return WindowStats(
                samples=0,
                total_bytes=0.0,
                window_rate=Rate(0),
                observed_span=0.0,
                mean_sample_gap=0.0,
            )
        count = len(events)
        span = events[-1][0] - events[0][0]
        # One sample spans no time; a mean gap over zero intervals is
        # undefined, so both degrade to 0.0 rather than dividing.
        gap = span / (count - 1) if count > 1 else 0.0
        total = self._window_bytes(key)
        return WindowStats(
            samples=count,
            total_bytes=total,
            window_rate=Rate(total * 8.0 / self.window_seconds),
            observed_span=span,
            mean_sample_gap=gap,
        )

    def age(self, now: float) -> float:
        """Seconds since *any* sample arrived (inf before the first)."""
        if self.last_add_at is None:
            return float("inf")
        return max(0.0, now - self.last_add_at)

    def keys(self) -> Iterator[K]:
        """Live iterator over keys with in-window samples (no copy).

        The view is backed by the estimator's own dict: don't call
        ``add``/``rate``/``rates`` while consuming it.  Callers that need
        a stable snapshot should materialize it themselves.
        """
        return iter(self._events.keys())

    def __len__(self) -> int:
        """Number of keys currently holding in-window samples."""
        return len(self._events)

    def __contains__(self, key: K) -> bool:
        return key in self._events

    def rates(self, now: float) -> Dict[K, Rate]:
        """Snapshot of every key's current rate (zero-rate keys dropped)."""
        # Expiry is inlined (rather than per-key rate() calls) so the
        # snapshot never copies the key list: emptied keys are collected
        # and deleted after the pass, because deleting during iteration
        # would invalidate the dict view.  The arithmetic mirrors
        # _expire() and _window_bytes() exactly — same pops, same
        # compensated steps, same clamp — so the floats are
        # bit-identical to the per-key path.
        horizon = now - self.window_seconds
        window = self.window_seconds
        out: Dict[K, Rate] = {}
        dead = []
        for key, events in self._events.items():
            total, error = self._totals[key]
            if events[0][0] <= horizon:
                while events and events[0][0] <= horizon:
                    _ts, stale = events.popleft()
                    total, error = _accumulate(total, error, -stale)
                if not events:
                    dead.append(key)
                    continue
                self._totals[key] = (total, error)
            value = Rate(max(0.0, total + error) * 8.0 / window)
            if not value.is_zero():
                out[key] = value
        for key in dead:
            del self._events[key]
            del self._totals[key]
        return out

    def changed_keys(self, since: float, now: float) -> Optional[Set[K]]:
        """Keys whose rate at *now* may differ from their rate at *since*.

        A key is reported when it gained a sample in ``(since, now]`` or
        lost one to window expiry — a sample with timestamp in
        ``(since - window, now - window]`` (matching :meth:`_expire`'s
        ``<= horizon`` boundary exactly).  The set is conservative: a
        reported key's rate may happen to be unchanged, but an
        unreported key's rate is guaranteed identical.

        Returns ``None`` when the answer can't be computed without a
        full pass: the log is consumed destructively at its head, so
        only a single reader advancing monotonically is supported
        (*since* must be ≥ the previous call's *now*), and adds must
        have arrived in time order.
        """
        if now < since:
            raise ValueError("change window runs backwards")
        if (
            not self._log_ordered
            or since < self._changed_watermark
            or since - self.window_seconds <= self._log_dropped_until
        ):
            return None
        changed: Set[K] = set()
        log = self._add_log
        horizon = now - self.window_seconds
        since_horizon = since - self.window_seconds
        # Head: samples expired out of every possible window ending at
        # or before *now*; those still in the window at *since* changed
        # their key's rate by leaving.
        while log and log[0][0] <= horizon:
            ts, key = log.popleft()
            if ts > since_horizon:
                changed.add(key)
        # Tail: samples added after *since*.
        for ts, key in reversed(log):
            if ts <= since:
                break
            changed.add(key)
        self._changed_watermark = now
        return changed

    def clear(self) -> None:
        self._events.clear()
        self._totals.clear()
        self.last_add_at = None
        self._add_log.clear()
        self._changed_watermark = _NEVER
        self._log_ordered = True
        self._log_dropped_until = _NEVER


class ColumnarRateEstimator(Generic[K]):
    """Array-backed :class:`RateEstimator`, bit-for-bit compatible.

    Keys are interned into dense slots (:class:`~repro.netbase.intern.Interner`)
    and per-key running totals (with their :func:`_accumulate`
    compensation) live in numpy float64 columns instead of a dict of
    boxed floats; a parallel ``_oldest`` column holds each
    slot's oldest in-window sample timestamp (``inf`` for slots with no
    in-window samples), so the bulk :meth:`rates` snapshot finds the
    slots needing expiry with one vectorized comparison and computes all
    rates with one vectorized multiply-divide, instead of touching every
    key in Python.  At full-table scale (~700k prefixes) this turns the
    steady-state snapshot from the dominant per-cycle cost into noise.

    Parity is a hard contract, enforced property-style by the test
    suite: every observable — rates, window stats, ``changed_keys``
    (including the change-log overflow and out-of-order degradation
    paths), lengths, membership — is bit-identical to the dict
    implementation over any add/expire/query sequence, because the
    per-slot arithmetic performs the exact same sequence of IEEE double
    operations (element-wise numpy float64 math is the same operation
    as the Python float math it replaces).  Numpy scalars never escape:
    values are converted to Python floats at every API boundary so
    reprs, JSON encodings and hash behaviour stay identical.

    The one intentional difference is iteration *order*: a key that
    empties and later gains samples keeps its slot (the dict
    implementation re-inserts it at the end), so :meth:`keys` and
    :meth:`rates` enumerate in first-ever-seen order, not
    most-recently-revived order.  No consumer depends on either order;
    parity tests compare by dict equality.
    """

    #: Initial slot capacity; columns double on demand.
    _INITIAL_CAPACITY = 1024

    def __init__(
        self,
        window_seconds: float = 60.0,
        change_log_limit: int = DEFAULT_CHANGE_LOG_LIMIT,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError("window must be positive")
        self.window_seconds = window_seconds
        self._log_limit = change_log_limit
        self._slots: Interner[K] = Interner()
        # The columns below are indexed by the interner's ids, so the
        # estimator registers as a consumer: wiping the id space goes
        # through reset(), which drops the columns first (a bare
        # Interner.clear() would raise rather than let stale rows pair
        # with recycled ids).
        self._slots.register_consumer(self._invalidate_columns)
        self._totals = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._errors = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._oldest = np.full(
            self._INITIAL_CAPACITY, np.inf, dtype=np.float64
        )
        #: Per-slot event deques, parallel to the interner's id space.
        self._events: List[Deque[Tuple[float, float]]] = []
        #: Count of slots currently holding in-window samples.
        self._live = 0
        self.last_add_at: Optional[float] = None
        # Change-detection state: identical machinery to RateEstimator
        # (see its field comments); the log stores keys, not slots, so
        # changed_keys() returns the same sets.
        self._add_log: Deque[Tuple[float, K]] = deque()
        self._changed_watermark: float = _NEVER
        self._log_ordered: bool = True
        self._log_dropped_until: float = _NEVER

    def _slot_for(self, key: K) -> int:
        slot = self._slots.intern(key)
        if slot == len(self._events):
            self._events.append(deque())
            if slot == len(self._totals):
                grown = len(self._totals) * 2
                totals = np.zeros(grown, dtype=np.float64)
                totals[:slot] = self._totals
                errors = np.zeros(grown, dtype=np.float64)
                errors[:slot] = self._errors
                oldest = np.full(grown, np.inf, dtype=np.float64)
                oldest[:slot] = self._oldest
                self._totals = totals
                self._errors = errors
                self._oldest = oldest
        return slot

    def add(self, key: K, byte_count: float, now: float) -> None:
        if byte_count < 0:
            raise ValueError("byte count cannot be negative")
        slot = self._slot_for(key)
        self._expire_slot(slot, now - self.window_seconds)
        events = self._events[slot]
        if not events:
            self._live += 1
        events.append((now, byte_count))
        self._oldest[slot] = events[0][0]
        total, error = _accumulate(
            self._totals[slot].item(), self._errors[slot].item(), byte_count
        )
        self._totals[slot] = total
        self._errors[slot] = error
        if self.last_add_at is None or now >= self.last_add_at:
            self.last_add_at = now
        else:
            self._log_ordered = False
        log = self._add_log
        log.append((now, key))
        floor = self._changed_watermark - self.window_seconds
        while log and log[0][0] <= floor:
            log.popleft()
        if len(log) > self._log_limit:
            self._log_dropped_until = log[-1][0]
            log.clear()

    def _expire_slot(self, slot: int, horizon: float) -> None:
        """Mirror of :meth:`RateEstimator._expire`: same pops, same
        compensated steps, so totals stay bit-identical."""
        events = self._events[slot]
        if not events or events[0][0] > horizon:
            return
        total = self._totals[slot].item()
        error = self._errors[slot].item()
        while events and events[0][0] <= horizon:
            _ts, stale = events.popleft()
            total, error = _accumulate(total, error, -stale)
        if events:
            self._totals[slot] = total
            self._errors[slot] = error
            self._oldest[slot] = events[0][0]
        else:
            self._totals[slot] = 0.0
            self._errors[slot] = 0.0
            self._oldest[slot] = np.inf
            self._live -= 1

    def _window_bytes(self, slot: int) -> float:
        total = self._totals[slot].item() + self._errors[slot].item()
        return max(0.0, total)

    def rate(self, key: K, now: float) -> Rate:
        """Estimated rate for *key* over the window ending at *now*."""
        slot = self._slots.id_of(key)
        if slot is None or slot >= len(self._events):
            return Rate(0.0)
        self._expire_slot(slot, now - self.window_seconds)
        total = self._window_bytes(slot)
        return Rate(total * 8.0 / self.window_seconds)

    def window_stats(self, key: K, now: float) -> WindowStats:
        """Diagnostics for *key*'s window; safe on empty windows."""
        slot = self._slots.id_of(key)
        if slot is not None and slot < len(self._events):
            self._expire_slot(slot, now - self.window_seconds)
            events = self._events[slot]
        else:
            events = None
        if not events:
            return WindowStats(
                samples=0,
                total_bytes=0.0,
                window_rate=Rate(0),
                observed_span=0.0,
                mean_sample_gap=0.0,
            )
        count = len(events)
        span = events[-1][0] - events[0][0]
        gap = span / (count - 1) if count > 1 else 0.0
        total = self._window_bytes(slot)  # type: ignore[arg-type]
        return WindowStats(
            samples=count,
            total_bytes=total,
            window_rate=Rate(total * 8.0 / self.window_seconds),
            observed_span=span,
            mean_sample_gap=gap,
        )

    def age(self, now: float) -> float:
        """Seconds since *any* sample arrived (inf before the first)."""
        if self.last_add_at is None:
            return float("inf")
        return max(0.0, now - self.last_add_at)

    def keys(self) -> Iterator[K]:
        """Live iterator over keys with in-window samples (no copy)."""
        table = self._slots.keys
        return (
            table[slot]
            for slot, events in enumerate(self._events)
            if events
        )

    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: K) -> bool:
        slot = self._slots.id_of(key)
        return (
            slot is not None
            and slot < len(self._events)
            and bool(self._events[slot])
        )

    def rates(self, now: float) -> Dict[K, Rate]:
        """Snapshot of every key's current rate (zero-rate keys dropped).

        The vectorized twin of :meth:`RateEstimator.rates`: one
        comparison over the ``_oldest`` column finds the slots with
        anything to expire (Python-loop expiry on just those slots keeps
        the subtraction order, hence the bits, identical), then one
        ``(max(totals + errors, 0) * 8.0) / window`` computes every rate
        at once.
        """
        window = self.window_seconds
        horizon = now - window
        count = len(self._events)
        out: Dict[K, Rate] = {}
        if count == 0:
            return out
        oldest = self._oldest[:count]
        for slot in np.nonzero(oldest <= horizon)[0].tolist():
            self._expire_slot(slot, horizon)
        totals = self._totals[:count] + self._errors[:count]
        values = (np.maximum(totals, 0.0) * 8.0) / window
        # `oldest` is a view, so the expiry pass above already flipped
        # emptied slots to inf; the mask below skips them.
        live = np.nonzero(np.isfinite(oldest) & (values != 0.0))[0]
        table = self._slots.keys
        unboxed = values.tolist()
        for slot in live.tolist():
            out[table[slot]] = Rate(unboxed[slot])
        return out

    def changed_keys(self, since: float, now: float) -> Optional[Set[K]]:
        """Identical contract and arithmetic to
        :meth:`RateEstimator.changed_keys`."""
        if now < since:
            raise ValueError("change window runs backwards")
        if (
            not self._log_ordered
            or since < self._changed_watermark
            or since - self.window_seconds <= self._log_dropped_until
        ):
            return None
        changed: Set[K] = set()
        log = self._add_log
        horizon = now - self.window_seconds
        since_horizon = since - self.window_seconds
        while log and log[0][0] <= horizon:
            ts, key = log.popleft()
            if ts > since_horizon:
                changed.add(key)
        for ts, key in reversed(log):
            if ts <= since:
                break
            changed.add(key)
        self._changed_watermark = now
        return changed

    def _invalidate_columns(self) -> None:
        """Drop every id-indexed structure (interner consumer hook)."""
        self._totals = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._errors = np.zeros(self._INITIAL_CAPACITY, dtype=np.float64)
        self._oldest = np.full(
            self._INITIAL_CAPACITY, np.inf, dtype=np.float64
        )
        self._events.clear()
        self._live = 0

    def clear(self) -> None:
        # reset() invalidates this estimator's columns via the consumer
        # hook before wiping the id space, keeping ids and rows in step.
        self._slots.reset()
        self.last_add_at = None
        self._add_log.clear()
        self._changed_watermark = _NEVER
        self._log_ordered = True
        self._log_dropped_until = _NEVER
