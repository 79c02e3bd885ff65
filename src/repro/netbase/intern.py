"""Dense integer interning for hot-path keys.

At full-table scale (~900k dual-stack prefixes) the controller's hot
state is dominated by dict lookups keyed on :class:`~.addr.Prefix`
objects and interface tuples.  An :class:`Interner` assigns each
distinct key a stable, dense integer id the first time it is seen, so
columnar state (:mod:`repro.sflow.estimator`, :mod:`repro.core.projection`)
can keep per-key values in flat arrays indexed by id instead of per-key
boxed floats.

Ids are never recycled: a key's id is valid for the interner's lifetime
even if the keyed state empties and refills, which is exactly what a
sliding-window estimator needs (a prefix that goes quiet and returns
keeps its slot).  Density makes ids directly usable as array indices;
``len(interner)`` is always the next id to be assigned.

Because ids index *external* arrays, wiping the id space out from under
a registered consumer silently corrupts every column it holds: old
arrays keep rows for retired ids while fresh keys reuse those ids with
unrelated meanings.  Consumers therefore *register* with the interner
(:meth:`Interner.register_consumer`); a bare :meth:`Interner.clear`
refuses to run while any consumer is registered, and :meth:`Interner.reset`
is the sanctioned replacement — it invalidates every consumer (each
callback drops its id-indexed state) before wiping the tables.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    TypeVar,
)

__all__ = ["Interner"]

K = TypeVar("K", bound=Hashable)


class Interner(Generic[K]):
    """Assigns stable dense integer ids to hashable keys.

    >>> interner = Interner()
    >>> interner.intern("a"), interner.intern("b"), interner.intern("a")
    (0, 1, 0)
    >>> interner.keys[1]
    'b'
    """

    __slots__ = ("_ids", "_keys", "_consumers", "generation")

    def __init__(self) -> None:
        self._ids: Dict[K, int] = {}
        self._keys: List[K] = []
        #: Invalidation callbacks of registered id consumers.
        self._consumers: List[Callable[[], None]] = []
        #: Bumped by every :meth:`reset`; consumers that cache ids
        #: outside registered columns can compare generations instead
        #: of registering a callback.
        self.generation = 0

    def intern(self, key: K) -> int:
        """The id for *key*, assigning the next dense id if unseen."""
        found = self._ids.get(key)
        if found is not None:
            return found
        assigned = len(self._keys)
        self._ids[key] = assigned
        self._keys.append(key)
        return assigned

    def id_of(self, key: K) -> Optional[int]:
        """The id for *key* if it has been interned, else None."""
        return self._ids.get(key)

    @property
    def keys(self) -> List[K]:
        """The id -> key table itself (treat as read-only)."""
        return self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: K) -> bool:
        return key in self._ids

    def __iter__(self) -> Iterator[K]:
        return iter(self._keys)

    # -- lifecycle -----------------------------------------------------------

    def register_consumer(self, invalidate: Callable[[], None]) -> None:
        """Register a holder of id-indexed state.

        *invalidate* is called (once per consumer, registration order)
        by :meth:`reset` before the id tables are wiped; it must drop or
        rebuild every structure indexed by this interner's ids.  While
        any consumer is registered, :meth:`clear` raises instead of
        silently corrupting those structures.
        """
        self._consumers.append(invalidate)

    def clear(self) -> None:
        """Wipe the id space; refused while consumers are registered.

        A consumer's arrays are indexed by the ids handed out so far —
        clearing underneath it would hand the same ids to unrelated
        keys.  Use :meth:`reset` to invalidate consumers first.
        """
        if self._consumers:
            raise RuntimeError(
                f"Interner.clear() with {len(self._consumers)} registered "
                "consumer(s) would corrupt their id-indexed state; call "
                "reset() instead (it invalidates consumers first)"
            )
        self._wipe()

    def reset(self) -> None:
        """Invalidate every registered consumer, then wipe the id space."""
        for invalidate in self._consumers:
            invalidate()
        self._wipe()

    def _wipe(self) -> None:
        self._ids.clear()
        self._keys.clear()
        self.generation += 1
