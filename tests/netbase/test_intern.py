"""Interner contract: dense stable ids, and the clear()/reset() guard.

The ids hand-indexed into external arrays are the whole point of the
interner, so the lifecycle tests here are load-bearing: a ``clear()``
that ran while a columnar consumer held id-indexed arrays would hand
recycled ids to unrelated keys and silently corrupt every column.
"""

import pytest

from repro.netbase.intern import Interner


class TestDenseIds:
    def test_ids_are_dense_and_stable(self):
        interner = Interner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert len(interner) == 2

    def test_lookup_api(self):
        interner = Interner()
        interner.intern("k")
        assert interner.keys[0] == "k"
        assert interner.id_of("missing") is None
        assert "k" in interner
        assert list(interner) == ["k"]


class TestLifecycleGuard:
    def test_clear_without_consumers_wipes(self):
        interner = Interner()
        interner.intern("a")
        interner.clear()
        assert len(interner) == 0
        assert interner.id_of("a") is None

    def test_clear_with_consumer_raises(self):
        interner = Interner()
        interner.register_consumer(lambda: None)
        interner.intern("a")
        with pytest.raises(RuntimeError, match="reset\\(\\) instead"):
            interner.clear()
        # The refused clear must not have touched the id space.
        assert interner.id_of("a") == 0

    def test_reset_invalidates_consumers_before_wiping(self):
        interner = Interner()
        seen = []
        # The callback observes the interner mid-reset: ids must still
        # be intact when consumers are told to drop their columns.
        interner.register_consumer(lambda: seen.append(len(interner)))
        interner.intern("a")
        interner.intern("b")
        interner.reset()
        assert seen == [2]
        assert len(interner) == 0

    def test_reset_calls_consumers_in_registration_order(self):
        interner = Interner()
        order = []
        interner.register_consumer(lambda: order.append("first"))
        interner.register_consumer(lambda: order.append("second"))
        interner.reset()
        assert order == ["first", "second"]

    def test_generation_bumps_on_wipe_only(self):
        interner = Interner()
        assert interner.generation == 0
        interner.intern("a")
        assert interner.generation == 0
        interner.reset()
        assert interner.generation == 1
        interner.clear()
        assert interner.generation == 2
