"""In-memory span recorder for the traced run.

Spans come from outside the program: the harness interposes a timing
wrapper on a public method of an instance it built (or, for the lazily
created projection, of the class) and the wrapper records
``{name, tick, start, end, parent}``.  Nothing is written until the run
ends (:meth:`Tracer.write_jsonl`).  A span's self time is its duration
minus its direct children's (:func:`self_times`).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (name, tick, start, end, parent index or -1, attrs or None)
Span = Tuple[str, int, float, float, int, Optional[dict]]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._tick = -1
        self._patched_classes: set = set()

    # -- explicit spans (the harness's own calls) -----------------------------

    def open(self, name: str, tick: int) -> None:
        """Start the root span of *tick*; wrapped calls nest under it."""
        self._tick = tick
        self._stack.append(len(self.spans))
        self.spans.append((name, tick, 0.0, 0.0, -1, None))

    def close(self, start: float, end: float) -> None:
        """End the open root span with the harness's own clock readings,
        so the root is exactly the interval the untraced run times."""
        index = self._stack.pop()
        name, tick, _, _, parent, attrs = self.spans[index]
        self.spans[index] = (name, tick, start, end, parent, attrs)

    def add(self, name: str, tick: int, start: float, end: float) -> None:
        """A finished span outside any tick (codec replays)."""
        self.spans.append((name, tick, start, end, -1, None))

    # -- interposed spans -----------------------------------------------------

    def _traced(
        self,
        inner: Callable,
        name: str,
        attrs: Optional[Callable[[object], dict]],
    ) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, self._tick, start, end, parent, None)
            if attrs is not None:
                spans[index] = spans[index][:5] + (attrs(result),)
            return result

        return traced

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Optional[Callable[[object], dict]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called *name*."""
        setattr(owner, attr, self._traced(getattr(owner, attr), name, attrs))

    def wrap_class(self, cls: type, attr: str, name: str) -> None:
        """:meth:`wrap` for a method of instances created later; patched
        once however many stacks one process sets up."""
        if (cls, attr) not in self._patched_classes:
            self._patched_classes.add((cls, attr))
            self.wrap(cls, attr, name)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            for name, tick, start, end, parent, attrs in self.spans:
                row = {
                    "name": name,
                    "tick": tick,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                if attrs:
                    row.update(attrs)
                handle.write(json.dumps(row) + "\n")
        return len(self.spans)


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus its direct children's durations."""
    own = [end - start for _n, _t, start, end, _p, _a in spans]
    for _name, _tick, start, end, parent, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_tick(
    spans: List[Span], values: List[float], first_tick: int = 0
) -> Dict[str, Dict[int, float]]:
    """Sum *values* (one per span) by span name and tick, for ticks at
    or after *first_tick*: ``{name: {tick: total}}``."""
    out: Dict[str, Dict[int, float]] = {}
    for (name, tick, *_rest), value in zip(spans, values):
        if tick >= first_tick:
            by_tick = out.setdefault(name, {})
            by_tick[tick] = by_tick.get(tick, 0.0) + value
    return out
