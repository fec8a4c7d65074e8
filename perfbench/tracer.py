"""Outside-in span tracer: wraps functions where their callers look them up.

A traced function is replaced, in the namespace its caller reads it from, by a
wrapper that records one span (name, start, end, parent).  Spans stay in
memory until the run ends; `restore` puts every original attribute back.

A few functions are called so often (a thousand times per filter step) that a
span per call would dominate the trace.  Those are wrapped with `count`: the
wrapper adds its duration to a per-name counter and to the enclosing span's
child time, so self times stay exact without storing one span per call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Counter:
    __slots__ = ("calls", "total_s", "hits")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.hits = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counted_child_s: list[float] = []  # time of counted calls inside
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.counted_child_s.append(0.0)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        if not self._stack or self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def timed(self, name, fn, on_return=None, on_error=None):
        """fn wrapped in a span; `name` is a string or name(args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(i)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer.close(i)
            if on_return is not None:
                on_return(result, args)
            return result

        return traced

    def counted(self, name: str, fn):
        """fn wrapped in a counter; calls with a truthy result count as hits."""
        tracer = self
        counter = self.counters[name]
        clock = self.clock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            counter.calls += 1
            counter.total_s += dt
            counter.hits += bool(result)
            if tracer._stack:
                tracer.counted_child_s[tracer._stack[-1]] += dt
            return result

        return counted

    # --- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name, on_return=None, on_error=None):
        self.patch(owner, attr, self.timed(name, getattr(owner, attr),
                                           on_return, on_error))

    def count(self, owner, attr: str, name: str):
        self.patch(owner, attr, self.counted(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- analysis --------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus its child spans and counted calls."""
        if self._stack:
            raise RuntimeError("self times need every span closed")
        dur = self.durations()
        out = [d - c for d, c in zip(dur, self.counted_child_s)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, total seconds, total self seconds)."""
        acc: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, s in zip(self.names, self.durations(), self.self_times()):
            row = acc[name]
            row[0] += 1
            row[1] += d
            row[2] += s
        return {k: tuple(v) for k, v in acc.items()}

    def dump(self, path) -> None:
        """Write spans (name, start, end, parent, self) and counters as JSON."""
        t0 = min(self.start, default=0.0)
        spans = [[n, s - t0, e - t0, p, st] for n, s, e, p, st in
                 zip(self.names, self.start, self.end, self.parent,
                     self.self_times())]
        counters = {k: {"calls": c.calls, "total_s": c.total_s, "hits": c.hits}
                    for k, c in self.counters.items()}
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "self_s"],
                       "spans": spans, "counters": counters}, fh)
