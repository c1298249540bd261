"""In-memory spans for the benchmark's traced run.

A span records a name, start, end, the span that was open when it started
(its parent) and the operation (training step, batch or request) it belongs
to. Layer boundaries are traced by patching the name a calling module looks
up, for example ``cellformer.trainer.backward`` or ``cellformer.model.encode``,
so the program's own loops run unchanged. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, id, name, start, end=None, parent=None, op=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans and per-operation counts for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[tuple, float] = {}
        self.op = None
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._clock = clock

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._clock(), parent=parent, op=self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def discard(self, span: Span) -> None:
        """Drop the most recent span, still open and without children."""
        if not self._stack or self._stack[-1] is not span or self.spans[-1] is not span:
            raise RuntimeError(f"span {span.name!r} is not the latest open span")
        self.spans.pop()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, name: str, value) -> None:
        """Add to a count attributed to the current operation."""
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, count=None):
        """`fn` inside a span; `count(args, kwargs, result)` may return
        counts to add for the current operation."""

        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.add(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo_run = hi_run = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.id] = (s.end - s.start) - covered
    return out


def self_time_by_op(spans) -> dict:
    """op -> {span name: summed self time} over every span of that op."""
    own = self_times(spans)
    out: dict = {}
    for s in spans:
        per_op = out.setdefault(s.op, {})
        per_op[s.name] = per_op.get(s.name, 0.0) + own[s.id]
    return out
