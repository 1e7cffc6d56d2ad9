"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces chosen module attributes with wrappers that record
one span per call: op id, name, start, end and the index of the enclosing
span.  Every span of one op shares the op id.  Spans stay in memory until the
run ends.  The clock is ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so spans recorded by a child interpreter line up
with the parent's.

Span names are ``<layer>.<function>``; the layer is the parascale module the
function belongs to, or ``bench`` for the op's root span.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "bench.op"

#: Prefix of the stderr line on which a traced child reports its spans.
TRACE_MARKER = "BENCH_TRACE "


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []    # [op, name, start, end, parent]
        self.ops: list[tuple[str, str]] = []   # op id -> (workload, label)
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, workload: str, label: str):
        """Root span of one op; spans opened inside it belong to the op."""
        self._op = len(self.ops)
        self.ops.append((workload, label))
        index = self._open(ROOT_SPAN)
        try:
            yield self._op
        finally:
            self._close(index)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span the caller timed itself, under the open span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, name, start, end, parent])

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name)`` targets; restore on exit."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in targets]
        try:
            for module, attr, name in targets:
                setattr(module, attr, self.wrap(getattr(module, attr), name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def graft(self, child_spans: list[list]) -> None:
        """Append spans recorded by a child interpreter under the open span.

        Child span parents index into ``child_spans``; -1 means the child's
        top level, which becomes the currently open span here.
        """
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent in child_spans:
            self.spans.append([self._op, name, start, end,
                               top if parent < 0 else base + parent])


def self_seconds_by_layer(spans, first: int = 0) -> dict[str, float]:
    """Each layer's self time over ``spans[first:]``: span time not covered
    by its child spans."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index in range(first, len(spans)):
        _, name, start, end, _ = spans[index]
        out[name.split(".", 1)[0]] += (end - start) - child_time[index]
    return dict(out)
