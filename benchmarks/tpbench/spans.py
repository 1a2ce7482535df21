"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the span that was open when it started (-1 at top level), ``op`` the
identifier shared by every span of one operation.  Spans live in a list
and are written out once, at the end (``--trace-out``); a span's *self
time* is its duration minus the time its direct children cover.

Only the traced run imports this module — the untraced run, which
produces the end-to-end metrics, never pays for it.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0
        #: Work counts taken at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)

    def next_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the currently open one (used
        where boundaries come from callbacks, not from a ``with``)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def durations(self) -> dict[str, list[float]]:
        """Span durations in seconds, grouped by name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent, _op in self.spans:
            out[name].append(end - start)
        return out

    def median_ms(self, name: str) -> float:
        """Median duration of the spans called ``name``, in milliseconds
        (0.0 when there is none: the layer did no work)."""
        durations = [end - start for n, start, end, _p, _o in self.spans if n == name]
        return statistics.median(durations) * 1000.0 if durations else 0.0

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _op), child_time in zip(self.spans, covered):
            out[name] += (end - start) - child_time
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                handle,
            )
