"""Spans and counters for the traced benchmark run.

A span is one call the benchmark makes into ccsolve: (name, start, end,
parent, op id, tag).  Span names are the per-layer metric names they feed,
for example ``tridiagonal.solve_s``.  Tags mark spans that are not part of
the op itself:

- ``replica``: a call the benchmark adds only in the traced run, to time a
  piece of work the op does internally (for example ``lambda_sequence``,
  which ``solve_cc_tridiagonal`` runs first);
- ``derived``: a child span laid out from a duration the op returned (the
  per-solver ``wall_time_s`` of a bench record), not from the clock.

Spans stay in memory until the run ends and ``dump`` writes them.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, TAG = range(6)


class NullTracer:
    """The part of Tracer that the output checks use, recording nothing, so
    the timed and the traced loop run the same checks."""

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, k=1):
        pass

    def maximum(self, name, value):
        pass


class Tracer:
    """In-memory span recorder with per-name counters and maxima."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._cursor: dict[int, float] = {}
        self._op: int | None = None
        self.origin = perf_counter()

    @contextmanager
    def span(self, name, tag=""):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op, tag])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = perf_counter()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            with self.span("harness.op_s"):
                yield
        finally:
            self._op = None

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def replica(self, name, fn, *args):
        with self.span(name, "replica"):
            return fn(*args)

    def derived(self, name, duration):
        """Child of the open span, placed after the earlier derived children."""
        parent = self._stack[-1]
        start = self._cursor.get(parent, self.spans[parent][START])
        self._cursor[parent] = start + duration
        self.spans.append([name, start, start + duration, parent, self._op, "derived"])

    def count(self, name, k=1):
        self.counts[name] += k

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def self_times(self) -> Counter:
        """Seconds per span name: each span's duration minus the part of it
        that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                children.setdefault(s[PARENT], []).append((s[START], s[END]))
        totals: Counter = Counter()
        for idx, s in enumerate(self.spans):
            covered = 0.0
            reach = s[START]
            for lo, hi in sorted(children.get(idx, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s[NAME]] += (s[END] - s[START]) - covered
        return totals

    def tagged_seconds(self, tag: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[TAG] == tag)

    def dump(self, path, **meta):
        rows = [
            [s[NAME], s[START] - self.origin, s[END] - self.origin] + s[PARENT:]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                dict(meta, columns=["name", "start_s", "end_s", "parent", "op", "tag"],
                     spans=rows),
                fh,
            )
