"""In-memory span ledger for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead it replaces
public functions and methods of each layer with thin wrappers that record
a span (name, start, end, parent, tag) and restores the originals when the
run ends.  Spans stay in memory until the run is over.  Timestamps come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans recorded
in the server child line up with the client's.

Parents are tracked per thread: the evaluation service runs its batches in
a worker thread, and a span opened there must not become the child of a
span that happens to be open on the event-loop thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Ledger", "percentile", "quantile_summary"]


class Ledger:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, tag]`` per span, in open order.
        self.spans: "list[list]" = []
        self.counters: "dict[str, float]" = defaultdict(float)
        #: Free-form ``[kind, *fields]`` records (job acknowledgements...).
        self.events: "list[list]" = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: "list[tuple[object, str, object, bool]]" = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: "str | None" = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tag])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str, tag: "str | None" = None):
        index = self.open(name, tag)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def event(self, *fields: object) -> None:
        with self._lock:
            self.events.append(list(fields))

    # -- patching ------------------------------------------------------------
    def wrap(
        self, owner: object, attr: str, name, on_call=None, *, tag=None,
        consume: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name* is the span name, or a function of ``(args, kwargs)`` that
        returns it; *tag*, when given, is such a function for the span's
        tag (otherwise the span inherits its parent's).  *on_call*, when
        given, is called as ``on_call(ledger, args, kwargs, result,
        span_index)`` after each call, to record counts at the same
        boundary as the span.  ``consume=True`` drains an iterator result
        inside the span, so a generator's work is timed.
        """
        own = attr in vars(owner) if hasattr(owner, "__dict__") else True
        original = getattr(owner, attr)
        ledger = self

        def wrapper(*args, **kwargs):
            index = ledger.open(
                name(args, kwargs) if callable(name) else name,
                tag(args, kwargs) if tag is not None else None,
            )
            try:
                result = original(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                ledger.close(index)
            if on_call is not None:
                on_call(ledger, args, kwargs, result, index)
            return result

        # Classes keep their own __dict__; copy only the name and docstring.
        functools.update_wrapper(wrapper, original, updated=())
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------
    def durations(self, name: str) -> "list[float]":
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def self_times(self) -> "dict[str, float]":
        """Per span name: total duration minus the time direct children cover.

        Children of one span run on the span's own thread, one after the
        other, so their union is the sum of their clipped durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[3]
            if parent >= 0 and span[2] is not None:
                p = self.spans[parent]
                if p[2] is None:
                    continue
                start = max(span[1], p[1])
                end = min(span[2], p[2])
                if end > start:
                    covered[parent] += end - start
        out: "dict[str, float]" = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span[2] is not None:
                out[span[0]] += max(0.0, span[2] - span[1] - covered[index])
        return dict(out)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "events": self.events}

    def merge(self, data: dict) -> None:
        """Append spans exported by another process (parents re-indexed)."""
        offset = len(self.spans)
        for name, start, end, parent, tag in data["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, tag]
            )
        for name, value in data["counters"].items():
            self.counters[name] += value
        self.events.extend(data["events"])


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *values*."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def quantile_summary(values: "list[float]", qs=(50, 90, 99)) -> "dict[int, float]":
    """The percentiles in *qs* that have at least ten samples beyond them."""
    n = len(values)
    return {q: percentile(values, q) for q in qs if n * (100 - q) / 100 >= 10}
