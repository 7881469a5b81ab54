"""Span recorder for the benchmark's traced runs.

A span is one call from the benchmark into a layer of the program:
``{"id", "name", "op", "parent", "start", "end"}``.  Spans of one op
share its ``op`` id, and ``parent`` is the enclosing span, so a layer's
self time is its span's duration minus the time its child spans cover.
Spans stay in memory and are written out when the run ends.

Calls too frequent to record one by one (the simulator hands the trace
writer one call per task and message) are summed by a forwarding proxy
and recorded as one *aggregate* span: it starts with its parent, lasts
the summed time and carries the number of ``calls``.

Counts recorded at the same boundaries (tasks built, messages planned,
store hits) are kept per op next to the spans.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = ["Tracer", "NullTracer", "TimedWriter", "TimedStore",
           "layer_times", "rss_mb"]


def rss_mb() -> float:
    """Current resident set size in MB (0.0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


class Tracer:
    """In-memory spans and counts of one traced process."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[Optional[str], Dict[str, float]] = {}
        self.op: Optional[str] = None
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def aggregate(self, name: str, parent: dict, seconds: float,
                  calls: int) -> None:
        """Record ``calls`` calls inside ``parent`` summing ``seconds``."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "op": self.op, "parent": parent["id"],
                           "start": parent["start"],
                           "end": parent["start"] + seconds,
                           "calls": calls})

    def count(self, name: str, value: float) -> None:
        slot = self.counts.setdefault(self.op, {})
        slot[name] = slot.get(name, 0) + value

    def op_spans(self, op: str) -> List[dict]:
        return [s for s in self.spans if s["op"] == op]


class NullTracer(Tracer):
    """Records nothing: the untraced runs pass this instead of a tracer."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None

    def aggregate(self, name, parent, seconds, calls) -> None:
        pass

    def count(self, name, value) -> None:
        pass


def layer_times(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Total and self seconds per span name, over the given spans."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        slot = out.setdefault(s["name"], {"total": 0.0, "self": 0.0})
        slot["total"] += dur
        slot["self"] += dur - child_time.get(s["id"], 0.0)
    return out


class TimedWriter:
    """Forwarding proxy for a trace writer that sums time in its methods.

    The simulator duck-types its ``trace_writer``, so the proxy only
    needs the methods it calls.
    """

    def __init__(self, writer) -> None:
        self._w = writer
        self.seconds = 0.0
        self.calls = 0

    def _timed(self, fn, arg) -> None:
        t = time.perf_counter()
        fn(arg)
        self.seconds += time.perf_counter() - t
        self.calls += 1

    def write_task(self, rec) -> None:
        self._timed(self._w.write_task, rec)

    def write_msg(self, rec) -> None:
        self._timed(self._w.write_msg, rec)

    def write_fault(self, event) -> None:
        self._timed(self._w.write_fault, event)

    def write_resize(self, stats) -> None:
        self._timed(self._w.write_resize, stats)

    def flush(self) -> None:
        t = time.perf_counter()
        self._w.flush()
        self.seconds += time.perf_counter() - t


class TimedStore:
    """Duck-typed pattern-store proxy: one span per ``get`` and ``put``."""

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tracer = tracer

    def get(self, *args, **kw):
        with self._tracer.span("patterns.store_get"):
            return self._store.get(*args, **kw)

    def put(self, *args, **kw):
        with self._tracer.span("patterns.store_put"):
            return self._store.put(*args, **kw)
