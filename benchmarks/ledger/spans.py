"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(id, parent id, trace id, name, start, end)``.  Spans of one
operation share a trace id.  Nothing is written while measuring: the spans
are kept in a list and turned, when the run ends, into chrome://tracing JSON
and a self-time table (a span's duration minus the part of it its child
spans cover).  The spans live in the benchmark, not in the program: they
wrap public calls, so a span boundary is always a layer boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end")

    def __init__(self, id: int, parent: Optional[int], trace: int, name: str, start: float) -> None:
        self.id = id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans; one recorder per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._traces = 0
        self._last_closed: Optional[Span] = None

    @contextmanager
    def span(self, name: str, new_trace: bool = False) -> Iterator[Span]:
        """Time the enclosed block as a child of the innermost open span.

        ``new_trace`` starts a new trace id: pass it on the span that wraps
        one whole operation.
        """
        parent = self._stack[-1] if self._stack else None
        if new_trace or parent is None:
            self._traces += 1
            trace = self._traces
        else:
            trace = parent.trace
        record = Span(len(self.spans), parent.id if parent else None, trace, name,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._last_closed = record

    def add(self, name: str, start: float, end: float) -> Span:
        """Record a root span timed by the caller (requests in flight overlap,
        so they cannot nest under the block that issues them)."""
        self._traces += 1
        record = Span(len(self.spans), None, self._traces, name, start)
        record.end = end
        self.spans.append(record)
        return record

    def child_of_last(self, name: str, start: float, end: float) -> Span:
        """Record an interval, timed by the caller, inside the span that closed last."""
        parent = self._last_closed
        assert parent is not None, "child_of_last needs a closed span"
        record = Span(len(self.spans), parent.id, parent.trace, name, start)
        record.end = end
        self.spans.append(record)
        return record

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def table(self) -> List[Dict[str, Any]]:
        """Per span name: count, total and self seconds, widest first."""
        own = self.self_times()
        rows: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, {"name": span.name, "count": 0,
                                              "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += own[span.id]
        return sorted(rows.values(), key=lambda row: -row["self_s"])

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as chrome://tracing "complete" events (one row per trace)."""
        origin = min((span.start for span in self.spans), default=0.0)
        return {
            "traceEvents": [
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": span.trace,
                    "args": {"id": span.id, "parent": span.parent},
                }
                for span in self.spans
            ],
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def render_table(rows: List[Dict[str, Any]]) -> str:
    """The self-time table as text; shares are of the summed self time."""
    total = sum(row["self_s"] for row in rows) or 1.0
    lines = [f"  {'span':<34}{'count':>8}{'total ms':>12}{'self ms':>12}{'self %':>8}"]
    for row in rows:
        lines.append(
            f"  {row['name']:<34}{row['count']:>8}{row['total_s'] * 1e3:>12.2f}"
            f"{row['self_s'] * 1e3:>12.2f}{100.0 * row['self_s'] / total:>8.1f}"
        )
    return "\n".join(lines)
