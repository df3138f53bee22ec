"""Streaming trace sinks: event consumers attached to an enabled Trace.

A sink observes every :class:`~repro.net.tracing.TraceEvent` of a run
(``Trace.add_sink``), independent of the trace's retention policy -- a JSONL
writer can stream a run whose trace keeps nothing in memory.  Sinks must
never mutate events or touch simulation state: they are observers, and the
determinism tests (``tests/obs/test_determinism.py``) lock in that attaching
one does not change delivery order.

The contract is duck-typed: ``emit(event)`` is required, ``emit_many(events)``
and ``close()`` are optional.  A sink must not assume one call per event --
the send events of one broadcast/fan-out arrive as one ``emit_many`` batch --
nor that a call happens the moment the event does: while the network is
delivering, every event waits in the trace's record log (at most
``LOG_BOUND`` records plus the messages in flight) and arrives, in order,
when the log reaches that bound, and at the latest when ``Network.step`` /
``run*`` returns or raises.  Whenever control is outside the delivery loop a
sink holds everything recorded so far (:mod:`repro.net.tracing` has the full
statement).  The record log and its shapes are that module's business: a
sink sees events, only the trace's own ring (:class:`RingBufferSink` is one)
is handed records.
"""

from __future__ import annotations

import json
from typing import Any, List, Optional, Sequence

from repro.net.tracing import EventRing, TraceEvent
from repro.obs.schema import event_to_jsonable


class TraceSink:
    """Base class for streaming event consumers.

    Subclasses override :meth:`emit`.  :meth:`emit_many` receives a *batch*:
    the ``send`` events of one fan-out -- non-empty, one kind, one step,
    receiver order -- and by default loops :meth:`emit`, so a sink that only
    defines ``emit`` observes the identical event sequence; override it when
    a batch can be consumed cheaper than event by event.  :meth:`close`
    flushes/releases any resources and must be idempotent (the runtime closes
    sinks after the run, and CLI wrappers may close them again defensively).
    """

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def emit_many(self, events: Sequence[TraceEvent]) -> None:
        emit = self.emit
        for event in events:
            emit(event)

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""


class RingBufferSink(EventRing, TraceSink):
    """Keeps the most recent ``capacity`` events plus per-kind totals.

    Useful as a post-mortem flight recorder on long runs: total counts stay
    exact while memory stays bounded.  It is the trace's own
    :class:`~repro.net.tracing.EventRing` (which see for what attaching one
    costs: message events are counted and kept as records, and become
    ``TraceEvent`` tuples when :attr:`events` or :meth:`tail` is read) with a
    positive capacity.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        super().__init__(capacity)

    def tail(self, count: int = 20) -> List[TraceEvent]:
        """The last ``count`` retained events, oldest first."""
        if count <= 0:
            return []
        return self.events[-count:]


class JsonlSink(TraceSink):
    """Writes one JSON object per event to a ``.jsonl`` file.

    Serialisation goes through :func:`repro.obs.schema.event_to_jsonable`
    (schema documented there; ``repr`` fallback for exotic payloads, so
    writing never fails mid-run).  Lines are written with sorted keys, making
    the file byte-identical across runs of the same seed.
    """

    def __init__(self, path: Any) -> None:
        self.path = path
        self._handle: Optional[Any] = open(path, "w", encoding="utf-8")
        self._encode = json.JSONEncoder(sort_keys=True, default=repr).encode
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        self.emit_many((event,))

    def emit_many(self, events: Sequence[TraceEvent]) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError(f"JsonlSink({self.path!r}) is closed")
        encode = self._encode
        handle.write(
            "".join([encode(event_to_jsonable(event)) + "\n" for event in events])
        )
        self.events_written += len(events)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
