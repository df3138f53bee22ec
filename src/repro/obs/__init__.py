"""Deterministic observability plane: metering, metrics, streaming sinks.

Three tiers, each composing with every execution mode of the simulator:

1. **Message counts** (:class:`~repro.net.tracing.Trace`) -- the trace is
   the one message counter of every metered run: sends counted once per
   :class:`~repro.net.queues.FanoutEntry` on the send path, drops, shun
   events and deliveries.  A trace-free run (``tracing=False``) records no
   events but still counts, so campaigns report the summary's core numbers
   (pass ``metering=False`` to opt out); counting never touches the
   scheduler RNG, so the delivery order is byte-identical with metering on
   or off.
2. **Structured metrics registry** (:mod:`repro.obs.metrics`) -- cheap
   counters/gauges/histograms (completion-step latencies per session root,
   queue depth over time, crypto-plane cache hit rates, evaluation-plan
   dispatch counts) recorded through pre-bound hooks in the same rebinding
   style :class:`~repro.net.tracing.Trace` uses.  Opt-in per simulation
   (``metrics=True``); snapshots land on ``SimulationResult.metrics``.
3. **Streaming trace sinks** (:mod:`repro.obs.sinks`,
   :mod:`repro.obs.timeline`) -- pluggable event consumers replacing the
   all-or-nothing ``keep_events`` list: a bounded ring buffer, a JSONL file
   writer (schema in :mod:`repro.obs.schema`) and a session-timeline builder
   rendering per-party phase/round timelines as text or Chrome
   ``chrome://tracing`` JSON.  Sinks require tracing (they consume trace
   events) and observe without perturbing determinism.

The sink contract (duck-typed; :class:`~repro.obs.sinks.TraceSink` is a
convenience base, not a requirement):

* ``emit(event)`` -- **required**.  ``event`` is a
  :class:`~repro.net.tracing.TraceEvent`, an immutable
  ``(step, kind, party, detail)`` tuple with those attribute names.
* ``emit_many(events)`` -- optional.  A *batch* is the ``send`` events of
  one broadcast/fan-out: non-empty, one kind, one step, receiver order.  A
  sink without it (or inheriting ``TraceSink``'s default) gets ``emit`` per
  event in the same order, so both styles observe the identical sequence.
* ``close()`` -- optional, idempotent; called by the runtime after the run.

Sinks must not assume one call per event, must not mutate events and must
not touch simulation state.  With several sinks attached each receives a
whole batch before the next sink sees it; the order *within* every sink's
stream is the trace's order.  ``keep_events`` retention is a consumer on the
same path (placed before the sinks).

``python -m repro.obs`` validates emitted JSONL traces and renders timelines
offline.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    REPORT_VERSION,
    event_to_jsonable,
    validate_jsonl,
    validate_report,
)
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink
from repro.obs.timeline import TimelineBuilder

__all__ = [
    "MetricsRegistry",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "TimelineBuilder",
    "event_to_jsonable",
    "validate_jsonl",
    "REPORT_VERSION",
    "validate_report",
]
