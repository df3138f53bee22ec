"""Execution tracing and metrics for simulated protocol runs.

Every :class:`~repro.net.network.Network` owns a :class:`Trace`.  Protocols and
the runtime record events into it; benchmarks and tests read aggregate
statistics (message counts, delivery counts, shunning events, completion
times) from it after the run.

Event retention is tiered rather than all-or-nothing:

* ``keep_events=False`` (default) -- aggregate counters only, no event
  objects retained.
* ``keep_events=True`` or an ``int`` -- a bounded ring (default capacity
  :data:`DEFAULT_EVENT_CAPACITY`); the oldest events are evicted once full
  and counted in :attr:`Trace.events_dropped`.
* ``keep_events="all"`` -- the historical unbounded list, for short runs
  that need the complete event stream in memory.
* :meth:`Trace.add_sink` -- streaming consumers (:mod:`repro.obs.sinks`)
  that observe every event, independent of retention: a JSONL writer can
  stream a multi-million-event run that keeps nothing in memory.

Retention is itself a consumer (:class:`EventRing`) placed before the sinks.

**Record now, expand on read.**  Every event is a record in one append-only
log private to this module, and nearly every event is a message event -- one
``send`` and one ``deliver`` per copy -- which a consumer rarely wants one
Python call at a time, so the per-message hooks build neither events nor
messages.  The log holds three shapes:

* a delivery is ``(step, entry, receiver)``, appended by the delivery loop
  itself through :attr:`Trace.log_delivery` (no hook frame per delivery):
  the ``(entry, receiver)`` pair the queue's ``pop_entry`` returned;
* a fan-out is ``(step, (entry, size))`` -- one record for all its ``size``
  sends, ``entry`` the :class:`~repro.net.queues.FanoutEntry` they share, or
  a lone :class:`~repro.net.message.Message` with ``size`` 1 (a lone send is
  the one-copy fan-out of itself);
* every other event (``drop``, ``complete``, ``shun``, ``corrupt``,
  ``phase``, ``session_open``, ``director``, ``note``) is its
  :class:`TraceEvent` 4-tuple, appended by :meth:`Trace.record`, which also
  counts it by kind.

The :class:`~repro.net.message.Message` of a send or delivery event is built
from its record when the event is built (``entry.materialize``: the same
fields and sequence number the copy was sent with), so an event is equal to
the one a per-message log would have held, not the same object.
:meth:`Trace.pump` hands the log on, in order, and is the one place a
consumer is called.  A duck-typed sink receives ``emit(event)`` per delivery
and per event that is not a send, and ``emit_many(one fan-out's send
events)`` per fan-out -- a one-event batch for a lone send.  An
:class:`EventRing` (hence ``keep_events`` and
:class:`repro.obs.sinks.RingBufferSink`) receives the records *unexpanded*
with the pump's per-kind counts: it keeps the records covering its last
``capacity`` events and builds :class:`TraceEvent` tuples only when
``events`` is read.  The records and these shapes are known to this module
only.

A record waits in the log only while the network is delivering
(:attr:`Trace.driving`); recorded at any other time -- a protocol started by
hand, a director's setup, a test calling ``on_fanout`` or ``note`` -- it is
pumped at once.  Consumers are therefore current

* whenever control is outside the network's delivery loop: before a drive,
  and when ``step`` / ``run*`` return -- also when a handler raised (a flight
  recorder holds the events up to and including the failing delivery);
* on any read through the trace (``events``, ``events_dropped``,
  ``summary``), at ``add_sink`` and at ``close_sinks``;

and in between the log holds at most :data:`LOG_BOUND` records plus one per
message that was in flight when the last record other than a delivery was
logged: the bound is checked at every fan-out and every event, and a
delivery that is not followed by one uses up one of those messages
(``tests/obs/test_event_plane.py`` holds a 50k-delivery run to it).  Only the
aggregate ``messages_delivered`` lags further: the network adds a drive's
deliveries when the drive exits.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.net.message import SessionId

#: Ring-buffer capacity used by ``keep_events=True``.
DEFAULT_EVENT_CAPACITY = 65536

#: Records the log may hold when a fan-out or an event is logged before it
#: is pumped.
LOG_BOUND = 1024


class TraceEvent(NamedTuple):
    """A single trace record (an immutable 4-tuple with named fields).

    Attributes:
        step: network step counter at which the event occurred.
        kind: event category (``send``, ``deliver``, ``drop``, ``complete``,
            ``shun``, ``corrupt``, ``phase``, ``session_open``, ``director``,
            ``note``).
        party: the party the event concerns (receiver for deliveries, the
            shunning party for shun events), or None for global events.
        detail: free-form event payload.
    """

    step: int
    kind: str
    party: Optional[int]
    detail: Any


#: Event construction: ``tuple.__new__`` skips the Python-level
#: ``TraceEvent.__new__`` wrapper (half its cost), which matters at one event
#: per send and per delivery.
_new_event = tuple.__new__


def _send_events(step: int, fanout: Tuple[Any, int]) -> List[TraceEvent]:
    """The ``emit_many`` batch a fan-out record ``(step, (entry, size))`` stands for."""
    entry, size = fanout
    # ``n`` is ``size`` plus the one receiver ``skip`` leaves out, if any (a
    # survivors entry's copies do not depend on it).
    receivers = entry.copies(size if entry.skip is None else size + 1)
    sender, materialize = entry.sender, entry.materialize
    return [
        _new_event(TraceEvent, (step, "send", sender, materialize(receiver)))
        for receiver in receivers
    ]


def _delivery_event(step: int, entry: Any, receiver: int) -> TraceEvent:
    """The event a delivery record ``(step, entry, receiver)`` stands for."""
    return _new_event(TraceEvent, (step, "deliver", receiver, entry.materialize(receiver)))


class EventRing:
    """The most recent ``capacity`` events (every event when ``None``).

    The one ring/eviction implementation of the event plane: a trace's
    ``keep_events`` retention is an ``EventRing`` placed first among its
    consumers, and :class:`repro.obs.sinks.RingBufferSink` is one with a
    capacity check.  What it holds is *chunks* -- what one call handed it,
    message records unexpanded -- trimmed to the fewest covering the last
    ``capacity`` events; totals are exact, and :attr:`events` builds the
    retained :class:`TraceEvent` tuples each time it is read.
    """

    def __init__(self, capacity: Optional[int]) -> None:
        self.capacity = capacity
        self.events_seen = 0
        self.counts_by_kind: Counter = Counter()
        #: ``(events in chunk, records)``, oldest first.
        self._chunks: Deque[Tuple[int, Sequence[tuple]]] = deque()
        self._held = 0

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a fresh list per read)."""
        events: List[TraceEvent] = []
        for _, records in self._chunks:
            for record in records:
                size = len(record)
                if size == 3:
                    events.append(_delivery_event(*record))
                elif size == 2:
                    events.extend(_send_events(*record))
                else:  # an event, kept as it came
                    events.append(record)
        if self.capacity is not None:
            del events[: -self.capacity]
        return events

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ring (seen minus retained)."""
        if self.capacity is None:
            return 0
        return max(0, self.events_seen - self.capacity)

    def emit(self, event: TraceEvent) -> None:
        self.events_seen += 1
        self.counts_by_kind[event.kind] += 1
        self._keep(1, (event,))

    def emit_many(self, events: Sequence[TraceEvent]) -> None:
        count = len(events)
        if count:
            self.events_seen += count
            self.counts_by_kind[events[0].kind] += count
            self._keep(count, tuple(events))

    def _take(self, records: List[tuple], count: int, counts: Dict[str, int]) -> None:
        """One pump of the trace's log: its records, ``count`` events, per kind."""
        self.events_seen += count
        self.counts_by_kind.update(counts)
        self._keep(count, records)

    def _keep(self, count: int, records: Sequence[tuple]) -> None:
        chunks = self._chunks
        chunks.append((count, records))
        capacity = self.capacity
        if capacity is not None:
            held = self._held + count
            while held - chunks[0][0] >= capacity:
                held -= chunks.popleft()[0]
            self._held = held


def _noop(*_args: Any, **_kwargs: Any) -> None:
    """Shared do-nothing hook for disabled traces."""


def _batch_emitter(consumer: Any) -> Callable[[Sequence[TraceEvent]], None]:
    """``consumer.emit_many``, or a loop over ``emit`` for emit-only sinks."""
    emit_many = getattr(consumer, "emit_many", None)
    if emit_many is not None:
        return emit_many
    emit = consumer.emit

    def emit_each(events: Sequence[TraceEvent]) -> None:
        for event in events:
            emit(event)

    return emit_each


def _takes_records(consumer: Any) -> bool:
    """True for an :class:`EventRing` whose ``emit`` / ``emit_many`` are its own."""
    cls = type(consumer)
    return (
        isinstance(consumer, EventRing)
        and cls.emit is EventRing.emit
        and cls.emit_many is EventRing.emit_many
    )


class Trace:
    """Collects events and aggregate metrics for one simulated execution.

    Events reach their consumers -- the ``keep_events`` ring first, then the
    sinks in attachment order -- through the record log described in the
    module docstring: every event is logged, and :meth:`pump` is the one
    place a consumer is called.  With no consumer the hooks only bump the
    aggregate counters and build nothing.

    ``messages_delivered`` is added to by the network when a drive exits (one
    addition per ``step`` / ``run*`` call), not per delivery.

    The trace is the one message counter of a run, traced or not: the
    counting hooks (``on_fanout``, ``on_drop``, ``on_shun``) have one
    implementation each.  With ``enabled=False`` the trace records no events
    -- every other hook (``record``, ``on_complete``, ``on_corrupt``,
    ``on_phase``, ``on_session_open``, ``on_director``, ``note``) is rebound
    to a shared no-op at construction time -- but still counts sends (once
    per fan-out), drops, shun events and deliveries, the headline numbers of
    a trace-free throughput campaign.  With ``metering=False`` as well the
    counting hooks are no-ops too and every counter stays at zero;
    ``metering`` has no effect on an enabled trace.
    """

    def __init__(
        self,
        keep_events: Union[bool, int, str] = False,
        enabled: bool = True,
        metering: bool = True,
    ) -> None:
        #: Retention policy as passed in (False / True / int capacity / "all").
        self.keep_events = keep_events
        #: When False, no event is recorded: only the counters are kept.
        self.enabled = enabled
        #: Whether the message counters are kept (always when enabled).
        self.counting = enabled or metering
        #: Streaming consumers fed every recorded event (see ``add_sink``).
        self.sinks: List[Any] = []
        #: Retained events per ``keep_events`` (None: nothing is kept).
        self._ring: Optional[EventRing]
        if keep_events == "all":
            self._ring = EventRing(None)
        elif keep_events is True:
            self._ring = EventRing(DEFAULT_EVENT_CAPACITY)
        elif isinstance(keep_events, int) and keep_events > 0:
            self._ring = EventRing(keep_events)
        elif not keep_events:
            self._ring = None
        else:
            raise ValueError(
                f"keep_events must be False, True, a positive int or 'all', "
                f"got {keep_events!r}"
            )
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.sent_by_root: Counter = Counter()
        self.sent_by_kind: Counter = Counter()
        self.dropped_by_reason: Counter = Counter()
        self.completions: Dict[Tuple[int, SessionId], Tuple[int, Any]] = {}
        self.shun_events: List[Tuple[int, int, SessionId]] = []
        self.notes: List[Tuple[int, Any]] = []
        #: The record log (see the module docstring), emptied in place by
        #: :meth:`pump`; how many fan-out records / send events it holds; and
        #: its events (4-tuples) counted by kind.
        self._log: List[tuple] = []
        self._log_fanouts = 0
        self._log_sends = 0
        self._log_kinds: Dict[str, int] = {}
        #: The delivery loop's hook: called with one ``(step, entry,
        #: receiver)`` record per delivery, it is the log's own ``append``.
        self.log_delivery: Callable[[Tuple[int, Any, int]], None] = self._log.append
        #: Set by the network around its delivery loop, which pumps when it
        #: exits: only then may a fan-out wait in the log.
        self.driving = False
        self._bind_consumers()
        if not enabled:
            # Rebinding beats per-call `if self.enabled` checks: the flag test
            # would tax the enabled path too.
            self.record = _noop  # type: ignore[method-assign]
            self.on_complete = _noop  # type: ignore[method-assign]
            self.on_corrupt = _noop  # type: ignore[method-assign]
            self.on_phase = _noop  # type: ignore[method-assign]
            self.on_session_open = _noop  # type: ignore[method-assign]
            self.on_director = _noop  # type: ignore[method-assign]
            self.note = _noop  # type: ignore[method-assign]
            if not metering:
                self.on_fanout = _noop  # type: ignore[method-assign]
                self.on_drop = _noop  # type: ignore[method-assign]
                self.on_shun = _noop  # type: ignore[method-assign]

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events (oldest first; empty when nothing is kept)."""
        self.pump()
        return [] if self._ring is None else self._ring.events

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ``keep_events`` ring once it was full."""
        self.pump()
        return 0 if self._ring is None else self._ring.events_dropped

    def _bind_consumers(self) -> None:
        """Sort the retention ring and the sinks by how they are fed."""
        consumers = ([] if self._ring is None else [self._ring]) + self.sinks
        #: Whether fan-outs and events are logged (deliveries always are).
        self._logging = self.enabled and bool(consumers)
        #: The rings :meth:`pump` hands the log's records to as they are ...
        self._record_takers: List[EventRing] = [c for c in consumers if _takes_records(c)]
        #: ... and ``emit`` / ``emit_many`` of the sinks it expands them for.
        sinks = [c for c in consumers if not _takes_records(c)]
        self._sink_emits: List[Callable[[TraceEvent], None]] = [s.emit for s in sinks]
        self._sink_batch_emits: List[Callable[[Sequence[TraceEvent]], None]] = [
            _batch_emitter(s) for s in sinks
        ]

    def add_sink(self, sink: Any) -> Any:
        """Attach a streaming event consumer and return it.

        The sink's ``emit(event)`` is called for every subsequently recorded
        :class:`TraceEvent`, regardless of the retention policy; a sink that
        also defines ``emit_many(events)`` receives the send events of one
        fan-out as a single batch instead (see
        :class:`repro.obs.sinks.TraceSink`).  Sinks require an enabled trace
        -- with ``tracing=False`` no events exist to stream, so attaching one
        raises :class:`ValueError` instead of silently observing nothing.
        """
        if not self.enabled:
            raise ValueError(
                "cannot attach a sink to a disabled trace; run with tracing "
                "enabled (sinks consume trace events)"
            )
        self.pump()  # what is logged so far is not for this sink
        self.sinks.append(sink)
        self._bind_consumers()
        return sink

    def close_sinks(self) -> None:
        """Pump, then flush and close every attached sink (idempotent per sink).

        Every sink is closed whatever the pump or an earlier ``close`` raised
        (a file sink behind a failing one must not keep its handle); the first
        error is re-raised once all are closed.
        """
        first_error: Optional[Exception] = None
        try:
            self.pump()
        except Exception as error:
            first_error = error
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                try:
                    close()
                except Exception as error:
                    if first_error is None:
                        first_error = error
        if first_error is not None:
            raise first_error

    def pump(self) -> None:
        """Hand the log to every consumer, in order: the one place one is called."""
        log = self._log
        if not log:
            return
        records = log[:]
        del log[:]  # in place: the delivery loop holds its ``append``
        # Per kind: the logged events as counted, the fan-outs' sends, and
        # the rest of the records, which are deliveries.
        counts = self._log_kinds
        sends, fanouts = self._log_sends, self._log_fanouts
        self._log_kinds = {}
        self._log_sends = self._log_fanouts = 0
        logged = sum(counts.values())
        deliveries = len(records) - fanouts - logged
        if sends:
            counts["send"] = counts.get("send", 0) + sends
        if deliveries:
            counts["deliver"] = counts.get("deliver", 0) + deliveries
        for ring in self._record_takers:
            ring._take(records, logged + sends + deliveries, counts)
        sink_emits = self._sink_emits
        if sink_emits:
            # Record by record, each sink in turn: when one raises, the sinks
            # behind it have everything before the failing event.
            sink_batch_emits = self._sink_batch_emits
            for record in records:
                size = len(record)
                if size == 2:
                    events = _send_events(*record)
                    for emit_many in sink_batch_emits:
                        emit_many(events)
                    continue
                event = record if size == 4 else _delivery_event(*record)
                for emit in sink_emits:
                    emit(event)

    def record(self, step: int, kind: str, party: Optional[int], detail: Any) -> None:
        """Log one raw event for the retention ring and the sinks."""
        log = self._log
        if self._logging:
            log.append(_new_event(TraceEvent, (step, kind, party, detail)))
            kinds = self._log_kinds
            kinds[kind] = kinds.get(kind, 0) + 1
        if len(log) >= LOG_BOUND or not self.driving:
            self.pump()

    def on_fanout(self, step: int, entry: Any, size: int) -> None:
        """Record one fan-out: the ``size`` copies of ``entry``, in receiver order.

        ``entry`` is the :class:`~repro.net.queues.FanoutEntry` the copies
        share (``entry.skip`` left out of ``0..n-1``; a
        :class:`~repro.net.queues.SurvivorsEntry` names its receivers), or a
        lone :class:`~repro.net.message.Message` with ``size`` 1.  One ``send``
        event per copy, in order, with the counters bumped once by ``size``
        and every sink handed the send events as one ``emit_many`` batch.
        """
        if not size:
            return
        self.messages_sent += size
        self.sent_by_root[entry.root] += size
        self.sent_by_kind[entry.kind] += size
        log = self._log
        if self._logging:
            log.append((step, (entry, size)))
            self._log_fanouts += 1
            self._log_sends += size
        if len(log) >= LOG_BOUND or not self.driving:
            self.pump()

    def on_drop(self, step: int, entry: Any, receiver: int, reason: str) -> None:
        """Record that the copy of ``entry`` for ``receiver`` was dropped.

        ``entry`` is as for :meth:`on_fanout` (a lone Message is its own
        copy); the dropped Message is built only for an enabled trace.
        """
        self.messages_dropped += 1
        self.dropped_by_reason[reason] += 1
        if self.enabled:
            self.record(step, "drop", receiver, (reason, entry.materialize(receiver)))

    def on_complete(self, step: int, party: int, session: SessionId, value: Any) -> None:
        """Record the first completion of ``session`` at ``party``."""
        key = (party, tuple(session))
        if key not in self.completions:
            self.completions[key] = (step, value)
        self.record(step, "complete", party, (session, value))

    def on_shun(self, step: int, shunner: int, shunned: int, session: SessionId) -> None:
        """Record that ``shunner`` started shunning ``shunned`` in ``session``."""
        self.shun_events.append((shunner, shunned, tuple(session)))
        self.record(step, "shun", shunner, (shunned, session))

    def on_corrupt(self, step: int, party: int) -> None:
        """Record that ``party`` was corrupted by the adversary."""
        self.record(step, "corrupt", party, None)

    def on_phase(self, step: int, party: int, session: SessionId, phase: str) -> None:
        """Record that ``party`` entered ``phase`` of ``session``.

        Protocols annotate their milestones through
        :meth:`repro.net.protocol.Protocol.annotate_phase` (SVSS row/ready,
        ABA rounds, coin iterations); the timeline builder turns these into
        per-party phase spans.
        """
        self.record(step, "phase", party, (session, phase))

    def on_session_open(self, step: int, party: int, session: SessionId) -> None:
        """Record that ``party`` instantiated a protocol for ``session``."""
        self.record(step, "session_open", party, session)

    def on_director(self, step: int, action: str, party: Optional[int], detail: Any) -> None:
        """Record a scenario-director action (corrupt/silence/recover/...)."""
        self.record(step, "director", party, (action, detail))

    def note(self, step: int, detail: Any) -> None:
        """Record a free-form annotation."""
        self.notes.append((step, detail))
        self.record(step, "note", None, detail)

    # ------------------------------------------------------------------
    # Aggregate queries used by tests and benchmarks.
    # ------------------------------------------------------------------
    def completion_step(self, party: int, session: SessionId) -> Optional[int]:
        """Step at which ``party`` completed ``session``, or None."""
        entry = self.completions.get((party, tuple(session)))
        return None if entry is None else entry[0]

    def completed_value(self, party: int, session: SessionId) -> Optional[Any]:
        """Output value of ``party`` for ``session``, or None if not completed."""
        entry = self.completions.get((party, tuple(session)))
        return None if entry is None else entry[1]

    def total_shun_events(self) -> int:
        """Number of shunning events recorded in this execution."""
        return len(self.shun_events)

    def summary(self) -> Dict[str, Any]:
        """Return a dictionary of headline metrics for reporting."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "completions": len(self.completions),
            "shun_events": len(self.shun_events),
            "sent_by_root": dict(self.sent_by_root),
            "sent_by_kind": dict(self.sent_by_kind),
            "dropped_by_reason": dict(self.dropped_by_reason),
            "events_dropped": self.events_dropped,
        }
