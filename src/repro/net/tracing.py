"""Execution tracing and metrics for simulated protocol runs.

Every :class:`~repro.net.network.Network` owns a :class:`Trace`.  Protocols and
the runtime record events into it; benchmarks and tests read aggregate
statistics (message counts, delivery counts, shunning events, completion
times) from it after the run.

Event retention is tiered rather than all-or-nothing:

* ``keep_events=False`` (default) -- aggregate counters only, no event
  objects retained.
* ``keep_events=True`` or an ``int`` -- a bounded ring buffer (default
  capacity :data:`DEFAULT_EVENT_CAPACITY`); the oldest events are evicted
  once full and counted in :attr:`Trace.events_dropped`.
* ``keep_events="all"`` -- the historical unbounded list, for short runs
  that need the complete event stream in memory.
* :meth:`Trace.add_sink` -- streaming consumers (:mod:`repro.obs.sinks`)
  that observe every event as it is recorded, independent of retention:
  a JSONL writer can stream a multi-million-event run that keeps nothing
  in memory.

Retention is itself a consumer (:class:`EventRing`) on the same path the
sinks sit on; events are plain tuples (:class:`TraceEvent`) and the send
events of one broadcast/fan-out travel as one batch.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.net.message import Message, SessionId

#: Ring-buffer capacity used by ``keep_events=True``.
DEFAULT_EVENT_CAPACITY = 65536


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


#: Event construction on the per-message hooks: ``tuple.__new__`` skips the
#: Python-level ``TraceEvent.__new__`` wrapper (half its cost), which matters
#: at one event per send and per delivery.
_new_event = tuple.__new__


class EventRing:
    """The most recent ``capacity`` events (every event when ``None``).

    The one ring/eviction implementation of the event plane: a trace's
    ``keep_events`` retention is an ``EventRing`` placed first on its consumer
    path, and :class:`repro.obs.sinks.RingBufferSink` extends it with
    per-kind totals.
    """

    def __init__(self, capacity: Optional[int]) -> None:
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.events_seen = 0

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ring (seen minus retained)."""
        return self.events_seen - len(self.events)

    def emit(self, event: TraceEvent) -> None:
        self.events_seen += 1
        self.events.append(event)

    def emit_many(self, events: Sequence[TraceEvent]) -> None:
        self.events_seen += len(events)
        self.events.extend(events)


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


class Trace:
    """Collects events and aggregate metrics for one simulated execution.

    Events reach their consumers -- the ``keep_events`` ring first, then the
    sinks in attachment order -- through a path compiled whenever that set
    changes: ``None`` when nobody consumes events (hooks then only bump the
    aggregate counters and build nothing), the single consumer's bound
    ``emit`` / ``emit_many``, or a small fan-out over several.  A fan-out of
    sends (:meth:`on_send_many`) is one batch: one counter bump by its size
    and one ``emit_many`` per consumer.

    With ``enabled=False`` every recording hook (``on_send``,
    ``on_send_many``, ``on_deliver``, ``on_drop``, ``on_complete``,
    ``on_shun``, ``on_corrupt``, ``on_phase``, ``on_session_open``,
    ``on_director``, ``note``, ``record``) is rebound to a shared no-op at
    construction time, so the network's hot loop pays one
    trivially-dispatched call and zero message-formatting or counter work per
    event.  Counters then stay at zero and no completions/shun events are
    recorded -- throughput campaigns with ``tracing=False`` read their
    headline counts from the group meter (:mod:`repro.obs.meter`) instead.
    """

    def __init__(
        self, keep_events: Union[bool, int, str] = False, enabled: bool = True
    ) -> None:
        #: Retention policy as passed in (False / True / int capacity / "all").
        self.keep_events = keep_events
        #: When False, all recording hooks are no-ops and metrics stay empty.
        self.enabled = enabled
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
        #: Compiled consumer path (see the class docstring).
        self._emit: Optional[Callable[[TraceEvent], None]] = None
        self._emit_many: Optional[Callable[[Sequence[TraceEvent]], None]] = None
        self._compile()
        if not enabled:
            # Rebinding beats per-call `if self.enabled` checks: the flag test
            # would tax the enabled path too, and this keeps the disabled path
            # free of even the Message property accesses below.
            self.record = _noop  # type: ignore[method-assign]
            self.on_send = _noop  # type: ignore[method-assign]
            self.on_send_many = _noop  # type: ignore[method-assign]
            self.on_deliver = _noop  # type: ignore[method-assign]
            self.on_drop = _noop  # type: ignore[method-assign]
            self.on_complete = _noop  # type: ignore[method-assign]
            self.on_shun = _noop  # type: ignore[method-assign]
            self.on_corrupt = _noop  # type: ignore[method-assign]
            self.on_phase = _noop  # type: ignore[method-assign]
            self.on_session_open = _noop  # type: ignore[method-assign]
            self.on_director = _noop  # type: ignore[method-assign]
            self.note = _noop  # type: ignore[method-assign]

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events (oldest first; empty when nothing is kept)."""
        return [] if self._ring is None else list(self._ring.events)

    @property
    def events_dropped(self) -> int:
        """Events evicted from the ``keep_events`` ring once it was full."""
        return 0 if self._ring is None else self._ring.events_dropped

    def _compile(self) -> None:
        """Rebuild the consumer path from the retention ring and the sinks."""
        consumers = ([] if self._ring is None else [self._ring]) + self.sinks
        if not consumers:
            self._emit = self._emit_many = None
        elif len(consumers) == 1:
            self._emit = consumers[0].emit
            self._emit_many = _batch_emitter(consumers[0])
        else:
            emitters = [consumer.emit for consumer in consumers]
            batch_emitters = [_batch_emitter(consumer) for consumer in consumers]

            def emit(event: TraceEvent) -> None:
                for consumer_emit in emitters:
                    consumer_emit(event)

            def emit_many(events: Sequence[TraceEvent]) -> None:
                for consumer_emit_many in batch_emitters:
                    consumer_emit_many(events)

            self._emit = emit
            self._emit_many = emit_many

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
        self.sinks.append(sink)
        self._compile()
        return sink

    def close_sinks(self) -> None:
        """Flush and close every attached sink (idempotent per sink)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def record(self, step: int, kind: str, party: Optional[int], detail: Any) -> None:
        """Hand one raw event to the retention ring and the sinks."""
        emit = self._emit
        if emit is not None:
            emit(TraceEvent(step, kind, party, detail))

    def on_send(self, step: int, message: Message) -> None:
        """Record that ``message`` was handed to the network."""
        self.messages_sent += 1
        self.sent_by_root[message.root] += 1
        self.sent_by_kind[message.kind] += 1
        emit = self._emit
        if emit is not None:
            emit(_new_event(TraceEvent, (step, "send", message.sender, message)))

    def on_send_many(
        self, step: int, messages: Sequence[Message], kind: Any, root: Any
    ) -> None:
        """Record one fan-out: ``messages`` share ``kind``, ``root`` and step.

        Equivalent to :meth:`on_send` per message in order -- same counters,
        same events -- with the counters bumped once by ``len(messages)`` and
        every consumer handed the whole batch in one ``emit_many`` call.
        """
        count = len(messages)
        if not count:
            return
        self.messages_sent += count
        self.sent_by_root[root] += count
        self.sent_by_kind[kind] += count
        emit_many = self._emit_many
        if emit_many is not None:
            emit_many(
                [
                    _new_event(TraceEvent, (step, "send", message.sender, message))
                    for message in messages
                ]
            )

    def on_deliver(self, step: int, message: Message) -> None:
        """Record that ``message`` was delivered to its receiver."""
        self.messages_delivered += 1
        emit = self._emit
        if emit is not None:
            emit(_new_event(TraceEvent, (step, "deliver", message.receiver, message)))

    def on_drop(self, step: int, message: Message, reason: str) -> None:
        """Record that ``message`` was dropped (e.g. sender shunned)."""
        self.messages_dropped += 1
        self.dropped_by_reason[reason] += 1
        self.record(step, "drop", message.receiver, (reason, message))

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
