"""Tests for streaming trace sinks, event retention tiers and the schema."""

from __future__ import annotations

import json

import pytest

from repro.core import api
from repro.net.queues import FanoutEntry
from repro.net.tracing import DEFAULT_EVENT_CAPACITY, Trace, TraceEvent
from repro.obs.schema import EVENT_KINDS, event_to_jsonable, validate_event, validate_jsonl
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink
from repro.obs.timeline import TimelineBuilder
from repro.scenarios import run_scenario


# ----------------------------------------------------------------------
# Trace retention tiers.
# ----------------------------------------------------------------------
def test_default_trace_retains_nothing():
    trace = Trace()
    trace.note(0, "x")
    assert trace.events == []
    assert trace.notes == [(0, "x")]  # aggregates still collected


def test_keep_events_true_is_bounded_ring():
    trace = Trace(keep_events=True)
    trace.note(0, "x")
    assert len(trace.events) == 1
    for step in range(1, DEFAULT_EVENT_CAPACITY + 3):
        trace.note(step, "x")
    assert len(trace.events) == DEFAULT_EVENT_CAPACITY
    assert trace.events_dropped == 3


def test_int_capacity_ring_evicts_oldest():
    trace = Trace(keep_events=3)
    for step in range(5):
        trace.note(step, step)
    events = trace.events
    assert [event.step for event in events] == [2, 3, 4]
    assert trace.events_dropped == 2
    assert trace.summary()["events_dropped"] == 2


def test_keep_events_all_is_unbounded():
    trace = Trace(keep_events="all")
    for step in range(10):
        trace.note(step, step)
    assert len(trace.events) == 10
    assert trace.events_dropped == 0


def test_invalid_keep_events_rejected():
    with pytest.raises(ValueError):
        Trace(keep_events="forever")
    with pytest.raises(ValueError):
        Trace(keep_events=-4)


def test_summary_includes_kind_and_reason_breakdowns():
    result = api.run_weak_coin(4, seed=0)
    summary = result.trace.summary()
    assert summary["sent_by_kind"]
    assert sum(summary["sent_by_kind"].values()) == summary["messages_sent"]
    assert "dropped_by_reason" in summary


# ----------------------------------------------------------------------
# Sinks.
# ----------------------------------------------------------------------
def test_base_sink_requires_emit():
    with pytest.raises(NotImplementedError):
        TraceSink().emit(TraceEvent(0, "note", None, "x"))
    TraceSink().close()  # default close is a no-op


def test_ring_buffer_sink_counts_exactly():
    sink = RingBufferSink(capacity=4)
    trace = Trace()
    trace.add_sink(sink)
    for step in range(6):
        trace.note(step, step)
    assert sink.events_seen == 6
    assert sink.events_dropped == 2
    assert [event.step for event in sink.tail(2)] == [4, 5]
    assert sink.counts_by_kind == {"note": 6}


def test_ring_buffer_sink_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


#: Every in-tree sink class, with what can be observed of one after close.
SINK_STATES = {
    TraceSink: lambda sink: None,
    RingBufferSink: lambda sink: (
        sink.events, sink.events_seen, sink.events_dropped, dict(sink.counts_by_kind),
    ),
    JsonlSink: lambda sink: (sink.events_written, sink.path.read_text()),
    TimelineBuilder: lambda sink: (sink.events_seen, sink.max_step, sink.render_text()),
}


@pytest.mark.parametrize("cls", list(SINK_STATES), ids=lambda cls: cls.__name__)
def test_an_empty_batch_is_a_no_op(cls, tmp_path):
    def build(name):
        return cls(tmp_path / name) if cls is JsonlSink else cls()

    fed, fresh = build("fed.jsonl"), build("fresh.jsonl")
    fed.emit_many([])
    fed.emit_many(())
    fed.close()
    fresh.close()
    state = SINK_STATES[cls]
    assert state(fed) == state(fresh)


def test_sink_on_disabled_trace_rejected():
    trace = Trace(enabled=False)
    with pytest.raises(ValueError):
        trace.add_sink(RingBufferSink())


def test_sink_restores_record_on_no_retention_trace():
    """A retention-free trace has no consumer path (hooks build no events);
    attaching a sink must compile one so events actually flow."""
    trace = Trace()  # keep_events=False -> nothing consumes events
    trace.note(0, "before")
    sink = trace.add_sink(RingBufferSink())
    trace.note(0, "x")
    assert sink.events_seen == 1


def test_jsonl_sink_writes_valid_schema(tmp_path):
    path = tmp_path / "trace.jsonl"
    result = api.run_weak_coin(4, seed=0, sinks=[JsonlSink(path)])
    count, problems = validate_jsonl(path)
    assert problems == []
    assert count > 0
    # Every send and delivery was streamed.
    assert count >= result.trace.messages_sent + result.trace.messages_delivered


def test_jsonl_sink_closed_by_runtime(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    api.run_weak_coin(4, seed=0, sinks=[sink])
    with pytest.raises(ValueError):
        sink.emit(TraceEvent(0, "note", None, "late"))
    sink.close()  # idempotent


class _FailingSink(TraceSink):
    """Raises from ``emit`` at the ``fail_at``-th event, and/or from ``close``."""

    def __init__(self, fail_at=None, fail_close=False):
        self.fail_at = fail_at
        self.fail_close = fail_close
        self.seen = 0
        self.closed = 0

    def emit(self, event):
        if self.seen == self.fail_at:
            raise RuntimeError("emit failed")
        self.seen += 1

    def close(self):
        self.closed += 1
        if self.fail_close:
            raise RuntimeError("close failed")


def _fanout(step, sender, n=4):
    return FanoutEntry(sender, ("s",), "K", ("K", step), None, step * n, None, "s"), n


def test_close_sinks_closes_every_sink_when_the_final_pump_raises(tmp_path):
    """With delivery deferred, ``close_sinks`` itself pumps: a sink failing
    there must not leave the file sink behind it open or short."""
    path = tmp_path / "trace.jsonl"
    trace = Trace(keep_events="all")
    failing = trace.add_sink(_FailingSink(fail_at=6))  # mid second fan-out
    jsonl = trace.add_sink(JsonlSink(path))
    last = trace.add_sink(_FailingSink())
    handle = jsonl._handle
    trace.driving = True  # as inside Network.run: fan-outs wait in the log
    for step in range(3):
        trace.on_fanout(step, *_fanout(step, sender=step))
    assert path.read_text() == "" and failing.seen == 0
    with pytest.raises(RuntimeError, match="emit failed"):
        trace.close_sinks()
    assert handle.closed and failing.closed == last.closed == 1
    reference = trace.events
    assert len(reference) == 12
    assert path.read_text().splitlines() == [
        json.dumps(event_to_jsonable(event), sort_keys=True)
        for event in reference[:4]  # whole up to the batch of the failing event
    ]


def test_close_sinks_closes_every_sink_when_an_earlier_close_raises(tmp_path):
    path = tmp_path / "trace.jsonl"
    trace = Trace()
    first = trace.add_sink(_FailingSink(fail_close=True))
    jsonl = trace.add_sink(JsonlSink(path))
    second = trace.add_sink(_FailingSink(fail_close=True))
    handle = jsonl._handle
    trace.driving = True
    trace.on_fanout(0, *_fanout(0, sender=1))
    with pytest.raises(RuntimeError, match="close failed"):
        trace.close_sinks()
    assert handle.closed and first.closed == second.closed == 1
    assert len(path.read_text().splitlines()) == 4  # pumped, flushed, whole


def test_a_failing_sink_does_not_leak_the_file_sink_of_a_run(tmp_path):
    path = tmp_path / "trace.jsonl"
    whole = RingBufferSink(capacity=10**6)
    api.run_weak_coin(4, seed=0, sinks=[whole])
    jsonl = JsonlSink(path)
    handle = jsonl._handle
    with pytest.raises(RuntimeError, match="emit failed"):
        api.run_weak_coin(4, seed=0, sinks=[_FailingSink(fail_at=100), jsonl])
    assert handle.closed
    lines = path.read_text().splitlines()
    assert 100 - 4 <= len(lines) <= 100  # up to the (n=4) batch of event 100
    assert lines == [
        json.dumps(event_to_jsonable(event), sort_keys=True, default=repr)
        for event in list(whole.events)[: len(lines)]
    ]


def test_multiple_sinks_see_identical_streams(tmp_path):
    ring = RingBufferSink(capacity=10**6)
    path = tmp_path / "trace.jsonl"
    api.run_weak_coin(4, seed=0, sinks=[ring, JsonlSink(path)])
    lines = path.read_text().splitlines()
    assert len(lines) == ring.events_seen
    assert json.loads(lines[-1]) == event_to_jsonable(ring.events[-1])


# ----------------------------------------------------------------------
# Schema.
# ----------------------------------------------------------------------
def test_event_to_jsonable_send_shape():
    ring = RingBufferSink(capacity=10**6)
    api.run_weak_coin(4, seed=0, sinks=[ring])
    sends = [e for e in ring.events if e.kind == "send"]
    data = event_to_jsonable(sends[0])
    for field in ("step", "kind", "sender", "receiver", "session", "msg_kind", "seq"):
        assert field in data, field
    assert validate_event(data) == []


def test_validate_event_flags_problems():
    assert validate_event({"kind": "nonsense", "step": 0})
    assert validate_event({"kind": "send", "step": 0})  # missing message fields
    assert validate_event({"kind": "note", "detail": "x"})  # missing step


def test_validate_jsonl_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"step": 0, "kind": "note", "detail": "ok"})
        + "\n{not json}\n"
        + json.dumps({"step": 1, "kind": "bogus"})
        + "\n"
    )
    count, problems = validate_jsonl(path)
    assert count == 3
    assert len(problems) == 2


def test_a_trace_of_every_event_kind_validates(tmp_path):
    """restart-storm at n=7 emits every kind but ``note``, which is appended."""
    path = tmp_path / "trace.jsonl"
    result = run_scenario("restart-storm", n=7, seed=0, sinks=[JsonlSink(path)])
    note = TraceEvent(result.steps, "note", None, {"restarts": {1, 2}})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(event_to_jsonable(note), sort_keys=True) + "\n")
    lines = path.read_text().splitlines()
    assert {json.loads(line)["kind"] for line in lines} == EVENT_KINDS
    assert validate_jsonl(path) == (len(lines), [])


def test_a_set_output_reads_the_same_in_the_trace_and_the_store(tmp_path):
    """One serialiser: a CommonSubset's frozenset in a JSONL ``complete``
    event and in a stored aggregate."""
    from repro.core.results import TrialAggregate
    from repro.experiments.store import ResultStore

    path = tmp_path / "trace.jsonl"
    result = api.run_common_subset(4, [0, 1, 2], seed=0, sinks=[JsonlSink(path)])
    assert isinstance(result.agreed_value, frozenset)
    events = [json.loads(line) for line in path.read_text().splitlines()]
    traced = [
        event["value"] for event in events
        if event["kind"] == "complete" and event["session"] == ["common_subset_harness"]
    ]
    aggregate = TrialAggregate()
    aggregate.add(result)
    store = ResultStore(tmp_path / "store.json")
    store.put("cell", "hash", aggregate)
    store.save()
    stored = ResultStore.open(tmp_path / "store.json").get("cell").to_dict()["outputs"]
    assert traced == [sorted(result.agreed_value)] * 4
    assert stored == [traced[0]]
