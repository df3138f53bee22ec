"""Tests for streaming trace sinks, event retention tiers and the schema."""

from __future__ import annotations

import json

import pytest

from repro.core import api
from repro.net.tracing import DEFAULT_EVENT_CAPACITY, Trace, TraceEvent
from repro.obs.schema import event_to_jsonable, validate_event, validate_jsonl
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink


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
