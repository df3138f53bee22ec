"""The event plane's contract: tuple events, a compiled consumer path, batches.

Every consumer -- an ``emit``-only sink, a sink that also takes
``emit_many`` batches, the ``keep_events`` ring -- must observe the same
event sequence, and that sequence must be the one a per-message ``submit``
loop produces: batching a fan-out is a delivery detail of the trace, never a
change to what was recorded.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import attacks
from repro.core.config import ProtocolParams
from repro.net.message import Message
from repro.net.network import Network
from repro.net.runtime import Simulation
from repro.net.tracing import Trace, TraceEvent
from repro.obs.schema import event_to_jsonable
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink
from repro.obs.timeline import TimelineBuilder
from repro.protocols.weak_coin import WeakCommonCoin
from repro.scenarios import run_scenario


class EmitOnlySink:
    """A third-party sink: duck-typed, defines nothing but ``emit``."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class BatchSink(TraceSink):
    """Takes batches and remembers how the events arrived."""

    def __init__(self):
        self.events = []
        self.batches = []

    def emit(self, event):
        self.events.append(event)

    def emit_many(self, events):
        self.batches.append(list(events))
        self.events.extend(events)


def _plain(events):
    """Events as comparable tuples (messages spelled out field by field)."""
    rows = []
    for step, kind, party, detail in events:
        if kind in ("send", "deliver"):
            detail = (detail.sender, detail.receiver, detail.session,
                      detail.payload, detail.seq)
        elif kind == "drop":
            reason, message = detail
            detail = (reason, message.sender, message.receiver, message.seq)
        rows.append((step, kind, party, repr(detail)))
    return rows


def _shunning_weak_coin(sinks, keep_events=False, seed=1):
    """Weak coin at n=8 with a bad-share dealer: broadcasts, ROW/POINT
    fan-outs (POINT skips the sender), shuns and shun drops."""
    sim = Simulation(ProtocolParams.for_parties(8), seed=seed,
                     keep_events=keep_events, sinks=sinks)
    sim.corrupt(2, attacks.BadShareBehavior.factory())
    return sim.run(("weak_coin",), WeakCommonCoin.factory())


def test_every_consumer_sees_the_same_sequence():
    emit_only, batching, ring = EmitOnlySink(), BatchSink(), RingBufferSink(10**6)
    result = _shunning_weak_coin([emit_only, batching, ring], keep_events="all")
    kept = result.trace.events
    kinds = {event.kind for event in kept}
    assert {"send", "deliver", "drop", "shun", "complete"} <= kinds
    assert emit_only.events == kept
    assert batching.events == kept
    assert list(ring.events) == kept
    assert ring.events_seen == len(kept)
    assert dict(ring.counts_by_kind) == {
        kind: sum(1 for event in kept if event.kind == kind) for kind in kinds
    }


def test_a_batch_is_the_sends_of_one_fanout():
    batching = BatchSink()
    _shunning_weak_coin([batching])
    assert batching.batches
    sizes = set()
    for batch in batching.batches:
        sizes.add(len(batch))
        assert {event.kind for event in batch} == {"send"}
        assert len({event.step for event in batch}) == 1
        assert len({event.party for event in batch}) == 1  # one sender
        receivers = [event.detail.receiver for event in batch]
        assert receivers == sorted(receivers)
        seqs = [event.detail.seq for event in batch]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
    assert sizes == {8, 7}  # full broadcasts/ROWs, and POINTs skipping self


def test_batched_fanouts_record_what_a_submit_loop_records(monkeypatch):
    batched = _shunning_weak_coin([], keep_events="all")

    # Every fan-out -- submit_broadcast, submit_fanout, Protocol.broadcast --
    # goes through this one method.
    def fanout_by_submit(self, sender, session, kind, payload, values, skip):
        for receiver in range(self.params.n):
            if receiver != skip:
                self.submit(
                    sender, receiver, session,
                    payload if values is None else (kind, values[receiver]),
                )

    monkeypatch.setattr(Network, "_submit_fanout", fanout_by_submit)
    looped = _shunning_weak_coin([], keep_events="all")

    assert _plain(batched.trace.events) == _plain(looped.trace.events)
    assert batched.trace.summary() == looped.trace.summary()
    assert batched.outputs == looped.outputs


def test_jsonl_and_timeline_consume_batches_like_single_events(tmp_path):
    path = tmp_path / "trace.jsonl"
    live = TimelineBuilder()
    result = _shunning_weak_coin([JsonlSink(path), live], keep_events="all")
    kept = result.trace.events
    assert path.read_text().splitlines() == [
        json.dumps(event_to_jsonable(event), sort_keys=True, default=repr)
        for event in kept
    ]
    one_by_one = TimelineBuilder()
    for event in kept:
        one_by_one.add(event_to_jsonable(event))
    assert live.events_seen == one_by_one.events_seen == len(kept)
    assert live.max_step == one_by_one.max_step
    assert live.render_text() == one_by_one.render_text()


def test_scenario_director_events_reach_every_sink():
    emit_only, batching, ring = EmitOnlySink(), BatchSink(), RingBufferSink(10**6)
    run_scenario("dealer-ambush", n=8, seed=11, sinks=[emit_only, batching, ring])
    assert ring.counts_by_kind["director"] > 0
    assert ring.counts_by_kind["corrupt"] > 0
    assert emit_only.events == batching.events == list(ring.events)


def test_sink_attached_mid_run_sees_only_later_events():
    trace = Trace(keep_events="all")
    trace.note(0, "early")
    late = trace.add_sink(EmitOnlySink())
    trace.note(1, "late")
    assert [event.detail for event in trace.events] == ["early", "late"]
    assert [event.detail for event in late.events] == ["late"]


def test_trace_event_is_an_immutable_named_tuple():
    event = TraceEvent(3, "note", None, "x")
    assert (event.step, event.kind, event.party, event.detail) == (3, "note", None, "x")
    assert event == (3, "note", None, "x")
    step, kind, party, detail = event
    assert (step, kind, party, detail) == (3, "note", None, "x")
    with pytest.raises(AttributeError):
        event.step = 4
    with pytest.raises(AttributeError):
        event.extra = 1  # no instance dict: an event is exactly its four fields
    assert event._replace(step=4).step == 4 and event.step == 3


def test_ring_retention_accounts_for_evicted_events():
    trace = Trace(keep_events=5)
    sink = trace.add_sink(RingBufferSink(capacity=3))
    fanout = [Message(1, receiver, ("s",), ("K",), seq=receiver) for receiver in range(4)]
    trace.on_send_many(0, fanout, "K", "s")
    for step in range(1, 4):
        trace.note(step, step)
    assert [event.kind for event in trace.events] == ["send"] * 2 + ["note"] * 3
    assert [event.detail for event in trace.events][:2] == fanout[2:]
    assert trace.events_dropped == 2
    assert trace.summary()["events_dropped"] == 2
    assert trace.summary()["sent_by_kind"] == {"K": 4}
    assert sink.events_seen == 7 and sink.events_dropped == 4
    assert sink.counts_by_kind == {"send": 4, "note": 3}
    assert Trace().events_dropped == 0  # nothing retained, nothing evicted
