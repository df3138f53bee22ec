"""The event plane's contract: tuple events, one record log, batches.

Every consumer -- an ``emit``-only sink, a sink that also takes
``emit_many`` batches, the ``keep_events`` ring -- must observe the same
event sequence, and that sequence must be the one a per-message ``submit``
loop produces: batching a fan-out is a delivery detail of the trace, never a
change to what was recorded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.adversary import attacks
from repro.core import api
from repro.core.config import ProtocolParams
from repro.errors import SimulationError
from repro.experiments.spec import BehaviorSpec
from repro.net import tracing
from repro.net.message import Message
from repro.net.network import Network
from repro.net.protocol import Protocol
from repro.net.queues import FanoutEntry, SurvivorsEntry
from repro.net.runtime import Simulation
from repro.net.tracing import DEFAULT_EVENT_CAPACITY, EventRing, Trace, TraceEvent
from repro.obs.schema import event_to_jsonable
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink
from repro.obs.timeline import TimelineBuilder
from repro.protocols.weak_coin import WeakCommonCoin
from repro.scenarios import run_scenario
from repro.scenarios.engine import ScenarioRuntime
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import CorruptionPlan, StaticCorruption


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
    # Full broadcasts/ROWs and POINTs skipping self, the bad-share dealer's
    # too: its mutator maps the copies of one fan-out, so each of its
    # mutated RECROW broadcasts is one batch of 8.
    assert sizes == {8, 7}
    mutated = [
        len(batch) for batch in batching.batches
        if batch[0].party == 2 and batch[0].detail.kind == "RECROW"
    ]
    assert mutated == [8] * 8


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


def test_every_consumer_counts_every_kind_of_a_tampered_trial(monkeypatch):
    """``tamper-on-share`` at n=7, with the coalition split: party 6 tampers
    (its mutator maps the copies of each of its POINT fan-outs, submitted as
    one survivors entry; its other fan-outs go out as an honest party's) and
    party 5 deals bad shares (its RECROW fan-outs are survivors entries; shuns,
    and drops of its later messages).  A note per phase puts ``note`` events in the log
    mid-drive too.  The log counts each pump's events per kind; the
    keep-everything ring, a 64-event ring and an emit-only sink must agree
    on all of it."""
    base = get_scenario("tamper-on-share")
    spec = dataclasses.replace(
        base,
        timeline=[dataclasses.replace(base.timeline[0], select=6)],
        corruption=CorruptionPlan(
            static=[StaticCorruption(select=5, behavior=BehaviorSpec("bad_share"))],
        ),
    )
    lone_sends, mutated_fanouts = [], []
    on_fanout, on_phase = Trace.on_fanout, Trace.on_phase

    def counting_on_fanout(self, step, entry, size):
        if isinstance(entry, Message):  # a lone send: the one-copy fan-out of itself
            lone_sends.append(step)
        elif isinstance(entry, SurvivorsEntry):  # a fan-out its mutator could touch
            mutated_fanouts.append((entry.sender, entry.kind))
        on_fanout(self, step, entry, size)

    def noting_on_phase(self, step, party, session, phase):
        on_phase(self, step, party, session, phase)
        self.note(step, (party, phase))

    monkeypatch.setattr(Trace, "on_fanout", counting_on_fanout)
    monkeypatch.setattr(Trace, "on_phase", noting_on_phase)
    runtime = ScenarioRuntime(spec, n=7)
    ring, emit_only = RingBufferSink(64), EmitOnlySink()
    sim = Simulation(ProtocolParams.for_parties(7), seed=0, keep_events="all",
                     scheduler=runtime.build_scheduler(),
                     director=runtime.build_director(), sinks=[ring, emit_only])
    for pid, factory in runtime.static_corruptions().items():
        sim.corrupt(pid, factory)
    trace = sim.run(("weak_coin",), WeakCommonCoin.factory()).trace

    kept = trace.events
    by_kind = Counter(event.kind for event in kept)
    assert set(by_kind) == {
        "send", "deliver", "drop", "complete", "shun", "corrupt", "phase",
        "session_open", "director", "note",
    }
    # Only the declared kinds reach a mutator: tamper's POINT, bad share's RECROW.
    assert set(mutated_fanouts) == {(6, "POINT"), (5, "RECROW")}
    assert lone_sends == []
    assert emit_only.events == kept
    assert list(ring.events) == kept[-64:]
    for counted in (trace._ring, ring):
        assert counted.events_seen == len(kept)
        assert counted.counts_by_kind == by_kind
        assert all(count > 0 for count in counted.counts_by_kind.values())


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
    entry = FanoutEntry(1, ("s",), "K", ("K",), None, 0, None, "s")
    trace.on_fanout(0, entry, 4)
    fanout = [Message(1, receiver, ("s",), ("K",), seq=receiver) for receiver in range(4)]
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


# ----------------------------------------------------------------------
# The record log (net/tracing.py): message events wait in a log and are
# expanded on their way to a sink, or on read by a ring.  However a consumer
# is fed, it holds the reference stream -- the unbounded retention ring.
# ----------------------------------------------------------------------
RING_CAPACITIES = (1, 7, 4096, 10**6)


def _run_weak_coin(sinks):
    return _shunning_weak_coin(sinks, keep_events="all").trace.events


def _run_scenario(name):
    def run(sinks):
        reference = EventRing(None)  # what keep_events="all" is
        run_scenario(name, n=8, seed=11, sinks=[reference] + sinks)
        return list(reference.events)

    return run


WORKLOADS = {
    "shunning-weak-coin": (_run_weak_coin, {"drop", "shun", "complete", "phase"}),
    "dealer-ambush": (_run_scenario("dealer-ambush"), {"director", "corrupt"}),
    "restart-storm": (
        _run_scenario("restart-storm"), {"director", "corrupt", "drop", "shun"},
    ),
}


def _jsonl_lines(events):
    return [
        json.dumps(event_to_jsonable(event), sort_keys=True, default=repr)
        for event in events
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_consumer_holds_the_reference_stream(workload, tmp_path):
    run, kinds = WORKLOADS[workload]
    emit_only, batching = EmitOnlySink(), BatchSink()
    rings = [RingBufferSink(capacity) for capacity in RING_CAPACITIES]
    path = tmp_path / "trace.jsonl"
    live = TimelineBuilder()
    reference = run([emit_only, batching, *rings, JsonlSink(path), live])

    assert kinds | {"send", "deliver", "session_open"} <= {e.kind for e in reference}
    assert emit_only.events == reference
    assert batching.events == reference
    by_kind = Counter(event.kind for event in reference)
    for ring in rings:
        first_read = list(ring.events)
        assert first_read == reference[-ring.capacity:]
        assert list(ring.events) == first_read  # reading builds events, keeps records
        assert ring.tail(3) == reference[-3:][-ring.capacity:]
        assert ring.events_seen == len(reference)
        assert ring.events_dropped == max(0, len(reference) - ring.capacity)
        assert ring.counts_by_kind == by_kind
        assert all(type(event) is TraceEvent for event in first_read)
    assert path.read_text().splitlines() == _jsonl_lines(reference)
    one_by_one = TimelineBuilder()
    for event in reference:
        one_by_one.add(event_to_jsonable(event))
    assert live.events_seen == len(reference)
    assert live.render_text() == one_by_one.render_text()


@pytest.mark.parametrize("keep_events", [True, 5, 4096, "all"])
def test_keep_events_is_the_tail_of_the_reference(keep_events):
    reference = _run_weak_coin([])
    trace = _shunning_weak_coin([], keep_events=keep_events).trace
    capacity = {True: DEFAULT_EVENT_CAPACITY, "all": len(reference)}.get(
        keep_events, keep_events
    )
    assert _plain(trace.events) == _plain(reference[-capacity:])
    assert trace.events_dropped == max(0, len(reference) - capacity)
    assert trace.summary()["messages_delivered"] == sum(
        1 for event in reference if event.kind == "deliver"
    )


def test_the_stream_is_the_one_the_per_event_plane_wrote(tmp_path):
    """Pinned at the commit before the record log: same bytes, same ring."""
    path = tmp_path / "trace.jsonl"
    live, ring = TimelineBuilder(), RingBufferSink(4096)
    api.run_weak_coin(7, seed=11, sinks=[JsonlSink(path), live, ring])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "551ea8e1ffd7f9c3a6a43de555a0e5a9a730401e1557802b6ad1a49712da2d43"
    )
    assert hashlib.sha256(live.render_text().encode()).hexdigest().startswith(
        "0343d86174c20ca8"
    )
    assert ring.events_seen == 2225
    assert hashlib.sha256(repr(list(ring.events)).encode()).hexdigest().startswith(
        "62f3b890100dab4"
    )


class _ReadingDirector:
    """Reads a ring (directly, and through the trace) every few steps."""

    def __init__(self, ring):
        self.ring = ring
        self.wake_step = 1
        self.reads = []

    def attach(self, network):
        self.network = network

    def on_session_open(self, pid, session):
        pass

    def on_complete(self, pid, session):
        pass

    def on_step(self, step):
        direct = list(self.ring.events)
        assert list(self.ring.events) == direct
        through_trace = self.network.trace.events  # pumps: the ring is current
        current = list(self.ring.events)
        assert current == through_trace[-self.ring.capacity:]
        assert current[-1].step == step  # this delivery, or what its handler did
        self.reads.append(len(direct))
        self.wake_step = step + 37


@pytest.mark.parametrize("capacity", [7, 4096])
def test_reading_a_ring_mid_run_changes_nothing_later(capacity):
    def run(director, ring):
        sim = Simulation(ProtocolParams.for_parties(8), seed=1, keep_events="all",
                         sinks=[ring], director=director)
        sim.corrupt(2, attacks.BadShareBehavior.factory())
        return sim.run(("weak_coin",), WeakCommonCoin.factory())

    undisturbed = RingBufferSink(capacity)
    reference = run(None, undisturbed).trace.events
    read_from = RingBufferSink(capacity)
    director = _ReadingDirector(read_from)
    assert _plain(run(director, read_from).trace.events) == _plain(reference)
    assert len(director.reads) > 20
    assert _plain(read_from.events) == _plain(undisturbed.events)
    assert read_from.events_seen == undisturbed.events_seen
    assert read_from.counts_by_kind == undisturbed.counts_by_kind


def _started_weak_coin(sinks, **network_kwargs):
    network = Network(ProtocolParams.for_parties(4), seed=3, keep_events="all",
                      sinks=sinks, **network_kwargs)
    for process in network.processes:
        process.create_protocol(("weak_coin",), WeakCommonCoin.factory()).start()
    return network


def _assert_current(network, emit_only, ring):
    """The sinks hold everything recorded -- checked before the trace is read,
    because a read through the trace pumps."""
    got, seen, kept = list(emit_only.events), ring.events_seen, list(ring.events)
    reference = network.trace.events
    assert got == reference
    assert seen == len(reference)
    assert kept == reference[-ring.capacity:]


def test_sinks_are_current_whenever_control_returns_from_the_network():
    emit_only, ring = EmitOnlySink(), RingBufferSink(64)
    network = _started_weak_coin([emit_only, ring])
    _assert_current(network, emit_only, ring)  # the sends of on_start
    for _ in range(50):
        assert network.step()
        _assert_current(network, emit_only, ring)
        assert emit_only.events[-1].step == network.step_count
    network.run(until=lambda net: net.step_count >= 100)
    _assert_current(network, emit_only, ring)
    network.trace.note(network.step_count, "between drives")
    assert emit_only.events[-1].detail == ring.events[-1].detail == "between drives"
    network.run_until_complete(("weak_coin",))
    _assert_current(network, emit_only, ring)
    delivered = network.trace.messages_delivered
    network.run_to_quiescence()
    _assert_current(network, emit_only, ring)
    assert network.trace.messages_delivered == network.step_count > delivered


def test_a_flight_recorder_holds_the_events_up_to_the_failure(monkeypatch):
    emit_only, ring = EmitOnlySink(), RingBufferSink(64)
    network = _started_weak_coin([emit_only, ring])
    with pytest.raises(SimulationError, match="exceeded 30 deliveries"):
        network.run_until_complete(("weak_coin",), max_steps=30)
    _assert_current(network, emit_only, ring)
    assert network.trace.messages_delivered == 30

    # A handler that raises: the last event anyone holds is its delivery.  The
    # fault is injected in the handlers themselves (every protocol class the
    # run has instances of), which is where the loop hands a copy over.
    fail_at, failed_at = network.step_count + 25, []

    def failing(on_message):
        def failing_on_message(self, sender, payload):
            step = self.process.network.step_count
            if not failed_at and step >= fail_at:
                failed_at.append(step)
                raise RuntimeError("handler failed")
            on_message(self, sender, payload)

        return failing_on_message

    for cls in {type(p) for process in network.processes for p in process.protocols.values()}:
        monkeypatch.setattr(cls, "on_message", failing(cls.on_message))
    with pytest.raises(RuntimeError, match="handler failed"):
        network.run_until_complete(("weak_coin",))
    last = ring.events[-1]
    assert failed_at[0] - fail_at < 5  # the first handler call from fail_at on
    assert (last.step, last.kind) == (failed_at[0], "deliver")
    assert emit_only.events[-1] == last
    _assert_current(network, emit_only, ring)
    assert network.trace.messages_delivered == network.step_count == failed_at[0]
    assert not network.trace.driving


def test_the_log_is_bounded_by_a_constant_plus_the_messages_in_flight(monkeypatch):
    """50k deliveries: at no pump does the log hold more than ``LOG_BOUND``
    records plus one per message that was in flight when the last fan-out or
    event was logged -- every record but a delivery is one (a ``phase`` as
    much as a fan-out), the bound is checked there, and a delivery not
    followed by one uses up one of those messages.  While the run chatters,
    its phase events outnumber its fan-outs three to one; it ends in a tail of
    20k deliveries with no other record between them.  Fan-outs reach the log
    as group records (every queue holds them as groups, traced or not)."""
    n = 32
    sizes, allowed, fanouts, phases = [], [], [], []
    in_flight_at_last_check = 0
    pump, on_fanout, record = Trace.pump, Trace.on_fanout, Trace.record

    def spying_pump(self):
        sizes.append(len(self._log))
        allowed.append(tracing.LOG_BOUND + in_flight_at_last_check)
        pump(self)

    def spying_on_fanout(self, step, entry, size):
        nonlocal in_flight_at_last_check
        fanouts.append(size)
        on_fanout(self, step, entry, size)
        in_flight_at_last_check = len(network._queue)

    def spying_record(self, step, kind, party, detail):
        nonlocal in_flight_at_last_check
        if kind == "phase":
            phases.append(step)
        record(self, step, kind, party, detail)
        in_flight_at_last_check = len(network._queue)

    monkeypatch.setattr(Trace, "pump", spying_pump)
    monkeypatch.setattr(Trace, "on_fanout", spying_on_fanout)
    monkeypatch.setattr(Trace, "record", spying_record)
    network = Network(ProtocolParams.for_parties(n), seed=5, sinks=[EmitOnlySink()])
    trace = network.trace

    class Chatter(Protocol):
        """Re-broadcasts on every 20th delivery and enters a phase on three
        others, until 1 600 broadcasts are out."""

        sent = 0

        def on_start(self, **_):
            self.broadcast("M", 0)

        def on_message(self, sender, payload):
            if Chatter.sent >= 1600:
                return
            step = network.step_count
            if step % 20 == 0:
                Chatter.sent += 1
                self.broadcast("M", Chatter.sent)
            elif step % 5 == 0:
                self.annotate_phase(f"step-{step}")

    for process in network.processes:
        process.create_protocol(("chatter",), lambda p, s: Chatter(p, s)).start()
    network.run_to_quiescence()

    assert network.step_count > 50_000
    assert fanouts == [n] * (n + Chatter.sent)  # every broadcast, as one record
    assert len(phases) > 2 * len(fanouts)
    assert all(size <= limit for size, limit in zip(sizes, allowed))
    # The check pumped (nothing else does in this run until the drive exits) ...
    assert sum(1 for size in sizes if size >= tracing.LOG_BOUND) > 30
    # ... and the record-free tail was pumped when the drive exited.
    assert sizes[-1] > 15_000
    assert trace._log == [] and len(network._queue) == 0
    assert len(trace.sinks[0].events) == (
        trace.messages_sent + network.step_count + n + len(phases)  # + session_opens
    )


def test_an_observed_trial_calls_its_consumers_a_few_dozen_times(monkeypatch):
    """Every event is a record: while the network delivers, the log is pumped
    only when it reaches ``LOG_BOUND`` -- not at every phase, session-open,
    completion or lone send (1 905 non-empty pumps in this trial when those
    pumped the log; 42 394 deliveries, ~3 000 such events)."""
    pumps_while_driving = []
    pump = Trace.pump

    def spying_pump(self):
        if self.driving and self._log:
            pumps_while_driving.append(len(self._log))
        pump(self)

    monkeypatch.setattr(Trace, "pump", spying_pump)
    ring = RingBufferSink()
    result = api.run_coinflip(
        n=16, seed=3, rounds=1, tracing=True, metrics=True, sinks=[ring],
    )
    assert result.trace.messages_delivered > 40_000
    assert ring.events_seen > 85_000
    assert 0 < len(pumps_while_driving) <= 60
    assert min(pumps_while_driving) >= tracing.LOG_BOUND
