"""Tests for the network, process and protocol runtime plumbing."""

from __future__ import annotations

import pytest

from repro.core.config import ProtocolParams
from repro.errors import ProtocolError, SimulationError
from repro.net.network import Network
from repro.net.protocol import Protocol
from repro.net.queues import FanoutEntry
from repro.net.scheduler import FIFOScheduler

PARAMS = ProtocolParams.for_parties(4)


class Echo(Protocol):
    """Test protocol: replies PONG to every PING, completes after `goal` pongs."""

    def __init__(self, process, session, goal=1):
        super().__init__(process, session)
        self.goal = goal
        self.pongs = 0
        self.log = []

    def on_start(self, ping_target=None, **_):
        if ping_target is not None:
            self.send(ping_target, "PING")

    def on_message(self, sender, payload):
        self.log.append((sender, payload))
        if payload and payload[0] == "PING":
            self.send(sender, "PONG")
        elif payload and payload[0] == "PONG":
            self.pongs += 1
            if self.pongs >= self.goal and not self.finished:
                self.complete(self.pongs)


def echo_factory(goal=1):
    def build(process, session):
        return Echo(process, session, goal=goal)

    return build


class Parent(Protocol):
    """Test protocol spawning an Echo child and completing with its output."""

    def on_start(self, **_):
        self.spawn("child", echo_factory(), ping_target=(self.pid + 1) % self.n)

    def on_child_complete(self, child):
        self.complete(("child-done", child.output))


class TestNetworkBasics:
    def _network(self, **kwargs):
        return Network(PARAMS, scheduler=FIFOScheduler(), seed=0, **kwargs)

    def test_step_with_no_messages(self):
        assert self._network().step() is False

    def test_submit_to_unknown_party_rejected(self):
        network = self._network()
        with pytest.raises(SimulationError):
            network.submit(0, 9, ("echo",), ("PING",))

    def test_ping_pong_roundtrip(self):
        network = self._network()
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        b = network.processes[1].create_protocol(("echo",), echo_factory())
        a.start(ping_target=1)
        b.start()
        network.run_to_quiescence()
        assert a.finished and a.output == 1
        assert not b.finished

    def test_run_until_condition(self):
        network = self._network()
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        network.processes[1].create_protocol(("echo",), echo_factory()).start()
        a.start(ping_target=1)
        delivered = network.run(until=lambda net: a.finished)
        assert a.finished
        assert delivered >= 2

    def test_run_detects_deadlock(self):
        network = self._network()
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        a.start()  # never pings, never completes
        with pytest.raises(SimulationError):
            network.run(until=lambda net: a.finished)

    def test_run_respects_max_steps(self):
        network = self._network()

        class Chatter(Protocol):
            def on_start(self, **_):
                self.send(self.pid, "LOOP")

            def on_message(self, sender, payload):
                self.send(self.pid, "LOOP")

        network.processes[0].create_protocol(("chat",), lambda p, s: Chatter(p, s)).start()
        with pytest.raises(SimulationError):
            network.run(until=lambda net: False, max_steps=50)

    def test_trace_counts_messages(self):
        network = self._network()
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        network.processes[1].create_protocol(("echo",), echo_factory()).start()
        a.start(ping_target=1)
        network.run_to_quiescence()
        assert network.trace.messages_sent == 2
        assert network.trace.messages_delivered == 2
        assert network.trace.sent_by_kind["PING"] == 1
        assert network.trace.sent_by_kind["PONG"] == 1

    def test_determinism_same_seed(self):
        def run(seed):
            network = Network(PARAMS, seed=seed)
            for process in network.processes:
                process.create_protocol(("echo",), echo_factory(goal=3)).start(
                    ping_target=(process.pid + 1) % 4
                )
            network.run_to_quiescence()
            return [p.protocol(("echo",)).pongs for p in network.processes]

        assert run(7) == run(7)

    def test_honest_outputs_and_all_finished(self):
        network = self._network()
        for process in network.processes:
            process.create_protocol(("echo",), echo_factory()).start(
                ping_target=(process.pid + 1) % 4
            )
        network.run_to_quiescence()
        assert network.all_honest_finished(("echo",))
        assert set(network.honest_outputs(("echo",))) == {0, 1, 2, 3}


class TestBuffering:
    def test_messages_before_creation_are_buffered_and_replayed(self):
        network = Network(PARAMS, scheduler=FIFOScheduler(), seed=0)
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        a.start(ping_target=1)
        network.run_to_quiescence()  # PING delivered, buffered at party 1
        b = network.processes[1].create_protocol(("echo",), echo_factory())
        assert not b.log
        b.start()
        assert b.log  # replayed after start
        network.run_to_quiescence()
        assert a.finished

    def test_messages_before_start_are_buffered(self):
        network = Network(PARAMS, scheduler=FIFOScheduler(), seed=0)
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        b = network.processes[1].create_protocol(("echo",), echo_factory())
        a.start(ping_target=1)
        network.run_to_quiescence()
        assert not b.log
        b.start()
        network.run_to_quiescence()
        assert a.finished


class TestProtocolLifecycle:
    def test_double_start_rejected(self):
        network = Network(PARAMS, seed=0)
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        a.start()
        with pytest.raises(ProtocolError):
            a.start()

    def test_complete_is_idempotent(self):
        network = Network(PARAMS, seed=0)
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        a.start()
        a.complete("first")
        a.complete("second")
        assert a.output == "first"

    def test_completion_recorded_in_trace(self):
        network = Network(PARAMS, seed=0)
        a = network.processes[0].create_protocol(("echo",), echo_factory())
        a.start()
        a.complete(42)
        assert network.trace.completed_value(0, ("echo",)) == 42

    def test_spawn_notifies_parent(self):
        network = Network(PARAMS, scheduler=FIFOScheduler(), seed=0)
        for process in network.processes:
            process.create_protocol(("parent",), lambda p, s: Parent(p, s)).start()
        network.run_to_quiescence()
        for process in network.processes:
            parent = process.protocol(("parent",))
            assert parent.finished
            assert parent.output[0] == "child-done"

    def test_create_protocol_is_idempotent(self):
        network = Network(PARAMS, seed=0)
        first = network.processes[0].create_protocol(("echo",), echo_factory())
        second = network.processes[0].create_protocol(("echo",), echo_factory())
        assert first is second

    def test_broadcast_includes_self(self):
        network = Network(PARAMS, scheduler=FIFOScheduler(), seed=0)

        class Shout(Protocol):
            def on_start(self, **_):
                self.broadcast("HELLO")

        network.processes[0].create_protocol(("shout",), lambda p, s: Shout(p, s)).start()
        assert network.trace.messages_sent == 4
        receivers = {m.receiver for m in network.pending}
        assert receivers == {0, 1, 2, 3}


class TestShunning:
    def test_shun_drops_only_future_sessions(self):
        network = Network(PARAMS, scheduler=FIFOScheduler(), seed=0)
        p0 = network.processes[0]
        old = p0.create_protocol(("old",), echo_factory(goal=99)).start()
        p0.shun(1, ("old",))
        new = p0.create_protocol(("new",), echo_factory(goal=99)).start()
        # Message from party 1 to the pre-existing session is accepted.
        network.submit(1, 0, ("old",), ("PING",))
        # Message from party 1 to the newly created session is dropped.
        network.submit(1, 0, ("new",), ("PING",))
        network.run_to_quiescence()
        assert old.log
        assert not new.log
        assert network.trace.messages_dropped == 1

    @pytest.mark.parametrize("tracing", [True, False])
    def test_buffered_message_from_a_shunned_sender_is_a_reported_drop(self, tracing):
        """The shun rule also applies to what waited for a session to start,
        and a drop there is counted like a drop at delivery -- whether the
        copy arrived as a Message or as one receiver of a fan-out entry."""
        network = Network(PARAMS, seed=0, tracing=tracing, keep_events="all")
        p0 = network.processes[0]
        p0.shun(1, ("old",))
        network.submit(1, 0, ("late",), ("PING",))
        network.submit(2, 0, ("late",), ("PING",))
        for message in network.pending:
            p0.deliver(message)
        entry = FanoutEntry(1, ("late",), "PING", ("PING",), None, 40, None, "late")
        p0.deliver_parts(1, ("late",), ("PING",), entry, 0)
        late = p0.create_protocol(("late",), echo_factory(goal=99))
        assert network.message_stats()["messages_dropped"] == 0
        late.start()
        assert late.log == [(2, ("PING",))]
        assert network.message_stats()["messages_dropped"] == 2
        assert network.message_stats()["dropped_by_reason"] == {"shunned": 2}
        if tracing:
            drops = [e.detail for e in network.trace.events if e.kind == "drop"]
            assert [(reason, m.sender, m.receiver, m.seq) for reason, m in drops] == [
                ("shunned", 1, 0, 0),
                ("shunned", 1, 0, 40),
            ]

    @pytest.mark.parametrize(
        "seed,dropped", [(0, 7), (1, 16), (2, 18), (3, 3), (4, 17), (5, 13)]
    )
    def test_every_delivery_is_handled_dropped_or_still_buffered(
        self, seed, dropped, monkeypatch
    ):
        """A weak coin with a row-corrupting party: honest parties shun it and
        drop what it sends to sessions opened later, much of which arrives
        before those sessions start.  Trace and meter report the same drops,
        and with them the deliveries add up."""
        from repro.adversary.attacks import BadShareBehavior
        from repro.core import api

        handled = []

        def counting(on_message):
            def counted(self, sender, payload):
                handled.append(1)
                on_message(self, sender, payload)

            return counted

        classes = [Protocol]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            if "on_message" in vars(cls):
                monkeypatch.setattr(cls, "on_message", counting(cls.on_message))

        for tracing in (True, False):
            del handled[:]
            result = api.run_weak_coin(
                n=7, seed=seed, tracing=tracing,
                corruptions={2: BadShareBehavior.factory()},
            )
            assert result.message_stats["messages_dropped"] == dropped, tracing
            waiting = sum(
                len(buffered)
                for process in result.network.processes
                for buffered in process._pending.values()
            )
            assert result.steps == len(handled) + dropped + waiting, tracing

    def test_shun_is_recorded_once(self):
        network = Network(PARAMS, seed=0)
        p0 = network.processes[0]
        p0.shun(2, ("s",))
        p0.shun(2, ("s",))
        assert network.trace.total_shun_events() == 1
        assert p0.is_shunning(2)

    def test_self_shun_ignored(self):
        network = Network(PARAMS, seed=0)
        network.processes[0].shun(0, ("s",))
        assert not network.processes[0].is_shunning(0)
        assert network.trace.total_shun_events() == 0


class TestTrace:
    def test_summary_keys(self):
        network = Network(PARAMS, seed=0)
        summary = network.trace.summary()
        assert {"messages_sent", "messages_delivered", "completions", "shun_events"} <= set(
            summary
        )

    def test_events_kept_only_when_requested(self):
        quiet = Network(PARAMS, seed=0)
        quiet.submit(0, 1, ("s",), ("X",))
        assert quiet.trace.events == []
        verbose = Network(PARAMS, seed=0, keep_events=True)
        verbose.submit(0, 1, ("s",), ("X",))
        assert len(verbose.trace.events) == 1


class TestMutatedFanouts:
    """A corrupted sender's fan-out goes through its outgoing mutator once
    per copy and out as one survivors entry -- or, when the mutator
    readdresses a copy, as the lone sends of a per-receiver submit loop."""

    @staticmethod
    def _run(mutator, seed=0):
        from repro.adversary.behaviors import HonestButMutatingBehavior
        from repro.net.runtime import Simulation
        from repro.protocols.weak_coin import WeakCommonCoin

        sim = Simulation(ProtocolParams.for_parties(7), seed=seed, keep_events="all")
        sim.corrupt(3, HonestButMutatingBehavior.factory(mutator))
        return sim.run(("weak_coin",), WeakCommonCoin.factory())

    @staticmethod
    def _stream(result):
        return [
            (step, kind, party, repr(detail))
            for step, kind, party, detail in result.network.trace.events
        ]

    @pytest.mark.parametrize(
        "readdress",
        [
            lambda receiver, session, payload: (
                0 if payload[0] == "READY" else receiver, session, payload
            ),
            lambda receiver, session, payload: (
                receiver, session + ("elsewhere",) if payload[0] == "POINT" else session,
                payload,
            ),
        ],
        ids=["receiver", "session"],
    )
    def test_a_readdressing_mutator_sends_what_a_submit_loop_sends(
        self, readdress, monkeypatch
    ):
        from repro.net.message import Message
        from repro.net.process import Process
        from repro.net.tracing import Trace

        lone = []
        on_fanout = Trace.on_fanout

        def counting(self, step, entry, size):
            if isinstance(entry, Message) and entry.sender == 3:
                lone.append(entry)
            on_fanout(self, step, entry, size)

        monkeypatch.setattr(Trace, "on_fanout", counting)
        mutated = self._run(readdress)
        assert len(lone) > 10
        assert {message.sender for message in lone} == {3}

        def per_receiver_loop(self, sender, session, kind, payload, values, skip):
            for receiver in range(self.params.n):
                if receiver != skip:
                    self.send(
                        receiver, session, payload if values is None else (kind, values[receiver])
                    )

        monkeypatch.setattr(Process, "_send_mutated_fanout", per_receiver_loop)
        looped = self._run(readdress)
        assert self._stream(mutated) == self._stream(looped)
        assert mutated.outputs == looped.outputs

    def test_a_fanout_outside_the_declared_kinds_never_reaches_the_mutator(self):
        """A mutator that declares the kinds it can touch is shown only those
        fan-outs; the others go out as an honest sender's entries, and the
        run is copy for copy the one the same mutator makes undeclared."""
        from repro.adversary.behaviors import HonestButMutatingBehavior
        from repro.net.runtime import Simulation
        from repro.protocols.weak_coin import WeakCommonCoin

        def run(kinds):
            shown = []

            def offset_points(receiver, session, payload):
                shown.append(payload[0])
                if payload[0] == "POINT":
                    return receiver, session, ("POINT", payload[1] + 1)
                return receiver, session, payload

            sim = Simulation(ProtocolParams.for_parties(7), seed=0, keep_events="all")
            sim.corrupt(3, HonestButMutatingBehavior.factory(offset_points, kinds))
            return sim.run(("weak_coin",), WeakCommonCoin.factory()), shown

        declared, shown = run(["POINT"])
        undeclared, shown_undeclared = run(None)
        assert self._stream(declared) == self._stream(undeclared)
        assert declared.outputs == undeclared.outputs
        assert set(shown) == {"POINT"} and set(shown_undeclared) > {"POINT"}

    def test_survivors_keep_each_copys_own_payload(self):
        """Survivors are never merged by equality: a RECROW broadcast whose
        odd copies carry the same row as floats -- equal to the int row --
        still gets its sender shunned by exactly the odd honest receivers."""

        def floats(receiver, session, payload):
            if payload[0] == "RECROW" and receiver % 2:
                return receiver, session, ("RECROW", tuple(map(float, payload[1])))
            return receiver, session, payload

        result = self._run(floats)
        sends = [event.detail for event in result.network.trace.events
                 if event.kind == "send" and event.party == 3 and event.detail.kind == "RECROW"]
        assert sends
        for message in sends:
            assert {type(c) for c in message.payload[1]} == {
                float if message.receiver % 2 else int
            }
        shunners = {pid for pid in range(7) if result.network.processes[pid].is_shunning(3)}
        assert shunners == {1, 5}  # the odd receivers but the sender itself
