"""Tests for the adversary behaviour framework."""

from __future__ import annotations

import pytest

from repro.adversary import (
    CrashBehavior,
    DeterministicValueDealer,
    FBAValueInjector,
    HonestButMutatingBehavior,
    RandomNoiseBehavior,
    ReplayBehavior,
    SilentAfterBehavior,
    WithholdingDealerBehavior,
    crash_all,
    corrupt_map,
)
from repro.core import api
from repro.core.config import ProtocolParams
from repro.net.network import Network
from repro.net.protocol import Protocol


class TestCrash:
    def test_crashed_party_sends_nothing(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        process = network.processes[3]
        process.corrupt(CrashBehavior())
        network.submit(0, 3, ("x",), ("PING",))
        network.run_to_quiescence()
        assert network.trace.messages_sent == 1  # only the ping

    def test_crash_all_helper(self):
        mapping = crash_all([1, 2])
        assert set(mapping) == {1, 2}
        assert all(callable(factory) for factory in mapping.values())

    def test_corrupt_map_helper(self):
        mapping = corrupt_map([0, 3], CrashBehavior.factory())
        assert set(mapping) == {0, 3}

    def test_corruption_recorded_in_trace(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        network.processes[2].corrupt(CrashBehavior())
        assert network.corrupted_pids() == [2]
        assert network.honest_pids() == [0, 1, 3]


class TestSilentAfter:
    def test_acts_honestly_then_stops(self):
        """The behaviour forwards a bounded number of deliveries to the honest code."""

        class CountingEcho(Protocol):
            def on_message(self, sender, payload):
                self.send(sender, "REPLY")

        network = Network(ProtocolParams.for_parties(4), seed=0)
        victim = network.processes[1]
        victim.create_protocol(("echo",), lambda p, s: CountingEcho(p, s)).start()
        victim.corrupt(SilentAfterBehavior(active_deliveries=2))
        for _ in range(5):
            network.submit(0, 1, ("echo",), ("PING",))
        network.run_to_quiescence()
        replies = network.trace.sent_by_kind.get("REPLY", 0)
        assert replies == 2


class TestMutators:
    def test_mutating_behavior_rewrites_outgoing(self):
        class Speaker(Protocol):
            def on_start(self, **_):
                self.send(1, "DATA", 100)

        def double(receiver, session, payload):
            if payload and payload[0] == "DATA":
                return receiver, session, ("DATA", payload[1] * 2)
            return receiver, session, payload

        network = Network(ProtocolParams.for_parties(4), seed=0)
        speaker = network.processes[0]
        speaker.corrupt(HonestButMutatingBehavior(double))
        speaker.create_protocol(("s",), lambda p, s: Speaker(p, s)).start()
        assert network.pending[0].payload == ("DATA", 200)

    def test_mutator_can_drop_messages(self):
        class Speaker(Protocol):
            def on_start(self, **_):
                self.send(1, "SECRET")
                self.send(2, "PUBLIC")

        def censor(receiver, session, payload):
            if payload[0] == "SECRET":
                return None
            return receiver, session, payload

        network = Network(ProtocolParams.for_parties(4), seed=0)
        speaker = network.processes[0]
        speaker.corrupt(HonestButMutatingBehavior(censor))
        speaker.create_protocol(("s",), lambda p, s: Speaker(p, s)).start()
        kinds = [m.kind for m in network.pending]
        assert kinds == ["PUBLIC"]

    def test_withholding_dealer_only_drops_rows_to_victims(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        dealer = network.processes[0]
        dealer.corrupt(WithholdingDealerBehavior(victims=[2]))
        dealer.send(1, ("s",), ("ROW", (1, 2)))
        dealer.send(2, ("s",), ("ROW", (1, 2)))
        dealer.send(2, ("s",), ("POINT", 5))
        assert [(m.receiver, m.kind) for m in network.pending] == [(1, "ROW"), (2, "POINT")]


class TestNoiseAndReplay:
    def test_noise_behavior_emits_garbage(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        noisy = network.processes[2]
        noisy.corrupt(RandomNoiseBehavior(burst=3))
        network.submit(0, 2, ("x",), ("PING",))
        network.step()
        assert len(network.pending) == 3

    def test_replay_behavior_echoes_back(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        replayer = network.processes[1]
        replayer.corrupt(ReplayBehavior())
        network.submit(0, 1, ("x",), ("HELLO", 1))
        network.step()
        assert len(network.pending) == 1
        assert network.pending[0].receiver == 0
        assert network.pending[0].payload == ("HELLO", 1)


class TestHonestProtocolsIgnoreGarbage:
    @pytest.mark.parametrize("protocol", ["acast", "svss", "aba"])
    def test_noise_does_not_crash_protocols(self, protocol):
        corruptions = {3: RandomNoiseBehavior.factory(burst=3)}
        if protocol == "acast":
            result = api.run_acast(4, "v", sender=0, seed=1, corruptions=corruptions)
            assert result.agreed_value == "v"
        elif protocol == "svss":
            result = api.run_svss(4, 9, dealer=0, seed=1, corruptions=corruptions)
            assert 0 in result.outputs
        else:
            result = api.run_aba(4, {0: 1, 1: 1, 2: 1}, seed=1, corruptions=corruptions)
            assert result.agreed_value == 1


class TestHonestRunningBehaviors:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: api.run_coinflip(
                4, seed=11, rounds=1, corruptions={2: DeterministicValueDealer.factory(0)}
            ),
            lambda: api.run_fba(
                4, {0: "x", 1: "x", 2: "y", 3: "evil"}, seed=8,
                corruptions={3: FBAValueInjector.factory("evil")},
            ),
        ],
        ids=["deterministic_value_dealer", "fba_value_injector"],
    )
    def test_behaviors_that_leave_messages_alone_install_no_mutator(
        self, run, monkeypatch
    ):
        """A behaviour that rigs something other than its messages sends as an
        honest party does: one fan-out entry per send, never a survivors
        entry, and its deliveries take the honest route (no hook)."""
        survivors = []
        submit_survivors = Network._submit_survivors

        def recording(self, sender, *rest):
            survivors.append(sender)
            submit_survivors(self, sender, *rest)

        monkeypatch.setattr(Network, "_submit_survivors", recording)
        network = run().network
        (corrupted,) = network.corrupted_pids()
        process = network.processes[corrupted]
        assert process.is_corrupted
        assert process.outgoing_mutator is None and process.deliver_hook is None
        assert survivors == []
