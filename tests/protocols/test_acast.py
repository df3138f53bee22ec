"""Tests for A-Cast (Bracha reliable broadcast, Definition 4.4)."""

from __future__ import annotations

import pytest

from repro.adversary import CrashBehavior, EquivocatingACastSender, RandomNoiseBehavior
from repro.core import api
from repro.core.config import ProtocolParams
from repro.net.runtime import Simulation
from repro.net.scheduler import FIFOScheduler
from repro.protocols.acast import ACast
from repro.scenarios.schedulers import rushing, targeted_delay


class TestValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_honest_sender_value_delivered(self, seed):
        result = api.run_acast(4, ("payload", seed), sender=0, seed=seed)
        assert result.agreed_value == ("payload", seed)
        assert set(result.outputs) == {0, 1, 2, 3}

    @pytest.mark.parametrize("sender", [0, 1, 2, 3])
    def test_every_party_can_be_sender(self, sender):
        result = api.run_acast(4, f"from-{sender}", sender=sender, seed=sender)
        assert result.agreed_value == f"from-{sender}"

    def test_larger_system(self):
        result = api.run_acast(7, "seven", sender=3, seed=1)
        assert result.agreed_value == "seven"
        assert len(result.outputs) == 7

    def test_sender_without_value_rejected(self):
        sim = Simulation(ProtocolParams.for_parties(4), seed=0)
        with pytest.raises(ValueError):
            sim.run(("acast",), ACast.factory(0))

    def test_fifo_scheduler(self):
        result = api.run_acast(4, "fifo", sender=0, seed=0, scheduler=FIFOScheduler())
        assert result.agreed_value == "fifo"


class TestFaultTolerance:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_crashed_receiver_does_not_block(self, seed):
        result = api.run_acast(
            4, "v", sender=0, seed=seed, corruptions={3: CrashBehavior.factory()}
        )
        assert set(result.outputs) == {0, 1, 2}
        assert result.agreed_value == "v"

    def test_noise_adversary_does_not_corrupt_delivery(self):
        result = api.run_acast(
            4, "signal", sender=0, seed=3, corruptions={2: RandomNoiseBehavior.factory()}
        )
        assert result.agreed_value == "signal"

    def test_isolated_party_catches_up(self):
        """A party starved by the scheduler still delivers once messages flow."""
        result = api.run_acast(
            4, "slow", sender=0, seed=4, scheduler=targeted_delay(victims=[2])
        )
        assert result.agreed_value == "slow"
        assert 2 in result.outputs

    def test_adversary_favouring_scheduler(self):
        result = api.run_acast(
            4, "rushed", sender=1, seed=5, scheduler=rushing([0, 1])
        )
        assert result.agreed_value == "rushed"


class TestEquivocation:
    def _run_equivocation(self, seed):
        sim = Simulation(ProtocolParams.for_parties(4), seed=seed)
        sim.corrupt(0, EquivocatingACastSender.factory(("acast",), "left", "right"))
        network = sim.build_network()
        for process in network.processes:
            if not process.is_corrupted:
                process.create_protocol(("acast",), ACast.factory(0)).start()
        network.run_to_quiescence()
        return network.honest_outputs(("acast",))

    @pytest.mark.parametrize("seed", range(5))
    def test_no_conflicting_deliveries(self, seed):
        outputs = self._run_equivocation(seed)
        assert len({repr(v) for v in outputs.values()}) <= 1

    def test_message_complexity_with_honest_sender(self):
        from repro.analysis.complexity import acast_messages

        result = api.run_acast(4, "count-me", sender=0, seed=9)
        assert result.trace.messages_sent <= acast_messages(4)
