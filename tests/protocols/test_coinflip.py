"""Tests for the strong common coin (Algorithm 1, Theorem 3.5)."""

from __future__ import annotations

import pytest

from repro.adversary import (
    BadShareBehavior,
    CrashBehavior,
    DeterministicValueDealer,
    WithholdingDealerBehavior,
)
from repro.core import api
from repro.net.scheduler import FIFOScheduler
from repro.scenarios.schedulers import targeted_delay


class TestAgreementAndTermination:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_honest_parties_output_same_bit(self, seed):
        result = api.run_coinflip(4, seed=seed, rounds=2)
        assert not result.disagreement
        assert result.agreed_value in (0, 1)
        assert set(result.outputs) == {0, 1, 2, 3}

    def test_single_iteration(self):
        result = api.run_coinflip(4, seed=9, rounds=1)
        assert result.agreed_value in (0, 1)

    @pytest.mark.parametrize("rounds", [2, 3])
    def test_larger_system(self, rounds):
        result = api.run_coinflip(7, seed=1, rounds=rounds)
        assert not result.disagreement
        assert len(result.outputs) == 7

    def test_fifo_scheduler(self):
        result = api.run_coinflip(4, seed=3, rounds=2, scheduler=FIFOScheduler())
        assert result.agreed_value in (0, 1)

    def test_isolating_scheduler(self):
        result = api.run_coinflip(4, seed=4, rounds=2, scheduler=targeted_delay(victims=[2]))
        assert not result.disagreement

    def test_theoretical_round_count_exposed(self):
        from repro.analysis.binomial import coinflip_iterations
        from repro.core.config import ProtocolParams
        from repro.net.runtime import Simulation
        from repro.protocols.coinflip import CoinFlip

        sim = Simulation(ProtocolParams.for_parties(4), seed=0)
        network = sim.build_network()
        instance = network.processes[0].create_protocol(
            ("coinflip",), CoinFlip.factory(epsilon=0.1, rounds_override=2)
        )
        assert instance.theoretical_rounds == coinflip_iterations(0.1, 4)
        assert instance.rounds == 2


class TestByzantineResilience:
    @pytest.mark.parametrize("seed", range(3))
    def test_crashed_party(self, seed):
        result = api.run_coinflip(
            4, seed=seed, rounds=2, corruptions={3: CrashBehavior.factory()}
        )
        assert not result.disagreement
        assert set(result.outputs) == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(3))
    def test_withholding_dealer(self, seed):
        """A dealer withholding rows cannot block the coin (row recovery kicks in)."""
        result = api.run_coinflip(
            4,
            seed=seed,
            rounds=2,
            corruptions={0: WithholdingDealerBehavior.factory(victims=[2])},
        )
        assert not result.disagreement

    @pytest.mark.parametrize("seed", range(3))
    def test_bad_share_adversary(self, seed):
        """Corrupted reconstruction rows never break agreement of the final coin."""
        result = api.run_coinflip(
            4,
            seed=seed,
            rounds=2,
            corruptions={3: BadShareBehavior.factory()},
        )
        assert not result.disagreement
        assert result.agreed_value in (0, 1)

    def test_deterministic_dealer_does_not_break_agreement(self):
        result = api.run_coinflip(
            4,
            seed=11,
            rounds=2,
            corruptions={2: DeterministicValueDealer.factory(0)},
        )
        assert not result.disagreement


class TestBias:
    def test_both_outcomes_occur_across_seeds(self):
        """Sanity check on bias: both coin values appear over a batch of seeds."""
        values = [api.run_coinflip(4, seed=seed, rounds=1).agreed_value for seed in range(12)]
        assert 0 in values and 1 in values

    def test_iteration_coins_recorded(self):
        result = api.run_coinflip(4, seed=5, rounds=3)
        instance = result.network.processes[0].protocol(("coinflip",))
        coins = instance.iteration_coins
        assert len(coins) == 3
        assert all(value in (0, 1) for value in coins.values())

    def test_iteration_coins_agree_between_honest_parties(self):
        """The per-iteration coins (not only the final BA output) agree when no
        SVSS instance was attacked."""
        result = api.run_coinflip(4, seed=6, rounds=3)
        reference = result.network.processes[0].protocol(("coinflip",)).iteration_coins
        for process in result.network.processes[1:]:
            assert process.protocol(("coinflip",)).iteration_coins == reference
