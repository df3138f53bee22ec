"""Cross-module integration tests: whole-stack scenarios under stress.

These tests exercise the complete protocol stack (SVSS inside CoinFlip inside
FairChoice inside FBA, CommonSubset over BA instances, A-Cast feeding FBA)
under combinations of Byzantine behaviour and adversarial scheduling, checking
the end-to-end guarantees the paper's theorems promise.
"""

from __future__ import annotations

import pytest

from repro.adversary import (
    BadShareBehavior,
    CrashBehavior,
    FBAValueInjector,
    WithholdingDealerBehavior,
)
from repro.core import api
from repro.net.scheduler import partition_then_heal
from repro.scenarios.schedulers import rushing, targeted_delay


class TestCoinFlipStack:
    @pytest.mark.parametrize("seed", range(3))
    def test_coinflip_with_bad_share_and_adversarial_scheduling(self, seed):
        result = api.run_coinflip(
            4,
            seed=seed,
            rounds=2,
            corruptions={3: BadShareBehavior.factory()},
            scheduler=rushing([3]),
        )
        assert not result.disagreement
        assert result.agreed_value in (0, 1)

    def test_coinflip_with_withholding_dealer_and_isolation(self):
        result = api.run_coinflip(
            4,
            seed=5,
            rounds=2,
            corruptions={0: WithholdingDealerBehavior.factory(victims=[1])},
            scheduler=targeted_delay(victims=[2]),
        )
        assert not result.disagreement

    def test_coinflip_under_partition_then_heal(self):
        result = api.run_coinflip(
            4, seed=6, rounds=2, scheduler=partition_then_heal([0, 1], [2, 3], duration=200)
        )
        assert not result.disagreement

    def test_shun_events_never_exceed_n_squared(self):
        total_shuns = 0
        for seed in range(4):
            result = api.run_coinflip(
                4, seed=seed, rounds=2, corruptions={3: BadShareBehavior.factory()}
            )
            total_shuns += result.trace.total_shun_events()
        assert total_shuns < 4 * 16


class TestFBAStack:
    def test_fba_with_crash_and_partition(self):
        inputs = {0: "a", 1: "b", 2: "c"}
        result = api.run_fba(
            4,
            inputs,
            seed=2,
            corruptions={3: CrashBehavior.factory()},
            scheduler=partition_then_heal([0], [1, 2], duration=100),
        )
        assert not result.disagreement
        assert result.agreed_value in {"a", "b", "c"}

    def test_fba_output_traceable_to_acast(self):
        """The FBA output always equals a value that was actually A-Cast."""
        inputs = {0: "v0", 1: "v1", 2: "v2", 3: "v3"}
        result = api.run_fba(4, inputs, seed=4)
        network = result.network
        fba = network.processes[0].protocol(("fba",))
        assert result.agreed_value in fba.broadcast_values.values()

    def test_fba_with_value_injector_and_rushing_scheduler(self):
        inputs = {0: "x", 1: "x", 2: "y", 3: "evil"}
        result = api.run_fba(
            4,
            inputs,
            seed=8,
            corruptions={3: FBAValueInjector.factory("evil")},
            scheduler=rushing([3]),
        )
        assert not result.disagreement
        # "x" holds a strict majority of the agreed subset whenever all four
        # broadcasts land in S; in every case the output must be someone's input.
        assert result.agreed_value in {"x", "y", "evil"}

    def test_seven_party_fba_divergent(self):
        inputs = {pid: f"value-{pid % 3}" for pid in range(7)}
        result = api.run_fba(7, inputs, seed=3)
        assert not result.disagreement
        assert result.agreed_value in set(inputs.values())


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a = api.run_coinflip(4, seed=77, rounds=2)
        b = api.run_coinflip(4, seed=77, rounds=2)
        assert a.outputs == b.outputs
        assert a.steps == b.steps
        assert a.trace.messages_sent == b.trace.messages_sent

    def test_different_seeds_differ_somewhere(self):
        results = [api.run_coinflip(4, seed=seed, rounds=2) for seed in range(6)]
        step_counts = {result.steps for result in results}
        assert len(step_counts) > 1


class TestTraceAccounting:
    def test_message_roots_cover_protocol_stack(self):
        result = api.run_fba(4, {0: "a", 1: "b", 2: "c", 3: "d"}, seed=0)
        roots = set(result.trace.sent_by_root)
        assert roots == {"fba"}
        kinds = set(result.trace.sent_by_kind)
        # The whole stack is visible in the message kinds.
        assert {"VALUE", "ECHO", "READY", "BVAL", "AUX", "ROW", "RECROW"} <= kinds

    def test_completions_include_every_honest_party(self):
        result = api.run_coinflip(4, seed=1, rounds=1)
        completed_parties = {party for party, _session in result.trace.completions}
        assert completed_parties == {0, 1, 2, 3}
