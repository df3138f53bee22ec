"""Tests for fair Byzantine agreement (Algorithm 3, Theorem 4.5)."""

from __future__ import annotations

import pytest

from repro.adversary import CrashBehavior, FBAValueInjector
from repro.core import api
from repro.net.scheduler import FIFOScheduler
from repro.scenarios.schedulers import rushing


class TestValidity:
    @pytest.mark.parametrize("seed", range(4))
    def test_unanimous_inputs_win(self, seed):
        inputs = {pid: "agreed" for pid in range(4)}
        result = api.run_fba(4, inputs, seed=seed)
        assert result.agreed_value == "agreed"

    def test_unanimous_inputs_with_crash(self):
        inputs = {0: "x", 1: "x", 2: "x"}
        result = api.run_fba(4, inputs, seed=1, corruptions={3: CrashBehavior.factory()})
        assert result.agreed_value == "x"

    @pytest.mark.parametrize("seed", range(3))
    def test_unanimous_honest_beats_byzantine_value(self, seed):
        inputs = {0: "good", 1: "good", 2: "good", 3: "evil"}
        result = api.run_fba(
            4,
            inputs,
            seed=seed,
            corruptions={3: FBAValueInjector.factory("evil")},
            scheduler=rushing([3]),
        )
        assert result.agreed_value == "good"

    def test_majority_value_wins_without_fair_choice(self):
        """When a strict majority of the agreed set shares a value, it is chosen
        directly in step 5 -- no FairChoice invocation happens."""
        inputs = {0: "major", 1: "major", 2: "major", 3: "minor"}
        result = api.run_fba(4, inputs, seed=5)
        assert result.agreed_value == "major"
        fair_choice_messages = result.trace.sent_by_root.get("fba", 0)
        assert fair_choice_messages > 0  # protocol ran
        instance = result.network.processes[0].protocol(("fba",))
        assert instance.child(("fair_choice",)) is None


class TestAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_divergent_inputs_still_agree(self, seed):
        inputs = {0: "a", 1: "b", 2: "c", 3: "d"}
        result = api.run_fba(4, inputs, seed=seed)
        assert not result.disagreement
        assert result.agreed_value in {"a", "b", "c", "d"}

    def test_output_is_someones_input(self):
        inputs = {0: 10, 1: 20, 2: 30, 3: 40}
        result = api.run_fba(4, inputs, seed=9)
        assert result.agreed_value in inputs.values()

    def test_fifo_scheduler(self):
        inputs = {0: "a", 1: "b", 2: "c", 3: "d"}
        result = api.run_fba(4, inputs, seed=2, scheduler=FIFOScheduler())
        assert not result.disagreement

    def test_larger_system_unanimous(self):
        inputs = {pid: "seven" for pid in range(7)}
        result = api.run_fba(7, inputs, seed=1)
        assert result.agreed_value == "seven"

    def test_crash_with_divergent_inputs(self):
        inputs = {0: "a", 1: "b", 2: "c"}
        result = api.run_fba(4, inputs, seed=3, corruptions={3: CrashBehavior.factory()})
        assert not result.disagreement
        assert result.agreed_value in {"a", "b", "c"}


class TestFairValidity:
    def test_divergent_inputs_against_an_injector_agree_on_an_input(self):
        inputs = {0: "h0", 1: "h1", 2: "h2", 3: "evil"}
        result = api.run_fba(
            4, inputs, seed=0, corruptions={3: FBAValueInjector.factory("evil")}
        )
        assert not result.disagreement
        assert result.agreed_value in set(inputs.values())

    def test_honest_values_win_reasonably_often(self):
        """Theorem 4.5: with divergent honest inputs the adversary's value wins
        at most about half the time.  We check a loose statistical bound."""
        adversary_wins = 0
        trials = 10
        for seed in range(trials):
            inputs = {0: "h0", 1: "h1", 2: "h2", 3: "evil"}
            result = api.run_fba(
                4,
                inputs,
                seed=300 + seed,
                corruptions={3: FBAValueInjector.factory("evil")},
            )
            if result.agreed_value == "evil":
                adversary_wins += 1
        assert adversary_wins <= 7  # loose bound; the expectation is <= 5
