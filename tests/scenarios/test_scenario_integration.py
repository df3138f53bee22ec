"""Scenario integration: campaigns, the CLI, chunk batching and n=32 scale."""

from __future__ import annotations

import json

import pytest

from repro.core.config import max_faults
from repro.errors import ExperimentError
from repro.experiments.cli import main as cli_main
from repro.experiments.runner import CellExecutor, run_campaign
from repro.experiments.spec import BehaviorSpec, CampaignSpec, ExperimentSpec
from repro.scenarios.engine import run_scenario
from repro.scenarios.library import scenario_names


def _cell(**overrides) -> ExperimentSpec:
    base = dict(
        name="cell",
        protocol="weak_coin",
        n=4,
        seeds=[0, 1, 2],
        scenario="dealer-ambush",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestCampaignIntegration:
    def test_cell_round_trips_with_scenario(self):
        cell = _cell()
        same = ExperimentSpec.from_dict(cell.to_dict())
        assert same.scenario == "dealer-ambush"
        assert same.to_dict() == cell.to_dict()
        # The scenario participates in the resume hash.
        assert cell.spec_hash() != _cell(scenario="silence-heal").spec_hash()

    def test_grid_propagates_scenario(self):
        campaign = CampaignSpec.grid(
            "sweep", protocol="weak_coin", n=[4, 7], seeds=range(2),
            scenario="silence-heal",
        )
        assert all(cell.scenario == "silence-heal" for cell in campaign.cells)

    def test_parallel_equals_sequential_with_scenarios(self):
        campaign = CampaignSpec.grid(
            "scn", protocol="weak_coin", n=[4, 7], seeds=range(6),
            scenario="dealer-ambush",
        )
        sequential = run_campaign(campaign)
        parallel = run_campaign(campaign, workers=2)
        assert {name: agg.to_dict() for name, agg in sequential.items()} == {
            name: agg.to_dict() for name, agg in parallel.items()
        }

    def test_executor_matches_a_fresh_executor_per_trial(self):
        cell = _cell(seeds=[0, 1, 2, 3])
        executor = CellExecutor(cell)
        for seed in cell.seeds:
            batched = executor.run(seed)
            one_shot = CellExecutor(cell).run(seed)
            assert batched.outputs == one_shot.outputs
            assert batched.steps == one_shot.steps
            assert batched.trace.messages_sent == one_shot.trace.messages_sent

    def test_executor_shares_one_session_table_across_trials(self):
        executor = CellExecutor(_cell())
        executor.run(0)
        interned = len(executor.session_table)
        assert interned > 0
        executor.run(1)
        # Identical topology: the second trial allocated no new session tuples.
        assert len(executor.session_table) == interned

    def test_cell_params_override_scenario_params(self):
        cell = _cell(
            protocol="svss",
            scenario="starved-dealer-withholds",
            params={"secret": 31337},
        )
        result = CellExecutor(cell).run(0)
        assert 31337 in result.outputs.values()

    def test_cell_adversary_composes_with_scenario_statics(self):
        # starved-dealer-withholds corrupts pid 0; the cell adds a crash at 1.
        cell = _cell(
            protocol="svss",
            n=7,
            scenario="starved-dealer-withholds",
            adversary={1: BehaviorSpec("crash")},
        )
        result = CellExecutor(cell).run(0)
        assert set(result.outputs) == {2, 3, 4, 5, 6}

    def test_unknown_scenario_fails_fast(self):
        campaign = CampaignSpec(name="bad", cells=[_cell(scenario="no-such")])
        with pytest.raises(ExperimentError):
            run_campaign(campaign)

    def test_scenario_over_budget_for_cell_n_fails_fast(self):
        # coin-split-brain statically corrupts t parties -- fine at any n --
        # but a custom scenario wanting 2 static corruptions breaks at n=4.
        from repro.scenarios.library import SCENARIOS, register_scenario
        from repro.scenarios.spec import CorruptionPlan, ScenarioSpec, StaticCorruption

        register_scenario(ScenarioSpec(
            name="_test-two-crashes",
            protocol="weak_coin",
            corruption=CorruptionPlan(static=[
                StaticCorruption(select={"first": 2}, behavior=BehaviorSpec("crash")),
            ]),
        ))
        try:
            with pytest.raises(ExperimentError):
                CellExecutor(_cell(scenario="_test-two-crashes"))
        finally:
            del SCENARIOS["_test-two-crashes"]


class TestScenariosCLI:
    def test_list_and_validate(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        assert "JSON-round-trippable" in out

    def test_show_emits_loadable_json(self, capsys):
        assert cli_main(["scenarios", "--show", "partition-heal"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "partition-heal"

    def test_run_one(self, capsys):
        assert cli_main(["scenarios", "--run", "silence-heal", "--n", "4"]) == 0
        assert "silence-heal" in capsys.readouterr().out

    def test_unknown_scenario_is_a_cli_error(self, capsys):
        assert cli_main(["scenarios", "--run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    #: A trial known not to terminate (tests/scenarios/test_known_counterexamples.py).
    DRY = ["--run", "tamper-on-share", "--n", "16", "--seed", "290454012"]

    def test_check_counts_a_dry_run_as_a_termination_violation(self, capsys):
        """The gate reports the failure it exists for, and goes on: the dry
        seed is the first of two, the second still runs."""
        assert cli_main(["scenarios", "--check", *self.DRY, "--check-seeds", "2"]) == 1
        captured = capsys.readouterr()
        assert (
            "seed=290454012 termination: network ran dry after 12272 deliveries; "
            "honest parties without output: [1]"
        ) in captured.out
        assert "1 VIOLATION(S)" in captured.out
        assert "1 scenarios x 2 seeds = 2 trials: 1 invariant violation(s)" in captured.out
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("extra", [[], ["--no-tracing"]], ids=["traced", "untraced"])
    def test_run_reports_a_dry_run_in_one_line(self, capsys, extra):
        assert cli_main(["scenarios", *self.DRY, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: tamper-on-share n=16 seed=290454012: network is quiescent "
            "but the stop condition is not met (protocol deadlock)\n"
        )
        assert captured.out == ""

    def test_campaign_validate_checks_scenario_names(self, tmp_path, capsys):
        campaign = CampaignSpec(name="c", cells=[_cell(scenario="nope")])
        path = tmp_path / "campaign.json"
        campaign.save(path)
        assert cli_main(["validate", str(path)]) == 1
        assert "unknown scenario" in capsys.readouterr().err


class TestScale:
    def test_n32_scenario_trial_completes(self):
        # The tier-1 scale smoke: one full adversarial trial at the bench
        # preset.  The scale preset supplies n=32 and the matched prime.
        result = run_scenario("late-crash-quorum", n=32, seed=0, tracing=False)
        t = max_faults(32)
        assert len(result.outputs) == 32 - t
        assert not result.disagreement

    def test_n32_adaptive_budget_holds(self):
        from repro.experiments.registry import RUNNERS
        from repro.scenarios.engine import ScenarioRuntime
        from repro.scenarios.library import get_scenario

        runtime = ScenarioRuntime(get_scenario("adaptive-budget-burn"), n=32)
        director = runtime.build_director()
        RUNNERS.get("weak_coin")(
            n=32, seed=0, prime=runtime.prime, tracing=False, director=director
        )
        assert len(director.corrupted) == max_faults(32)

    def test_scale_preset_prime_reaches_the_field(self):
        cell = ExperimentSpec(
            name="n32", protocol="weak_coin", n=32, seeds=[0], scenario="flood-fenwick"
        )
        executor = CellExecutor(cell)
        assert executor.kwargs["prime"] == 1_000_003
