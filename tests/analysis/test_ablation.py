"""Ablation harness: factor registry, grid builders, tables, sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.ablation import (
    BASELINE_CELL,
    DEFAULT_BASE_PARAMS,
    OBSERVATION_FACTORS,
    Factor,
    build_ablation_campaign,
    build_attack_sweep,
    cache_hit_rate,
    contribution_table,
    factorial_cells,
    one_factor_out_cells,
    scenario_factors,
    sweep_table,
)
from repro.analysis.complexity import coinflip_expected_messages, predicted_messages
from repro.core.results import TrialAggregate
from repro.errors import ExperimentError
from repro.experiments.report import render_table, section_table
from repro.experiments.runner import run_campaign
from repro.experiments.spec import CampaignSpec, ExperimentSpec

TRACE_A = Factor("trace_a", "a", ablated={"tracing": True})
ABSENT_B = Factor("absent_b", "b")
PARAM_C = Factor("param_c", "c", ablated={"metering": False}, stats_preserving=False)


class TestFactorRegistry:
    def test_observation_factors_are_the_two_reporting_params(self):
        # What is left of the engine-side registry: the two documented runner
        # params that change what a run reports.  How the engine queues,
        # evaluates or collects is not a factor (it is not an option).
        assert [(f.name, dict(f.ablated)) for f in OBSERVATION_FACTORS] == [
            ("trace_free", {"tracing": True}),
            ("metering", {"metering": False}),
        ]

    def test_scenario_factors_cover_every_component(self):
        assert [factor.scenario_component for factor in scenario_factors()] == [
            "scheduler",
            "corruption",
            "timeline",
            "tamper",
        ]
        assert all(not factor.stats_preserving for factor in scenario_factors())

    def test_only_the_tracing_arm_is_marked_stats_preserving(self):
        by_name = {factor.name: factor for factor in OBSERVATION_FACTORS}
        assert by_name["trace_free"].stats_preserving
        assert not by_name["metering"].stats_preserving


class TestGridExpansion:
    def test_one_factor_out_matches_hand_built_cells(self):
        cells = one_factor_out_cells(
            "coinflip", 4, [1, 2], [TRACE_A, PARAM_C], base_params={"rounds": 2}
        )
        base = {"tracing": False, "metrics": True, "rounds": 2}
        expected = [
            ExperimentSpec(
                name=BASELINE_CELL, protocol="coinflip", n=4, seeds=[1, 2], params=base
            ),
            ExperimentSpec(
                name="no-trace_a",
                protocol="coinflip",
                n=4,
                seeds=[1, 2],
                params={**base, "tracing": True},
            ),
            ExperimentSpec(
                name="no-param_c",
                protocol="coinflip",
                n=4,
                seeds=[1, 2],
                params={**base, "metering": False},
            ),
        ]
        assert [cell.to_dict() for cell in cells] == [
            cell.to_dict() for cell in expected
        ]

    def test_factorial_grid_composes_overlays(self):
        cells = factorial_cells("coinflip", 4, [0], [TRACE_A, PARAM_C])
        by_name = {cell.name: cell.params for cell in cells}
        assert by_name == {
            BASELINE_CELL: DEFAULT_BASE_PARAMS,
            "no-trace_a": {**DEFAULT_BASE_PARAMS, "tracing": True},
            "no-param_c": {**DEFAULT_BASE_PARAMS, "metering": False},
            "no-trace_a+no-param_c": {
                **DEFAULT_BASE_PARAMS, "tracing": True, "metering": False
            },
        }

    def test_factorial_cap(self):
        factors = [Factor(f"f{i}", "x", ablated={}) for i in range(9)]
        with pytest.raises(ExperimentError, match="cap is 8"):
            factorial_cells("coinflip", 4, [0], factors)

    def test_base_params_are_not_mutated_by_overlays(self):
        base = {"tracing": False, "inputs": {"0": 1}}
        cells = one_factor_out_cells("aba", 4, [0], [TRACE_A], base_params=base)
        assert cells[1].params["tracing"] is True
        assert cells[0].params["tracing"] is False
        # Dict-valued params are copied per cell, never shared with the base.
        cells[1].params["inputs"]["0"] = 0
        assert base == {"tracing": False, "inputs": {"0": 1}}
        assert cells[0].params["inputs"] == {"0": 1}

    def test_scenario_component_factor_requires_scenario(self):
        scheduler_factor = scenario_factors()[0]
        with pytest.raises(ExperimentError, match="no scenario"):
            one_factor_out_cells("coinflip", 4, [0], [scheduler_factor])

    def test_scenario_component_factor_builds_variant_cell(self):
        cells = one_factor_out_cells(
            "weak_coin",
            4,
            [0],
            list(scenario_factors()),
            scenario="dealer-ambush",
        )
        variants = {cell.name: cell.scenario for cell in cells}
        assert variants[BASELINE_CELL] == "dealer-ambush"
        assert variants["no-scenario_scheduler"] == "dealer-ambush~no-scheduler"
        assert variants["no-scenario_tamper"] == "dealer-ambush~no-tamper"

    def test_campaign_serialization_round_trip_is_hash_stable(self):
        campaign = build_ablation_campaign(
            "abl", "coinflip", 4, [1, 2, 3], base_params={"rounds": 2}
        )
        reloaded = CampaignSpec.from_dict(campaign.to_dict())
        assert [cell.spec_hash() for cell in reloaded.cells] == [
            cell.spec_hash() for cell in campaign.cells
        ]
        assert reloaded.to_dict() == campaign.to_dict()

    def test_build_ablation_campaign_rejects_unknown_mode(self):
        with pytest.raises(ExperimentError, match="one-out"):
            build_ablation_campaign("abl", "coinflip", 4, [0], mode="bogus")

    def test_default_base_params_run_trace_free_with_metrics(self):
        assert DEFAULT_BASE_PARAMS == {"tracing": False, "metrics": True}


class TestCampaignExecution:
    @pytest.fixture(scope="class")
    def campaign(self):
        return build_ablation_campaign(
            "abl-exec",
            "coinflip",
            4,
            [1, 2, 3, 4],
            factors=[TRACE_A, PARAM_C],
            base_params={"rounds": 1},
        )

    @pytest.fixture(scope="class")
    def results(self, campaign):
        return run_campaign(campaign, workers=1)

    def test_parallel_equals_sequential_aggregates(self, campaign, results):
        parallel = run_campaign(campaign, workers=2, chunk_trials=2)
        assert {name: agg.to_dict() for name, agg in parallel.items()} == {
            name: agg.to_dict() for name, agg in results.items()
        }

    def test_contribution_table_flags_stats_identity(self, results):
        rows = contribution_table(results, [TRACE_A, PARAM_C])
        by_cell = {row["cell"]: row for row in rows}
        assert by_cell[BASELINE_CELL]["factor"] is None
        assert by_cell["no-trace_a"]["stats_identical"] is True
        # Metering off drops the message stats, so identity is not expected
        # (and not evaluated).
        assert by_cell["no-param_c"]["stats_identical"] is None
        assert not by_cell["no-param_c"]["stats_expected_identical"]

    def test_contribution_table_reports_cache_hits_and_throughput(self, results):
        rows = contribution_table(results, [TRACE_A])
        for row in rows:
            assert row["trials"] == 4
            assert row["deliveries_per_s"] is None or row["deliveries_per_s"] > 0
        assert rows[0]["cache_hit_rate"] is not None
        assert 0.0 <= rows[0]["cache_hit_rate"] <= 1.0

    def test_contribution_table_requires_baseline(self, results):
        partial = {k: v for k, v in results.items() if k != BASELINE_CELL}
        with pytest.raises(ExperimentError, match="baseline"):
            contribution_table(partial, [TRACE_A])

    def test_contribution_table_skips_missing_cells(self, results):
        rows = contribution_table(results, [TRACE_A, ABSENT_B])
        assert [row["cell"] for row in rows] == [BASELINE_CELL, "no-trace_a"]

    def test_render_helpers_are_total(self, results):
        rows = contribution_table(results, [TRACE_A, PARAM_C])
        _, formatted = section_table("contribution", rows)
        text = render_table(("a",) * len(formatted[0]), formatted)
        assert text.endswith("\n")
        assert BASELINE_CELL in text


class TestAttackSweep:
    def test_build_attack_sweep_resolves_protocols(self):
        campaign = build_attack_sweep(
            "sweep", ["dealer-ambush", "rushing-coalition"], [4, 8], [0, 1]
        )
        names = [cell.name for cell in campaign.cells]
        assert names == [
            "dealer-ambush|n=4",
            "dealer-ambush|n=8",
            "rushing-coalition|n=4",
            "rushing-coalition|n=8",
        ]
        for cell in campaign.cells:
            assert cell.scenario in ("dealer-ambush", "rushing-coalition")
            assert cell.params["tracing"] is False

    def test_sweep_table_computes_wilson_intervals(self):
        campaign = build_attack_sweep("sweep", ["dealer-ambush"], [4], [0, 1, 2, 3])
        agg = TrialAggregate()
        agg.trials = 4
        agg.disagreements = 1
        agg.value_counts["1"] = 3
        agg.total_messages = 600
        agg.total_steps = 500
        rows = sweep_table(campaign, {"dealer-ambush|n=4": agg})
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == 4 and row["trials"] == 4
        assert row["disagreement_rate"] == 0.25
        low, high = row["disagreement_ci"]
        assert 0.0 <= low < 0.25 < high <= 1.0
        assert row["bias"] == 0.75 and row["bias_ci"] is not None
        assert row["message_ratio"] is not None and row["message_ratio"] > 0
        _, formatted = section_table("sweep", rows)
        assert formatted[0][0] == "dealer-ambush|n=4"

    def test_sweep_table_skips_absent_cells(self):
        campaign = build_attack_sweep("sweep", ["dealer-ambush"], [4, 8], [0])
        assert sweep_table(campaign, {}) == []


class TestPredictedMessages:
    def test_known_protocols(self):
        assert predicted_messages("acast", 4, {}) > 0
        assert predicted_messages("svss", 4, {}) > 0
        assert predicted_messages("aba", 4, {}) > 0
        assert predicted_messages("common_subset", 4, {}) > 0
        assert predicted_messages("weak_coin", 4, {}) > 0
        assert predicted_messages("fba", 4, {}) > 0
        assert predicted_messages("fair_choice", 4, {"m": 3}) > 0

    def test_coinflip_uses_rounds_param(self):
        assert predicted_messages("coinflip", 4, {"rounds": 2}) == float(
            coinflip_expected_messages(4, 2)
        )

    def test_unknown_protocol_and_missing_params_return_none(self):
        assert predicted_messages("nonesuch", 4, {}) is None
        assert predicted_messages("fair_choice", 4, {}) is None


class TestCacheHitRate:
    def test_pools_plane_counters(self):
        agg = TrialAggregate()
        agg.metric_counters["crypto.plane.row_hits"] = 30
        agg.metric_counters["crypto.plane.row_misses"] = 10
        agg.metric_counters["crypto.plane.eval_hits"] = 10
        agg.metric_counters["crypto.plane.eval_misses"] = 0
        assert cache_hit_rate(agg) == 0.8

    def test_none_without_plane_counters(self):
        assert cache_hit_rate(TrialAggregate()) is None
