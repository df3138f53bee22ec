"""Ablation harness: factor registry, grid builders, tables, sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.ablation import (
    BASELINE_CELL,
    DEFAULT_BASE_PARAMS,
    OPTIMISATION_FACTORS,
    Factor,
    build_ablation_campaign,
    build_attack_sweep,
    cache_hit_rate,
    contribution_table,
    factorial_cells,
    format_contribution_rows,
    format_sweep_rows,
    one_factor_out_cells,
    predicted_messages,
    render_table,
    scenario_factors,
    sweep_table,
)
from repro.analysis.complexity import coinflip_expected_messages
from repro.core.results import TrialAggregate
from repro.errors import ExperimentError
from repro.experiments.cli import build_parser
from repro.experiments.runner import run_campaign, run_trial
from repro.experiments.spec import CampaignSpec, ExperimentSpec

TUNING_A = Factor("tune_a", "a", ablated={"tuning": {"pause_gc": False}})
TUNING_B = Factor("tune_b", "b", ablated={"tuning": {"group_mode": False}})
PARAM_C = Factor("param_c", "c", ablated={"metering": False}, stats_preserving=False)


class TestFactorRegistry:
    def test_optimisation_factor_names_unique_and_cover_the_stack(self):
        names = [factor.name for factor in OPTIMISATION_FACTORS]
        assert len(names) == len(set(names))
        # The issue's factor list: EvalPlan, group mode, metering, GC pause,
        # tracing.
        assert set(names) == {
            "eval_plan",
            "group_queue",
            "gc_pause",
            "trace_free",
            "metering",
        }

    def test_scenario_factors_cover_every_component(self):
        assert [factor.scenario_component for factor in scenario_factors()] == [
            "scheduler",
            "corruption",
            "timeline",
            "tamper",
        ]
        assert all(not factor.stats_preserving for factor in scenario_factors())

    def test_pure_optimisations_are_marked_stats_preserving(self):
        by_name = {factor.name: factor for factor in OPTIMISATION_FACTORS}
        assert by_name["eval_plan"].stats_preserving
        assert by_name["group_queue"].stats_preserving
        assert not by_name["metering"].stats_preserving


    def test_eval_plan_arms_differ_at_the_cli_default_size(self):
        """A ``no-X`` arm must differ from the full one: at the size ``ablate``
        runs by default the baseline deals on a vectorised plan and the
        ablated arm on the scalar kernels (it compared scalar with scalar
        while the plane's cutoff sat above that size)."""
        pytest.importorskip("numpy")
        n = build_parser().parse_args(["ablate", "--quick"]).n
        (eval_plan,) = [f for f in OPTIMISATION_FACTORS if f.name == "eval_plan"]
        cells = one_factor_out_cells("weak_coin", n, [0], [eval_plan])
        modes = {
            cell.name: run_trial(cell, 0).metrics["crypto"]["plan_mode"] for cell in cells
        }
        assert modes[BASELINE_CELL] in ("matmul", "split")
        assert modes["no-eval_plan"] == "scalar"


class TestGridExpansion:
    def test_one_factor_out_matches_hand_built_cells(self):
        cells = one_factor_out_cells(
            "coinflip", 4, [1, 2], [TUNING_A, PARAM_C], base_params={"rounds": 2}
        )
        base = {"tracing": False, "metrics": True, "rounds": 2}
        expected = [
            ExperimentSpec(
                name=BASELINE_CELL, protocol="coinflip", n=4, seeds=[1, 2], params=base
            ),
            ExperimentSpec(
                name="no-tune_a",
                protocol="coinflip",
                n=4,
                seeds=[1, 2],
                params={**base, "tuning": {"pause_gc": False}},
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

    def test_factorial_grid_composes_tuning_overlays(self):
        cells = factorial_cells("coinflip", 4, [0], [TUNING_A, TUNING_B])
        by_name = {cell.name: cell for cell in cells}
        assert set(by_name) == {
            BASELINE_CELL,
            "no-tune_a",
            "no-tune_b",
            "no-tune_a+no-tune_b",
        }
        both = by_name["no-tune_a+no-tune_b"].params["tuning"]
        assert both == {"pause_gc": False, "group_mode": False}

    def test_factorial_cap(self):
        factors = [Factor(f"f{i}", "x", ablated={}) for i in range(9)]
        with pytest.raises(ExperimentError, match="cap is 8"):
            factorial_cells("coinflip", 4, [0], factors)

    def test_base_params_are_not_mutated_by_overlays(self):
        base = {"tuning": {"pause_gc": True}}
        cells = one_factor_out_cells("coinflip", 4, [0], [TUNING_A], base_params=base)
        assert base == {"tuning": {"pause_gc": True}}
        assert cells[1].params["tuning"]["pause_gc"] is False
        assert cells[0].params["tuning"]["pause_gc"] is True

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
            factors=[TUNING_A, PARAM_C],
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
        rows = contribution_table(results, [TUNING_A, PARAM_C])
        by_cell = {row.cell: row for row in rows}
        assert by_cell[BASELINE_CELL].factor is None
        assert by_cell["no-tune_a"].stats_identical is True
        # Metering off drops the message stats, so identity is not expected
        # (and not evaluated).
        assert by_cell["no-param_c"].stats_identical is None
        assert not by_cell["no-param_c"].stats_expected_identical

    def test_contribution_table_reports_cache_hits_and_throughput(self, results):
        rows = contribution_table(results, [TUNING_A])
        for row in rows:
            assert row.trials == 4
            assert row.deliveries_per_s is None or row.deliveries_per_s > 0
        assert rows[0].cache_hit_rate is not None
        assert 0.0 <= rows[0].cache_hit_rate <= 1.0

    def test_contribution_table_requires_baseline(self, results):
        partial = {k: v for k, v in results.items() if k != BASELINE_CELL}
        with pytest.raises(ExperimentError, match="baseline"):
            contribution_table(partial, [TUNING_A])

    def test_contribution_table_skips_missing_cells(self, results):
        rows = contribution_table(results, [TUNING_A, TUNING_B])
        assert [row.cell for row in rows] == [BASELINE_CELL, "no-tune_a"]

    def test_render_helpers_are_total(self, results):
        rows = contribution_table(results, [TUNING_A, PARAM_C])
        formatted = format_contribution_rows(rows)
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
        assert row.n == 4 and row.trials == 4
        assert row.disagreement_rate == 0.25
        low, high = row.disagreement_ci
        assert 0.0 <= low < 0.25 < high <= 1.0
        assert row.bias == 0.75 and row.bias_ci is not None
        assert row.message_ratio is not None and row.message_ratio > 0
        formatted = format_sweep_rows(rows)
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
