"""Machine-checked paper claims on known-good and deliberately-broken data."""

from __future__ import annotations

from collections import Counter

from repro.analysis.claims import (
    FAIL,
    PASS,
    SKIP,
    ClaimReport,
    ClaimResult,
    avss_lower_bound_claim,
    evaluate_claims,
)
from repro.core.results import TrialAggregate
from repro.experiments.report import render_claims
from repro.experiments.runner import run_campaign
from repro.experiments.spec import CampaignSpec, ExperimentSpec
from repro.scenarios.invariants import delivery_envelope


def make_aggregate(
    trials: int,
    ones: int = 0,
    zeros: int = 0,
    disagreements: int = 0,
    messages: int = 0,
    steps: int = 0,
    director_actions=None,
    extra_values=None,
) -> TrialAggregate:
    agg = TrialAggregate()
    agg.trials = trials
    agg.disagreements = disagreements
    agg.value_counts = Counter({"1": ones, "0": zeros})
    if extra_values:
        agg.value_counts.update(extra_values)
    agg.total_messages = messages
    agg.total_steps = steps
    agg.director_actions = Counter(director_actions or {})
    return agg


def campaign_of(*cells: ExperimentSpec) -> CampaignSpec:
    return CampaignSpec(name="claims-test", cells=list(cells))


def check(name, campaign, results) -> ClaimResult:
    """The verdict of the claim row ``name`` of :data:`CLAIMS`."""
    (result,) = [r for r in evaluate_claims(campaign, results).results if r.claim == name]
    return result


def coin_cell(name="coin", n=4, seeds=10, **params) -> ExperimentSpec:
    return ExperimentSpec(
        name=name, protocol="coinflip", n=n, seeds=list(range(seeds)), params=params
    )


class TestCoinBias:
    def test_balanced_honest_coin_passes(self):
        campaign = campaign_of(coin_cell())
        result = check("coin_bias", campaign, {"coin": make_aggregate(10, ones=5, zeros=5)})
        assert result.status == PASS
        assert result.cells == ("coin",)

    def test_one_sided_small_sample_is_not_refuted(self):
        # 10/10 on one side cannot statistically refute Pr >= 0.25 at 95%:
        # the Wilson upper bound for 0/10 is ~0.28.
        campaign = campaign_of(coin_cell())
        result = check("coin_bias", campaign, {"coin": make_aggregate(10, ones=10)})
        assert result.status == PASS

    def test_rigged_coin_fails(self):
        # 20/20 on one side: the other bit's 95% UCB is ~0.16 < 0.25.
        campaign = campaign_of(coin_cell(seeds=20))
        result = check("coin_bias", campaign, {"coin": make_aggregate(20, ones=20)})
        assert result.status == FAIL
        assert "refutes bound" in result.detail

    def test_uses_cell_epsilon(self):
        # With a looser epsilon = 0.45 the bound is 0.05, which 20 one-sided
        # trials cannot refute.
        campaign = campaign_of(coin_cell(seeds=20, epsilon=0.45))
        result = check("coin_bias", campaign, {"coin": make_aggregate(20, ones=20)})
        assert result.status == PASS

    def test_adversarial_and_foreign_cells_are_skipped(self):
        scenario_cell = ExperimentSpec(
            name="attack", protocol="coinflip", n=4, seeds=[0], scenario="dealer-ambush"
        )
        campaign = campaign_of(scenario_cell)
        result = check("coin_bias", campaign, {"attack": make_aggregate(1, ones=1)})
        assert result.status == SKIP


class TestFairValidity:
    # At n=4 (t=1) and m=3 both theorems' bound is 0.534.
    @staticmethod
    def fair_choice(seeds):
        return ExperimentSpec(
            name="fc", protocol="fair_choice", n=4, seeds=list(range(seeds)),
            params={"m": 3, "coinflip_rounds": 1},
        )

    @staticmethod
    def fba(seeds, inputs=None, **fields):
        inputs = inputs or {"0": "h0", "1": "h1", "2": "h2", "3": "x"}
        adversary = {"3": {"behavior": "fba_value_injector", "params": {"value": "x"}}}
        return ExperimentSpec(
            name="fba", protocol="fba", n=4, seeds=list(range(seeds)),
            params={"inputs": inputs}, adversary=adversary, **fields,
        )

    @staticmethod
    def outcomes(trials, **wins):
        agg = make_aggregate(trials)
        agg.value_counts = Counter({repr(value): count for value, count in wins.items()})
        return agg

    def test_fair_choice_counts_the_smallest_majority_subset(self):
        agg = make_aggregate(20, zeros=6, ones=8, extra_values={"2": 6})
        result = check("fair_validity", campaign_of(self.fair_choice(20)), {"fc": agg})
        assert result.status == PASS
        assert "14/20 honest wins (bound 0.534)" in result.detail

    def test_fair_choice_six_of_twenty_is_refuted(self):
        # The old script floor (hits >= 20 // 3) passed this.
        agg = make_aggregate(20, zeros=3, ones=3, extra_values={"2": 14})
        result = check("fair_validity", campaign_of(self.fair_choice(20)), {"fc": agg})
        assert result.status == FAIL
        assert "6/20" in result.detail

    def test_fba_counts_honest_inputs_only(self):
        campaign = campaign_of(self.fba(16))
        assert check("fair_validity", campaign, {"fba": self.outcomes(16, h0=5, x=11)}).status == PASS
        assert check("fair_validity", campaign, {"fba": self.outcomes(16, h0=4, x=12)}).status == FAIL

    def test_disagreeing_trials_count_as_losses(self):
        agg = self.outcomes(16, h0=4)
        agg.disagreements = 12
        assert check("fair_validity", campaign_of(self.fba(16)), {"fba": agg}).status == FAIL

    def test_unanimous_honest_inputs_and_scenario_cells_are_skipped(self):
        unanimous = self.fba(16, inputs={"0": "h", "1": "h", "2": "h", "3": "x"})
        scenario = self.fba(16, scenario="dealer-ambush")
        for cell in (unanimous, scenario):
            result = check("fair_validity", campaign_of(cell), {"fba": self.outcomes(16, x=16)})
            assert result.status == SKIP


class TestCorruptionTolerance:
    def test_within_budget_passes(self):
        cell = ExperimentSpec(
            name="attack", protocol="weak_coin", n=4, seeds=[0, 1], scenario="x"
        )
        agg = make_aggregate(2, director_actions={"corrupt": 2})
        result = check("corruption_tolerance", campaign_of(cell), {"attack": agg})
        assert result.status == PASS

    def test_director_overrun_fails(self):
        cell = ExperimentSpec(
            name="attack", protocol="weak_coin", n=4, seeds=[0, 1], scenario="x"
        )
        agg = make_aggregate(2, director_actions={"corrupt": 3})  # t=1, trials=2
        result = check("corruption_tolerance", campaign_of(cell), {"attack": agg})
        assert result.status == FAIL

    def test_static_adversary_overrun_fails(self):
        cell = ExperimentSpec(
            name="attack",
            protocol="weak_coin",
            n=4,
            seeds=[0],
            # Two static corruptions exceed t = 1 for n = 4.
            adversary={0: {"behavior": "silent"}, 1: {"behavior": "silent"}},
        )
        result = check(
            "corruption_tolerance", campaign_of(cell), {"attack": make_aggregate(1)}
        )
        assert result.status == FAIL

    def test_honest_campaign_skips(self):
        campaign = campaign_of(coin_cell())
        result = check("corruption_tolerance", campaign, {"coin": make_aggregate(10)})
        assert result.status == SKIP

    def test_a_static_crash_counts_once_per_trial(self):
        cell = ExperimentSpec(
            name="crash", protocol="coinflip", n=4, seeds=list(range(24)),
            adversary={3: {"behavior": "crash"}},
        )
        result = check("corruption_tolerance", campaign_of(cell), {"crash": make_aggregate(24)})
        assert (result.status, result.detail) == (PASS, "crash: corruptions=24 <= t*trials=24")

    def test_a_scenario_static_plan_counts_with_the_director(self):
        # rushing-coalition corrupts party 3 before every trial; one more
        # director corruption over 4 trials at t = 1 overruns the budget.
        cell = ExperimentSpec(
            name="rush", protocol="weak_coin", n=4, seeds=[0, 1, 2, 3],
            scenario="rushing-coalition",
        )
        within = check("corruption_tolerance", campaign_of(cell), {"rush": make_aggregate(4)})
        assert (within.status, within.detail) == (PASS, "rush: corruptions=4 <= t*trials=4")
        over = make_aggregate(4, director_actions={"corrupt": 1})
        assert check("corruption_tolerance", campaign_of(cell), {"rush": over}).status == FAIL


class TestAgreement:
    def test_zero_disagreements_pass(self):
        cell = ExperimentSpec(name="aba", protocol="aba", n=4, seeds=[0, 1])
        result = check(
            "agreement", campaign_of(cell), {"aba": make_aggregate(2, ones=2)}
        )
        assert result.status == PASS

    def test_disagreement_fails(self):
        cell = ExperimentSpec(name="aba", protocol="aba", n=4, seeds=[0, 1])
        result = check(
            "agreement", campaign_of(cell), {"aba": make_aggregate(2, ones=1, disagreements=1)}
        )
        assert result.status == FAIL

    def test_weak_coin_is_exempt(self):
        cell = ExperimentSpec(name="wc", protocol="weak_coin", n=4, seeds=[0])
        result = check(
            "agreement", campaign_of(cell), {"wc": make_aggregate(1, disagreements=1)}
        )
        assert result.status == SKIP


class TestOutputDomain:
    def test_bits_pass(self):
        cell = coin_cell()
        result = check(
            "output_domain", campaign_of(cell), {"coin": make_aggregate(10, ones=4, zeros=6)}
        )
        assert result.status == PASS

    def test_stray_value_fails(self):
        cell = coin_cell()
        agg = make_aggregate(10, ones=9, extra_values={"2": 1})
        result = check("output_domain", campaign_of(cell), {"coin": agg})
        assert result.status == FAIL
        assert "'2'" in result.detail


class TestMessageComplexity:
    def test_within_envelope_passes(self):
        cell = coin_cell(rounds=2)
        agg = make_aggregate(10, ones=5, zeros=5, messages=10 * 1300)
        result = check("message_complexity", campaign_of(cell), {"coin": agg})
        assert result.status == PASS

    def test_blowup_fails(self):
        cell = coin_cell(rounds=2)
        agg = make_aggregate(10, ones=5, zeros=5, messages=10 * 100000)
        result = check("message_complexity", campaign_of(cell), {"coin": agg})
        assert result.status == FAIL
        assert "x the predicted" in result.detail

    def test_meterless_cells_are_skipped(self):
        cell = coin_cell(rounds=2)
        agg = make_aggregate(10, ones=5, zeros=5, messages=0)
        result = check("message_complexity", campaign_of(cell), {"coin": agg})
        assert result.status == SKIP


class TestTermination:
    # For a 2-round coinflip at n=4 the envelope is max(120 * 16,
    # 3 * 1360) = 4080 delivered messages per trial.
    def test_within_bound_passes(self):
        agg = make_aggregate(10, ones=5, zeros=5, steps=10 * 1000)
        result = check("termination", campaign_of(coin_cell(rounds=2)), {"coin": agg})
        assert result.status == PASS

    def test_runaway_fails(self):
        agg = make_aggregate(10, ones=5, zeros=5, steps=10 * 5000)
        result = check("termination", campaign_of(coin_cell(rounds=2)), {"coin": agg})
        assert result.status == FAIL

    def test_a_checked_fba_trial_is_held_to_the_same_envelope(self):
        """The per-trial step bound is the claim's envelope, not 120 n**2: a
        healthy FBA trial at n=4 takes 3 812 deliveries, over 1 920."""
        cell = ExperimentSpec(
            name="fba-checked",
            protocol="fba",
            n=4,
            seeds=[100],
            params={"inputs": {"0": "h0", "1": "h1", "2": "h2", "3": "x"}, "coinflip_rounds": 1},
            adversary={"3": {"behavior": "fba_value_injector", "params": {"value": "x"}}},
            invariants=True,
        )
        assert delivery_envelope("fba", 4, cell.params) == 12816
        results = run_campaign(campaign_of(cell))
        assert results["fba-checked"].total_steps == 3812
        result = check("termination", campaign_of(cell), results)
        assert (result.status, result.detail) == (PASS, "fba-checked: 3812/12816")

    def test_flat_envelope_applies_without_a_prediction(self):
        cell = ExperimentSpec(name="wc", protocol="nonesuch", n=4, seeds=[0])
        agg = make_aggregate(1, steps=5000)  # default_step_bound(4) = 1920
        result = check("termination", campaign_of(cell), {"wc": agg})
        assert result.status == FAIL


class TestMessageLowerBound:
    def test_honest_cell_above_floor_passes(self):
        # n=4 -> t=1 -> floor n-t=3; 10 trials x 1300 msgs is far above.
        campaign = campaign_of(coin_cell(rounds=2))
        agg = make_aggregate(10, ones=5, zeros=5, messages=13000)
        result = check("message_lower_bound", campaign, {"coin": agg})
        assert result.status == PASS
        assert "n-t=3" in result.detail

    def test_impossibly_cheap_cell_fails(self):
        # 10 trials, 10 messages total: mean 1 < n-t = 3.  No real protocol
        # run can be this cheap; the accounting must be broken.
        campaign = campaign_of(coin_cell(rounds=2))
        agg = make_aggregate(10, ones=5, zeros=5, messages=10)
        result = check("message_lower_bound", campaign, {"coin": agg})
        assert result.status == FAIL
        assert "below the n-t=3 lower bound" in result.detail

    def test_skips_without_message_stats(self):
        campaign = campaign_of(coin_cell(rounds=2))
        agg = make_aggregate(10, ones=5, zeros=5, messages=0)
        result = check("message_lower_bound", campaign, {"coin": agg})
        assert result.status == SKIP

    def test_skips_adversarial_cells(self):
        cell = ExperimentSpec(
            name="attack", protocol="coinflip", n=4, seeds=[0], scenario="x"
        )
        agg = make_aggregate(1, ones=1, messages=100)
        result = check("message_lower_bound", campaign_of(cell), {"attack": agg})
        assert result.status == SKIP


class TestAvssLowerBoundClaim:
    @staticmethod
    def row(secrecy=True, termination=1.0, wrong=0.5, none=0.0):
        from repro.lowerbound.experiment import LowerBoundRow

        return LowerBoundRow(
            candidate="x",
            secrecy_a=secrecy,
            secrecy_b=secrecy,
            termination_rate=termination,
            claim1_split_rate_given_guess=1.0,
            claim1_guess_rate=0.5,
            claim2_wrong_output_rate=wrong,
            claim2_no_output_rate=none,
        )

    def test_attack_breaking_correctness_is_consistent(self):
        result = avss_lower_bound_claim({"masked": self.row(wrong=0.5)})
        assert result.status == PASS
        assert "attacks break correctness" in result.detail

    def test_candidate_without_secrecy_is_consistent(self):
        result = avss_lower_bound_claim({"echo": self.row(secrecy=False, wrong=0.0)})
        assert result.status == PASS
        assert "secrecy already fails" in result.detail

    def test_refuting_candidate_fails_the_claim(self):
        # Secrecy and termination hold, yet the attack stays inside the 1/3
        # budget: such a candidate would disprove Theorem 2.2.
        result = avss_lower_bound_claim({"magic": self.row(wrong=0.1)})
        assert result.status == FAIL
        assert "refute the theorem" in result.detail

    def test_empty_rows_skip(self):
        assert avss_lower_bound_claim({}).status == SKIP

    def test_real_experiment_rows_pass(self):
        from repro.lowerbound.experiment import run_experiment

        rows = run_experiment(trials=60, seed=3)
        assert avss_lower_bound_claim(rows).status == PASS


class TestEvaluateClaims:
    def test_known_good_campaign_passes_everything_applicable(self):
        campaign = campaign_of(coin_cell(rounds=2))
        agg = make_aggregate(10, ones=5, zeros=5, messages=13000, steps=12000)
        report = evaluate_claims(campaign, {"coin": agg})
        assert report.passed
        statuses = {result.claim: result.status for result in report.results}
        assert statuses == {
            "coin_bias": PASS,
            "fair_validity": SKIP,
            "corruption_tolerance": SKIP,
            "agreement": SKIP,
            "output_domain": PASS,
            "message_complexity": PASS,
            "message_lower_bound": PASS,
            "termination": PASS,
        }

    def test_single_failure_fails_the_report(self):
        campaign = campaign_of(coin_cell(seeds=20, rounds=2))
        agg = make_aggregate(20, ones=20, messages=26000, steps=24000)
        report = evaluate_claims(campaign, {"coin": agg})
        assert not report.passed
        assert report.counts[FAIL] == 1

    def test_report_renderings_and_dict_shape(self):
        campaign = campaign_of(coin_cell(rounds=2))
        agg = make_aggregate(10, ones=5, zeros=5, messages=13000, steps=12000)
        report = evaluate_claims(campaign, {"coin": agg})
        text = render_claims(report.to_dict(), "text")
        assert "[PASS] coin_bias" in text
        assert text.endswith("skipped\n")
        markdown = render_claims(report.to_dict(), "markdown")
        assert markdown.startswith("### Claims:")
        assert "| pass | `coin_bias` |" in markdown
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["counts"][PASS] == 5
        assert [entry["claim"] for entry in payload["claims"]] == [
            "coin_bias",
            "fair_validity",
            "corruption_tolerance",
            "agreement",
            "output_domain",
            "message_complexity",
            "message_lower_bound",
            "termination",
        ]

    def test_claim_result_round_trips_through_dict(self):
        result = ClaimResult(
            claim="x", statement="s", status=PASS, detail="d", cells=("a", "b")
        )
        data = result.to_dict()
        rebuilt = ClaimResult(**{**data, "cells": tuple(data["cells"])})
        assert rebuilt == result

    def test_empty_report_passes_vacuously(self):
        assert ClaimReport(campaign="empty").passed
