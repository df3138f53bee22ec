"""Tests for the Claim-1 and Claim-2 attacks of Section 2."""

from __future__ import annotations

import random

import pytest

from repro.analysis.claims import PASS, avss_lower_bound_claim
from repro.lowerbound.attack import DealerSplitAttack, ReconstructionAttack
from repro.lowerbound.experiment import (
    CORRECTNESS_FAILURE_THRESHOLD,
    evaluate_candidate,
    format_report,
    run_experiment,
)
from repro.lowerbound.toy_avss import echo_checked_avss, masked_xor_avss


class TestDealerSplitAttack:
    def test_guesses_always_samplable_for_masked_xor(self):
        attack = DealerSplitAttack(masked_xor_avss())
        assert attack.sample_guesses(random.Random(0)) is not None

    def test_split_achieved_when_guesses_correct(self):
        """Claim 1: conditioned on guessing the honest randomness, the dealer
        splits the views with certainty."""
        attack = DealerSplitAttack(masked_xor_avss())
        rng = random.Random(1)
        successes = 0
        for _ in range(50):
            outcome = attack.execute(rng)
            if outcome.guessed_randomness:
                successes += 1
                assert outcome.split_achieved
        assert successes > 0

    def test_first_execution_is_applicable(self):
        attack = DealerSplitAttack(masked_xor_avss())
        assert attack.execute(random.Random(0)).applicable

    def test_statistics_fields(self):
        attack = DealerSplitAttack(masked_xor_avss())
        stats = attack.success_statistics(trials=30, seed=2)
        assert stats["applicable_rate"] == 1.0
        assert 0.0 <= stats["split_rate_given_guess"] <= 1.0
        assert stats["split_rate_given_guess"] == 1.0

    def test_not_applicable_against_echo_checked(self):
        """The cross-checking candidate reveals the secret through m_AB, so the
        dealer cannot find a consistent pair of views to split."""
        attack = DealerSplitAttack(echo_checked_avss())
        stats = attack.success_statistics(trials=20, seed=3)
        assert stats["applicable_rate"] == 0.0


class TestReconstructionAttack:
    def test_wrong_output_rate_exceeds_one_third(self):
        """Claim 2 consequence: the masked-xor candidate cannot be (2/3+eps)-correct."""
        attack = ReconstructionAttack(masked_xor_avss())
        stats = attack.success_statistics(trials=400, seed=4)
        assert stats["a_wrong_output_rate"] > CORRECTNESS_FAILURE_THRESHOLD

    def test_attack_rate_is_about_one_half_for_masked_xor(self):
        attack = ReconstructionAttack(masked_xor_avss())
        stats = attack.success_statistics(trials=600, seed=5)
        assert stats["a_wrong_output_rate"] == pytest.approx(0.5, abs=0.07)

    def test_echo_checked_resists_the_attack(self):
        attack = ReconstructionAttack(echo_checked_avss())
        stats = attack.success_statistics(trials=200, seed=6)
        assert stats["a_wrong_output_rate"] == 0.0

    def test_first_execution_has_an_output(self):
        attack = ReconstructionAttack(masked_xor_avss())
        assert attack.execute(random.Random(1)).a_output is not None

    def test_honest_fallback_when_simulation_impossible(self):
        attack = ReconstructionAttack(echo_checked_avss())
        outcome = attack.execute(random.Random(7))
        assert outcome.a_output == 0


class TestExperiment:
    def test_rows_for_all_candidates(self):
        rows = run_experiment(trials=100, seed=8)
        assert set(rows) == {"masked-xor", "echo-checked"}

    def test_theorem_holds_for_every_candidate(self):
        """Theorem 2.2: secrecy and termination at n = 4t force a correctness
        failure above the 1/3 budget; the echo-checked candidate gives up
        secrecy instead."""
        rows = run_experiment(trials=300, seed=0)
        assert avss_lower_bound_claim(rows).status == PASS
        assert all(row.consistent_with_theorem for row in rows.values())
        masked = rows["masked-xor"]
        assert masked.secrecy_holds and masked.correctness_violated
        assert masked.claim2_wrong_output_rate > CORRECTNESS_FAILURE_THRESHOLD
        assert not rows["echo-checked"].secrecy_holds

    def test_masked_xor_row_consistent_with_theorem(self):
        row = evaluate_candidate(masked_xor_avss(), trials=200, seed=9)
        assert row.secrecy_holds
        assert row.termination_rate == pytest.approx(1.0)
        assert row.correctness_violated
        assert row.consistent_with_theorem

    def test_echo_checked_row_flags_secrecy(self):
        row = evaluate_candidate(echo_checked_avss(), trials=50, seed=10)
        assert not row.secrecy_holds
        assert row.consistent_with_theorem

    def test_report_formatting(self):
        rows = run_experiment(trials=50, seed=11)
        text = format_report(list(rows.values()))
        assert "masked-xor" in text
        assert "Theorem check" in text
