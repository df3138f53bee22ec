"""Tests for the Appendix-E FairChoice validity analysis."""

from __future__ import annotations

import pytest

from repro.analysis.fairness import (
    exact_validity_probability,
    fairness_row,
    fba_fair_validity_bound,
    paper_validity_lower_bound,
    worst_case_probability,
)


class TestPaperBound:
    @pytest.mark.parametrize("m", [3, 4, 5, 8, 16, 64])
    def test_bound_exceeds_half(self, m):
        """Appendix E: the closed-form bound is strictly above 1/2 for every m >= 3."""
        assert paper_validity_lower_bound(m) > 0.5

    def test_bound_decreases_towards_half(self):
        values = [paper_validity_lower_bound(m) for m in (3, 5, 9, 17, 65)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.5

    def test_rejects_m_below_3(self):
        with pytest.raises(ValueError):
            paper_validity_lower_bound(2)


class TestExactProbabilities:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_ideal_probability_close_to_subset_fraction(self, m):
        subset = list(range(m // 2 + 1))
        probability = exact_validity_probability(m, subset)
        assert probability == pytest.approx(len(subset) / m, abs=2 / (2 * m * m))

    def test_full_target_has_probability_one(self):
        assert exact_validity_probability(4, [0, 1, 2, 3]) == 1.0

    def test_empty_target_has_probability_zero(self):
        assert exact_validity_probability(4, []) == 0.0

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_worst_case_probability_above_half_for_majorities(self, m):
        """Theorem 4.3 reproduced numerically: majority subsets win with prob > 1/2
        even when every coin is adversarially biased by epsilon."""
        subset = list(range(m // 2 + 1))
        assert worst_case_probability(m, subset) > 0.5

    def test_worst_case_below_ideal(self):
        subset = [0, 1]
        assert worst_case_probability(3, subset) <= exact_validity_probability(3, subset)


class TestRows:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 8])
    def test_row_contents(self, m):
        """Theorem 4.3 for the smallest majority subset of ``{0 .. m-1}``."""
        row = fairness_row(m)
        assert row.m == m
        assert row.subset_size == m // 2 + 1
        assert row.satisfies_claim
        assert row.paper_bound > 0.5
        assert row.worst_case > 0.5
        assert row.ideal_probability > row.worst_case - 1e-9

    def test_row_rejects_minority_subset(self):
        with pytest.raises(ValueError):
            fairness_row(5, subset_size=2)

    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3)])
    def test_fba_bound_above_half(self, n, t):
        assert fba_fair_validity_bound(n, t) > 0.5
