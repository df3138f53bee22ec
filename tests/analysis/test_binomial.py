"""Tests for the Appendix-D bias analysis."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.binomial import (
    bias_bound_row,
    central_band_bound,
    coinflip_iterations,
    exact_tail_probability,
    fair_choice_bits,
    fair_choice_epsilon,
    minimum_iterations_for_bias,
    monte_carlo_tail,
    paper_tail_lower_bound,
)


class TestIterationFormula:
    def test_matches_paper_expression(self):
        epsilon, n = 0.25, 4
        expected = 4 * math.ceil((math.e / (epsilon * math.pi)) ** 2 * n**4)
        assert coinflip_iterations(epsilon, n) == expected

    def test_monotone_in_epsilon(self):
        assert coinflip_iterations(0.1, 4) > coinflip_iterations(0.2, 4)

    def test_monotone_in_n(self):
        assert coinflip_iterations(0.2, 7) > coinflip_iterations(0.2, 4)

    def test_scales_as_n_fourth(self):
        small = coinflip_iterations(0.2, 4)
        large = coinflip_iterations(0.2, 8)
        assert large / small == pytest.approx(16, rel=0.05)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0, -0.1])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            coinflip_iterations(epsilon, 4)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            coinflip_iterations(0.2, 0)


class TestFairChoiceParameters:
    @pytest.mark.parametrize("m,expected_bits", [(3, 5), (4, 5), (5, 6), (8, 7)])
    def test_bits_smallest_power_of_two_at_least_2m2(self, m, expected_bits):
        bits = fair_choice_bits(m)
        assert bits == expected_bits
        assert 2 ** bits >= 2 * m * m
        assert 2 ** (bits - 1) < 2 * m * m

    def test_epsilon_formula(self):
        assert fair_choice_epsilon(4) == pytest.approx(1.0 / (100 * 4 * 2))

    def test_epsilon_rejects_m_below_2(self):
        with pytest.raises(ValueError):
            fair_choice_epsilon(1)


class TestTailProbabilities:
    def test_exact_tail_symmetric_coin(self):
        # Bin(4, 1/2): P[X > 2] = (4 + 1) / 16
        assert exact_tail_probability(4, 2) == pytest.approx(5 / 16)

    def test_exact_tail_edge_cases(self):
        assert exact_tail_probability(10, 10) == 0.0
        assert exact_tail_probability(10, -1) == 1.0

    def test_exact_tail_matches_monte_carlo(self):
        k, threshold = 40, 24
        exact = exact_tail_probability(k, threshold)
        estimate = monte_carlo_tail(k, threshold, samples=4000, rng=random.Random(0))
        assert estimate == pytest.approx(exact, abs=0.03)

    def test_paper_bound_is_conservative(self):
        """The paper's closed-form bound never exceeds the exact probability."""
        for n in (2, 3):
            k = coinflip_iterations(0.3, n)
            # exact computation is feasible only for small k; sub-sample n
            if k > 200_000:
                continue
            exact = exact_tail_probability(k, k // 2 + n * n)
            assert paper_tail_lower_bound(k, n) <= exact + 1e-9

    def test_paper_bound_hits_half_minus_epsilon(self):
        for n, epsilon in [(4, 0.25), (7, 0.1)]:
            k = coinflip_iterations(epsilon, n)
            assert paper_tail_lower_bound(k, n) >= 0.5 - epsilon - 1e-9

    def test_monte_carlo_agrees_with_the_exact_tail(self):
        # k truncated to 512: a sampled binomial at the paper's k is too slow.
        n, epsilon = 2, 0.25
        k = min(coinflip_iterations(epsilon, n), 512)
        threshold = k // 2 + n * n
        exact = bias_bound_row(n, epsilon, k_override=k).exact_probability
        assert monte_carlo_tail(k, threshold, samples=2000) == pytest.approx(exact, abs=0.05)
        assert paper_tail_lower_bound(k, n) <= exact + 1e-9

    def test_central_band_bound_positive(self):
        assert central_band_bound(1000, 2) > 0


class TestRows:
    def test_bias_bound_row_with_override(self):
        row = bias_bound_row(2, 0.3, k_override=64)
        assert row.k == 64
        assert 0 <= row.exact_probability <= 1

    @pytest.mark.parametrize(
        "n,epsilon", [(2, 0.3), (2, 0.25), (2, 0.1), (3, 0.25), (3, 0.1)]
    )
    def test_bias_bound_row_full_k_satisfies_claim(self, n, epsilon):
        """Appendix D at the paper's k: the exact tail and the closed-form
        bound both clear 1/2 - eps."""
        row = bias_bound_row(n, epsilon)
        assert row.satisfies_claim
        assert row.paper_bound >= 0.5 - epsilon - 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_minimum_iterations_much_smaller_than_paper(self, n):
        """The paper's constant is very conservative; the exact threshold is far lower."""
        epsilon = 0.25
        minimal = minimum_iterations_for_bias(n, epsilon)
        assert minimal < coinflip_iterations(epsilon, n)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 200), threshold=st.integers(0, 220))
def test_tail_probability_is_a_probability(k, threshold):
    value = exact_tail_probability(k, threshold)
    assert 0.0 <= value <= 1.0


@settings(max_examples=20, deadline=None)
@given(k=st.integers(4, 120))
def test_tail_probability_monotone_in_threshold(k):
    values = [exact_tail_probability(k, threshold) for threshold in range(0, k, max(1, k // 7))]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
