"""Tests for the message-complexity predictions (experiment E8 support)."""

from __future__ import annotations

import pytest

from repro.analysis.complexity import (
    ComplexityRow,
    acast_messages,
    aba_expected_messages,
    coinflip_expected_messages,
    coinflip_theoretical_messages,
    common_subset_expected_messages,
    fba_expected_messages,
    predicted_messages,
    svss_rec_messages,
    svss_share_messages,
)
from repro.core import api


class TestClosedForms:
    def test_acast_quadratic(self):
        assert acast_messages(4) == 4 + 32
        assert acast_messages(8) / acast_messages(4) > 3

    def test_svss_quadratic(self):
        assert svss_share_messages(4) == 4 + 12 + 16
        assert svss_rec_messages(4) == 16

    def test_common_subset_is_n_times_ba(self):
        assert common_subset_expected_messages(4) == 4 * aba_expected_messages(4)

    def test_coinflip_linear_in_rounds(self):
        one = coinflip_expected_messages(4, 1)
        three = coinflip_expected_messages(4, 3)
        assert three > 2.5 * one - aba_expected_messages(4)

    def test_theoretical_coinflip_is_enormous(self):
        """The paper-scale iteration count dwarfs any simulation-scale run."""
        assert coinflip_theoretical_messages(4, 0.25) > 1e6
        assert coinflip_theoretical_messages(7, 0.1) > 1e8
        paper_scale = [
            coinflip_theoretical_messages(n, eps) for n, eps in [(4, 0.25), (7, 0.25), (7, 0.1)]
        ]
        assert paper_scale == sorted(set(paper_scale))

    def test_fba_prediction_positive(self):
        assert fba_expected_messages(4, 1) > 0

    def test_predictions_dict_keys(self):
        predictions = {
            protocol: predicted_messages(protocol, 4, {"rounds": 2, "coinflip_rounds": 2})
            for protocol in ("acast", "svss", "aba", "common_subset", "coinflip", "fba")
        }
        assert None not in predictions.values()

    def test_complexity_row_ratio(self):
        row = ComplexityRow(protocol="acast", n=4, predicted=100.0, measured=50.0)
        assert row.ratio == 0.5


class TestPredictionsAgainstSimulator:
    def test_acast_prediction_is_upper_bound(self):
        result = api.run_acast(4, "x", sender=0, seed=0)
        assert result.trace.messages_sent <= acast_messages(4)

    def test_svss_share_prediction_within_factor_two(self):
        result = api.run_svss(4, 5, dealer=0, seed=0)
        predicted = svss_share_messages(4) + svss_rec_messages(4)
        assert result.trace.messages_sent <= 2 * predicted

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_measured_counts_within_a_constant_of_predictions(self, n):
        """Measured counts share the predictions' polynomial order."""
        acast = api.run_acast(n, "x", sender=0, seed=0).trace.messages_sent
        svss = api.run_svss(n, 5, dealer=0, seed=0).trace.messages_sent
        coinflip = api.run_coinflip(n, seed=0, rounds=1).trace.messages_sent
        assert acast <= 2 * acast_messages(n)
        assert svss <= 3 * (svss_share_messages(n) + svss_rec_messages(n))
        assert coinflip <= 4 * predicted_messages("coinflip", n, {"rounds": 1})

    def test_coinflip_growth_from_4_to_7_parties(self):
        measured = [api.run_coinflip(n, seed=0, rounds=1).trace.messages_sent for n in (4, 7)]
        ratio = measured[1] / measured[0]
        predicted = coinflip_expected_messages(7, 1) / coinflip_expected_messages(4, 1)
        assert 2 < ratio < 4 * predicted

    def test_coinflip_measured_within_factor_three(self):
        rounds = 2
        result = api.run_coinflip(4, seed=0, rounds=rounds)
        predicted = coinflip_expected_messages(4, rounds)
        assert result.trace.messages_sent <= 3 * predicted
