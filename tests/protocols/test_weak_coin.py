"""Tests for the SVSS-based weak common coin (the baseline primitive)."""

from __future__ import annotations

import pytest

from repro.adversary import CrashBehavior
from repro.core import api
from repro.net.scheduler import FIFOScheduler


class TestWeakCoin:
    @pytest.mark.parametrize("seed", range(5))
    def test_terminates_and_outputs_bits(self, seed):
        result = api.run_weak_coin(4, seed=seed)
        assert set(result.outputs) == {0, 1, 2, 3}
        assert all(value in (0, 1) for value in result.outputs.values())

    def test_terminates_with_crash(self):
        result = api.run_weak_coin(4, seed=2, corruptions={3: CrashBehavior.factory()})
        assert set(result.outputs) == {0, 1, 2}

    def test_fifo_scheduler_agreement(self):
        """Under FIFO (synchronous-looking) scheduling all parties fix the same
        attached set and therefore the same coin."""
        result = api.run_weak_coin(4, seed=0, scheduler=FIFOScheduler())
        assert not result.disagreement

    def test_both_outcomes_possible(self):
        values = set()
        for seed in range(12):
            result = api.run_weak_coin(4, seed=seed, scheduler=FIFOScheduler())
            values.add(result.values[0])
            if values == {0, 1}:
                break
        assert values == {0, 1}

    def test_disagreement_can_happen_under_async_scheduling(self):
        """The defining weakness of a weak coin: parties may disagree.

        We only assert that the protocol never errors and that *some* outcome
        (agreement or disagreement) is produced for every seed; the measured
        disagreement rate is the E2 cell of ``examples/campaigns/paper.json``.
        """
        outcomes = [api.run_weak_coin(4, seed=seed).disagreement for seed in range(8)]
        assert all(isinstance(outcome, bool) for outcome in outcomes)
