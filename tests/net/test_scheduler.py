"""Tests for the message schedulers (the formalised asynchronous adversary)."""

from __future__ import annotations

import random

import pytest

from repro.errors import SchedulingError
from repro.net.message import Message
from repro.net.scheduler import (
    DelayScheduler,
    FIFOScheduler,
    RandomScheduler,
    TargetedScheduler,
    delay_from_parties,
    delay_to_parties,
    partition_then_heal,
)


def _msg(sender, receiver, seq, kind="X"):
    return Message(sender, receiver, ("p",), (kind,), seq=seq)


PENDING = [_msg(0, 1, 5), _msg(1, 2, 3), _msg(2, 3, 9), _msg(3, 0, 1)]
RNG = random.Random(0)


class TestFIFO:
    def test_picks_lowest_seq(self):
        scheduler = FIFOScheduler()
        assert scheduler.choose(PENDING, RNG, 0) == 3  # seq=1

    def test_full_drain_is_in_order(self):
        scheduler = FIFOScheduler()
        pending = list(PENDING)
        order = []
        while pending:
            index = scheduler.choose(pending, RNG, 0)
            order.append(pending.pop(index).seq)
        assert order == sorted(order)


class TestRandom:
    def test_always_in_range(self):
        scheduler = RandomScheduler()
        rng = random.Random(1)
        for _ in range(200):
            assert 0 <= scheduler.choose(PENDING, rng, 0) < len(PENDING)

    def test_covers_all_choices(self):
        scheduler = RandomScheduler()
        rng = random.Random(2)
        seen = {scheduler.choose(PENDING, rng, 0) for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestValidation:
    def test_validate_rejects_out_of_range(self):
        scheduler = FIFOScheduler()
        with pytest.raises(SchedulingError):
            scheduler.validate(7, PENDING)
        with pytest.raises(SchedulingError):
            scheduler.validate(-1, PENDING)

    def test_validate_accepts_in_range(self):
        assert FIFOScheduler().validate(2, PENDING) == 2


def _drawn(scheduler, pending, step, draws=200):
    """Every index ``scheduler`` draws from ``pending`` at ``step`` in ``draws`` tries."""
    rng = random.Random(3)
    return {scheduler.choose(pending, rng, step) for _ in range(draws)}


class TestDelay:
    def test_starves_matching_messages(self):
        scheduler = DelayScheduler(lambda m: m.sender == 0)
        assert _drawn(scheduler, PENDING, 0) == {1, 2, 3}

    def test_delivers_when_only_matching_remain(self):
        scheduler = DelayScheduler(lambda m: True)
        assert _drawn(scheduler, PENDING, 0) == {0, 1, 2, 3}

    def test_expiry_releases_messages(self):
        scheduler = DelayScheduler(lambda m: m.sender == 3, max_delay_steps=10)
        assert _drawn(scheduler, PENDING, 9) == {0, 1, 2}
        assert _drawn(scheduler, PENDING, 10) == {0, 1, 2, 3}

    def test_delay_from_parties_helper(self):
        drawn = _drawn(delay_from_parties([0, 1]), PENDING, 0)
        assert {PENDING[index].sender for index in drawn} == {2, 3}

    def test_delay_to_parties_helper(self):
        drawn = _drawn(delay_to_parties([0, 3]), PENDING, 0)
        assert {PENDING[index].receiver for index in drawn} == {1, 2}


class TestPartition:
    def test_blocks_cross_partition_traffic(self):
        scheduler = partition_then_heal([0, 1], [2, 3], duration=100)
        drawn = [PENDING[index] for index in _drawn(scheduler, PENDING, 0)]
        assert {(m.sender, m.receiver) for m in drawn} == {(0, 1), (2, 3)}

    def test_heals_after_duration(self):
        scheduler = partition_then_heal([0, 1], [2, 3], duration=5)
        assert _drawn(scheduler, PENDING, 4) == {0, 2}
        assert _drawn(scheduler, PENDING, 5) == {0, 1, 2, 3}

    def test_cross_only_traffic_still_delivered(self):
        cross_only = [_msg(0, 2, 1), _msg(3, 1, 2)]
        scheduler = partition_then_heal([0, 1], [2, 3], duration=100)
        assert _drawn(scheduler, cross_only, 0) == {0, 1}


class TestTargeted:
    def test_priority_ordering(self):
        scheduler = TargetedScheduler(lambda m: m.receiver)
        assert PENDING[scheduler.choose(PENDING, RNG, 0)].receiver == 0

    def test_tie_break_by_seq(self):
        pending = [_msg(0, 1, 9), _msg(2, 1, 2)]
        scheduler = TargetedScheduler(lambda m: 0.0)
        assert scheduler.choose(pending, RNG, 0) == 1
