"""Tests for the legacy named scheduling strategies.

Each is an alias row of the scheduler registry over its target
(``targeted_delay``, ``rushing``, ``partition_heal``), built here by name as
a campaign cell builds it.
"""

from __future__ import annotations

import random

from repro.core import api
from repro.experiments.registry import build_scheduler
from repro.experiments.spec import SchedulerSpec
from repro.net.message import Message

RNG = random.Random(0)


def _named(name, **params):
    return build_scheduler(SchedulerSpec(name, params))


def _msg(sender, receiver, seq, root="p"):
    return Message(sender, receiver, (root,), ("X",), seq=seq)


class TestStrategies:
    def test_isolate_party_starves_victim(self):
        pending = [_msg(0, 1, 0), _msg(2, 3, 1), _msg(1, 2, 2)]
        scheduler = _named("isolate_party", victim=1)
        for _ in range(20):
            chosen = pending[scheduler.choose(pending, RNG, 0)]
            assert 1 not in (chosen.sender, chosen.receiver)

    def test_isolate_party_releases_when_only_victim_traffic(self):
        pending = [_msg(0, 1, 0), _msg(1, 2, 1)]
        scheduler = _named("isolate_party", victim=1)
        assert scheduler.choose(pending, RNG, 0) in (0, 1)

    def test_favour_parties_prefers_coalition(self):
        pending = [_msg(0, 3, 0), _msg(2, 3, 1), _msg(3, 2, 2)]
        scheduler = _named("favour_parties", favoured=[2, 3])
        chosen = pending[scheduler.choose(pending, RNG, 0)]
        assert chosen.sender in (2, 3) and chosen.receiver in (2, 3)

    def test_split_brain_prefers_intra_group(self):
        pending = [_msg(0, 2, 0), _msg(0, 1, 1), _msg(2, 3, 2)]
        scheduler = _named("split_brain", group_a=[0, 1], group_b=[2, 3], duration=50)
        chosen = pending[scheduler.choose(pending, RNG, 5)]
        assert {chosen.sender, chosen.receiver} in ({0, 1}, {2, 3})

    def test_delay_protocol_prefers_other_roots(self):
        pending = [_msg(0, 1, 0, root="aba"), _msg(0, 1, 1, root="svss")]
        scheduler = _named("delay_protocol", root="aba")
        assert pending[scheduler.choose(pending, RNG, 0)].root == "svss"


class TestStrategiesEndToEnd:
    def test_protocols_survive_every_named_strategy(self):
        """Every strategy is a valid asynchronous schedule: protocols terminate."""
        strategies = {
            "isolate": _named("isolate_party", victim=2),
            "favour": _named("favour_parties", favoured=[0, 1]),
            "split": _named("split_brain", group_a=[0, 1], group_b=[2, 3], duration=150),
            "delay-root": _named("delay_protocol", root="missing-root"),
        }
        for name, scheduler in strategies.items():
            result = api.run_svss(4, 77, dealer=0, seed=1, scheduler=scheduler)
            assert result.agreed_value == 77, name

    def test_aba_under_every_named_strategy(self):
        strategies = [
            _named("isolate_party", victim=0),
            _named("favour_parties", favoured=[2, 3]),
            _named("split_brain", group_a=[0, 2], group_b=[1, 3], duration=100),
        ]
        for scheduler in strategies:
            result = api.run_aba(4, {0: 1, 1: 0, 2: 1, 3: 0}, seed=2, scheduler=scheduler)
            assert not result.disagreement
