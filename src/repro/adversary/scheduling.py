"""Adversarial scheduling strategies used by the experiments.

The scheduler *is* the asynchronous adversary's second lever (besides
corrupting parties): it decides delivery order.  The strategies here compose
the primitives from :mod:`repro.net.scheduler` into the named attacks the
benchmarks use.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.net.scheduler import (
    RandomScheduler,
    Scheduler,
    TargetedScheduler,
    coalition_first,
    partition_then_heal,
    starve_matching,
    targeting,
)


def isolate_party(victim: int, max_delay_steps: Optional[int] = None) -> Scheduler:
    """Starve all traffic to and from ``victim`` for as long as possible.

    The classic "slow party" adversary: the victim is effectively partitioned
    until every other message has been delivered.  Protocols with optimal
    resilience must terminate without the victim (it is indistinguishable from
    a crashed party), then let it catch up.  ``targeted_delay(victims=[victim])``
    under another name.
    """
    return starve_matching("isolate_party", targeting(victims=[victim]), max_delay_steps)


def favour_parties(favoured: Iterable[int]) -> Scheduler:
    """Deliver traffic among ``favoured`` parties first (rushing adversary).

    This gives the favoured coalition a head start in every protocol phase,
    which is how an adversary maximises its information advantage before the
    slow honest parties contribute.  ``rushing(favoured)`` under another name.
    """
    return TargetedScheduler(coalition_first(favoured))


def split_brain(
    group_a: Iterable[int], group_b: Iterable[int], duration: int
) -> Scheduler:
    """Partition the two (disjoint) groups for ``duration`` deliveries, then heal."""
    return partition_then_heal("split_brain", group_a, group_b, duration)


def delay_protocol(root: str, max_delay_steps: Optional[int] = None) -> Scheduler:
    """Starve all messages belonging to one top-level protocol session.

    Used to check that protocols are robust to arbitrary interleaving between
    concurrent protocol instances (e.g. delaying every CommonSubset message
    until the SVSS layer has gone quiet).  ``targeted_delay(roots=[root])``
    under another name.
    """
    return starve_matching("delay_protocol", targeting(roots=[root]), max_delay_steps)


def random_scheduler() -> Scheduler:
    """The default fair-but-unpredictable scheduler."""
    return RandomScheduler()
