"""Message schedulers: the formal "adversary" of the asynchronous model.

In the asynchronous model the only power the environment has over message
delivery is *ordering*: every message is eventually delivered, but the
adversary decides when.  A :class:`Scheduler` captures exactly this power --
at each network step it inspects the multiset of in-flight messages and
chooses which one is delivered next.

Provided schedulers:

* :class:`FIFOScheduler` -- deliver in send order (a synchronous-looking run).
* :class:`RandomScheduler` -- deliver a uniformly random pending message.
* :class:`DelayScheduler` -- starve messages matching a filter for as long
  as any other message is available, optionally for a bounded number of
  steps (classic adversarial delay; a partition that heals is the crossing
  filter, :func:`partition_then_heal`).
* :class:`TargetedScheduler` -- order messages by an arbitrary priority key.
* :class:`ForceScanScheduler` -- pin any of them to the reference scan.

The director-driven :class:`~repro.scenarios.schedulers.ReactiveScheduler`
is the one scheduler defined elsewhere.

A policy that tells messages apart is written once, in *fan-out form*
(:class:`~repro.net.queues.FanoutForm`): over the fields every copy of a
fan-out shares, naming the receivers it matches.  A :class:`Filter` is the
yes/no case.  The indexed queues ask the form once per fan-out; the
per-message predicate the reference ``choose`` scans read is derived from
it.  The primitives the named attacks are built from
(:func:`partition_then_heal`, :func:`targeting`, :func:`coalition_first`)
live here too, below the campaign registry that names them.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from repro.errors import ExperimentError, SchedulingError
from repro.net.message import Message
from repro.net.queues import (
    ClassRankQueue,
    Dealt,
    DeliveryQueue,
    FanoutEntry,
    FanoutForm,
    FifoQueue,
    KeyedQueue,
    ScanQueue,
    PerCopy,
    SendOrderRandomQueue,
    everyone,
)

#: The receivers a filter matching no copy of a fan-out names.
NOBODY: frozenset = frozenset()


class Filter(FanoutForm):
    """A yes/no message filter in fan-out form.

    ``receivers(fanout, n)`` names the receivers whose copy of ``fanout``
    the filter matches, reading only the fields the copies share
    (``sender``, ``session``, ``kind``, ``root``); it should return
    precomputed frozensets, so a queue's split of the fan-out is one cached
    lookup.  Calling the filter on a Message is the per-message predicate,
    derived from the same definition.
    """

    __slots__ = ("receivers",)

    def __init__(self, receivers: Callable[[Any, int], frozenset]) -> None:
        super().__init__()
        self.receivers = receivers

    def groups(self, fanout: Any, n: int) -> Tuple[Tuple[Any, frozenset], ...]:
        return ((True, self.receivers(fanout, n)), (False, everyone(n)))

    def __call__(self, message: Message) -> bool:
        receiver = message.receiver
        return receiver in self.receivers(message, receiver + 1)


def as_filter(predicate: Callable[[Message], Any]) -> FanoutForm:
    """``predicate`` in fan-out form: a :class:`Filter` as is, a plain
    callable evaluated per copy (its truth value is the label)."""
    if isinstance(predicate, FanoutForm):
        return predicate
    return PerCopy(lambda message: bool(predicate(message)))


class Scheduler(ABC):
    """Chooses which pending message the network delivers next."""

    @abstractmethod
    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        """Return the index (into ``pending``) of the message to deliver.

        Args:
            pending: the non-empty sequence of in-flight messages.
            rng: the network's random source (use this, never ``random``).
            step: the network's step counter, for time-dependent strategies.
        """

    def make_queue(self) -> DeliveryQueue:
        """The delivery-queue strategy backing this scheduler.

        The default is the legacy full scan (:class:`~repro.net.queues.ScanQueue`
        driving :meth:`choose` once per step), which is correct for any
        scheduler.  Schedulers whose policy maps onto an indexed structure
        override this to get O(1)/O(log m) deliveries; every override must
        reproduce the scan path's delivery order byte-identically
        (``tests/net/test_queues.py``).
        """
        return ScanQueue(self)

    def validate(self, choice: int, pending: Sequence[Message]) -> int:
        """Check a choice is in range; raise :class:`SchedulingError` otherwise."""
        if not 0 <= choice < len(pending):
            raise SchedulingError(
                f"scheduler chose index {choice} out of {len(pending)} pending messages"
            )
        return choice


class FIFOScheduler(Scheduler):
    """Delivers messages in the order they were sent."""

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        best = 0
        best_seq = pending[0].seq
        for index, message in enumerate(pending):
            if message.seq < best_seq:
                best, best_seq = index, message.seq
        return best

    def make_queue(self) -> DeliveryQueue:
        if type(self) is not FIFOScheduler:
            # A subclass may have overridden choose(); only the exact built-in
            # policy is safe to map onto the indexed queue.
            return ScanQueue(self)
        # Sequence numbers are assigned in submit order, so min-seq == oldest.
        return FifoQueue()


class RandomScheduler(Scheduler):
    """Delivers a uniformly random pending message.

    This is the default scheduler: it exercises genuinely asynchronous
    interleavings while remaining fair (every message is delivered with
    probability 1).
    """

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        return rng.randrange(len(pending))

    def make_queue(self) -> DeliveryQueue:
        if type(self) is not RandomScheduler:
            return ScanQueue(self)
        # Rank-indexed: consumes the same single randrange per step as the
        # scan path and delivers the same message (see queues module docs).
        return SendOrderRandomQueue()


class DelayScheduler(Scheduler):
    """Starves messages matching ``should_delay`` while anything else is pending.

    The matched messages are still delivered eventually (when they are the
    only ones left, or from step ``max_delay_steps`` on), so the run remains
    a valid asynchronous execution.  Among the messages it may deliver it
    draws uniformly at random, as :class:`RandomScheduler` does.

    ``should_delay`` is a :class:`Filter` or a plain ``Message -> bool``
    callable, and must be a **pure function of the message**: the class runs
    on an indexed two-class queue (:class:`~repro.net.queues.ClassRankQueue`:
    one send-order block list for the starved traffic, one for everything
    else) that evaluates it once, at submit time -- a filter once per
    fan-out, a plain callable on each materialised copy
    (:class:`~repro.net.queues.PerCopy`), which may therefore read
    ``payload`` and ``seq`` too.  A predicate closing over mutable state
    would be consulted at different times than the reference per-step scan
    and silently change delivery order; wrap such a scheduler in
    :func:`force_scan` to pin the re-evaluating scan path instead.
    """

    def __init__(
        self, should_delay: Callable[[Message], Any], max_delay_steps: int | None = None
    ) -> None:
        self.should_delay = should_delay
        self.max_delay_steps = max_delay_steps

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        if self.max_delay_steps is None or step < self.max_delay_steps:
            preferred = [
                index
                for index, message in enumerate(pending)
                if not self.should_delay(message)
            ]
            if preferred:
                return preferred[rng.randrange(len(preferred))]
        return rng.randrange(len(pending))

    def make_queue(self) -> DeliveryQueue:
        if type(self) is not DelayScheduler:
            # A subclass may not match the two-class rank semantics; keep the
            # reference scan path.
            return ScanQueue(self)
        # ``should_delay`` is required to be a pure function of the message
        # (see class docstring); the indexed queue evaluates it at submit
        # time and reproduces the scan path's delivery order byte-identically.
        return _starving_queue(as_filter(self.should_delay), self.max_delay_steps)


def crossing(group_a: Iterable[int], group_b: Iterable[int]) -> Filter:
    """The copies crossing between ``group_a`` and ``group_b`` (either way)."""
    a, b = frozenset(group_a), frozenset(group_b)
    both = a | b

    def receivers(fanout: Any, n: int) -> frozenset:
        sender = fanout.sender
        if sender in a:
            return both if sender in b else b
        return a if sender in b else NOBODY

    return Filter(receivers)


class _Starving(FanoutForm):
    """Class 1 (``True``) for the copies ``starved`` matches, until it lapses."""

    __slots__ = ("starved", "lapsed")

    def __init__(self, starved: FanoutForm) -> None:
        super().__init__()
        self.starved = starved
        self.lapsed = False

    def groups(self, fanout: Any, n: int) -> Tuple[Tuple[Any, frozenset], ...]:
        return ((False, everyone(n)),) if self.lapsed else self.starved.groups(fanout, n)

    def __call__(self, message: Message) -> bool:
        return False if self.lapsed else self.starved(message)

    def deal(self, entry: FanoutEntry, n: int) -> Dealt:
        return super().deal(entry, n) if self.lapsed else self.starved.deal(entry, n)


def _starving_queue(starved: FanoutForm, expires_at: int | None) -> DeliveryQueue:
    """The two-class queue of a starve-while-anything-else-is-pending policy.

    Class 1 holds the copies ``starved`` (bool-labelled) matches, so they
    are drawn only when nothing else is pending.  From step ``expires_at``
    on everything is class 0: the lapse is one version change, after which
    a pop is a plain uniform draw over all pending messages -- as in the
    reference scans.
    """
    form = _Starving(starved)

    def version(step: int) -> bool:
        form.lapsed = step >= expires_at
        return form.lapsed

    return ClassRankQueue(form, 2, None if expires_at is None else version)


class TargetedScheduler(Scheduler):
    """Delivers the pending message minimising ``priority(message)``.

    Ties are broken by send order.  Useful for building precise adversarial
    schedules in tests (e.g. "deliver everything to party 0 before party 1
    hears anything").

    ``priority`` is a :class:`~repro.net.queues.FanoutForm` (see
    :func:`coalition_first`) or a plain ``Message -> key`` callable; keys
    must be hashable.  The policy runs on an indexed keyed queue with the
    priority computed once per message at submit time -- a form once per
    fan-out, a plain callable on each materialised copy, which may therefore
    read ``payload`` and ``seq`` too.  When the priority function is *not* a
    pure function of the message (e.g. it closes over mutable state), wrap
    the scheduler in :func:`force_scan` to re-evaluate it on every step.
    """

    def __init__(self, priority: Callable[[Message], Any]) -> None:
        self.priority = priority

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        best = 0
        best_key = (self.priority(pending[0]), pending[0].seq)
        for index, message in enumerate(pending):
            key = (self.priority(message), message.seq)
            if key < best_key:
                best, best_key = index, key
        return best

    def make_queue(self) -> DeliveryQueue:
        if type(self) is not TargetedScheduler:
            return ScanQueue(self)
        return KeyedQueue(self.priority)


class ForceScanScheduler(Scheduler):
    """Wrapper pinning ``inner`` to the legacy full-scan delivery path.

    The equivalence tests use this to run the exact pre-indexed-queue
    delivery loop (``inner.choose`` scan + ``list.pop``) regardless of the
    queue strategy ``inner`` advertises.
    """

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        return self.inner.choose(pending, rng, step)

    def make_queue(self) -> DeliveryQueue:
        return ScanQueue(self.inner)


def force_scan(scheduler: Scheduler) -> Scheduler:
    """Pin ``scheduler`` to the legacy O(pending) scan-and-pop delivery loop."""
    return ForceScanScheduler(scheduler)


def delay_from_parties(
    parties: Iterable[int], max_delay_steps: Optional[int] = None
) -> DelayScheduler:
    """Starve all messages *sent by* ``parties`` (see :class:`DelayScheduler`)."""
    blocked = frozenset(parties)
    return DelayScheduler(
        Filter(lambda fanout, n: everyone(n) if fanout.sender in blocked else NOBODY),
        max_delay_steps,
    )


def delay_to_parties(
    parties: Iterable[int], max_delay_steps: Optional[int] = None
) -> DelayScheduler:
    """Starve all messages *sent to* ``parties`` (see :class:`DelayScheduler`)."""
    blocked = frozenset(parties)
    return DelayScheduler(Filter(lambda fanout, n: blocked), max_delay_steps)


# ----------------------------------------------------------------------
# Primitives of the named attacks (``repro.scenarios.schedulers``).  Their
# params are checked, one by one, against their registry rows' fields; the
# rule that spans two params raises :class:`ExperimentError`, which
# ``repro.experiments.registry.build_scheduler`` prefixes with the name the
# spec used.
def check_disjoint(group_a: Iterable[int], group_b: Iterable[int]) -> None:
    """Reject two party groups that share a party."""
    overlap = set(group_a) & set(group_b)
    if overlap:
        raise ExperimentError(f"group_a and group_b share parties {sorted(overlap)}")


def partition_then_heal(
    group_a: Iterable[int], group_b: Iterable[int], duration: int
) -> DelayScheduler:
    """Partition two disjoint party groups for ``duration`` deliveries, then heal.

    The crossing traffic is starved while anything else is pending until
    step ``duration``; from then on every pending message is drawn alike.
    """
    group_a, group_b = list(group_a), list(group_b)
    check_disjoint(group_a, group_b)
    return DelayScheduler(crossing(group_a, group_b), max_delay_steps=duration)


def targeting(
    victims: Iterable[int] = (), roots: Iterable[Any] = (), kinds: Iterable[Any] = ()
) -> Filter:
    """Copies sent by or to a victim, or of a listed root protocol or payload kind."""
    victim_set, root_set, kind_set = frozenset(victims), frozenset(roots), frozenset(kinds)

    def receivers(fanout: Any, n: int) -> frozenset:
        if fanout.sender in victim_set or fanout.root in root_set or fanout.kind in kind_set:
            return everyone(n)
        return victim_set

    return Filter(receivers)


def coalition_first(coalition: Iterable[int]) -> FanoutForm:
    """Priority ``0.0`` for copies inside ``coalition``, ``1.0`` for the rest."""
    inside = frozenset(coalition)

    def groups(fanout: Any, n: int) -> Tuple[Tuple[Any, frozenset], ...]:
        if fanout.sender in inside:
            return ((0.0, inside), (1.0, everyone(n)))
        return ((1.0, everyone(n)),)

    return FanoutForm(groups)
