"""Message schedulers: the formal "adversary" of the asynchronous model.

In the asynchronous model the only power the environment has over message
delivery is *ordering*: every message is eventually delivered, but the
adversary decides when.  A :class:`Scheduler` captures exactly this power --
at each network step it inspects the multiset of in-flight messages and
chooses which one is delivered next.

Provided schedulers:

* :class:`FIFOScheduler` -- deliver in send order (a synchronous-looking run).
* :class:`RandomScheduler` -- deliver a uniformly random pending message.
* :class:`DelayScheduler` -- starve messages matching a predicate for as long
  as any other message is available (classic adversarial delay).
* :class:`PartitionScheduler` -- delay messages crossing a party partition for
  a configurable number of steps.
* :class:`TargetedScheduler` -- order messages by an arbitrary priority key.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Sequence, Set

from repro.errors import SchedulingError
from repro.net.message import Message
from repro.net.queues import (
    ClassRankQueue,
    DeliveryQueue,
    FifoQueue,
    KeyedQueue,
    ScanQueue,
    SendOrderRandomQueue,
)


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
    only ones left, or after ``max_delay_steps``), so the run remains a valid
    asynchronous execution.

    ``should_delay`` must be a **pure function of the message**: with the
    default random base policy the class runs on an indexed two-class queue
    (:class:`~repro.net.queues.ClassRankQueue`: one send-order block list
    for the starved traffic, one for everything else) that evaluates the
    predicate once, at submit time.  A predicate closing over mutable state
    would be consulted at different times than the legacy per-step scan and
    silently change delivery order; wrap such a scheduler in
    :func:`force_scan` (or pass a non-default ``base``) to pin the
    re-evaluating scan path instead.
    """

    def __init__(
        self,
        should_delay: Callable[[Message], bool],
        base: Scheduler | None = None,
        max_delay_steps: int | None = None,
    ) -> None:
        self.should_delay = should_delay
        self.base = base or RandomScheduler()
        self.max_delay_steps = max_delay_steps

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        expired = (
            self.max_delay_steps is not None and step >= self.max_delay_steps
        )
        if not expired:
            preferred = [
                index
                for index, message in enumerate(pending)
                if not self.should_delay(message)
            ]
            if preferred:
                sub = [pending[index] for index in preferred]
                inner = self.base.choose(sub, rng, step)
                return preferred[self.base.validate(inner, sub)]
        return self.base.validate(self.base.choose(pending, rng, step), pending)

    def make_queue(self) -> DeliveryQueue:
        if type(self) is not DelayScheduler or type(self.base) is not RandomScheduler:
            # A subclass (or a non-random base policy) may not match the
            # two-class rank semantics; keep the reference scan path.
            return ScanQueue(self)
        # ``should_delay`` is required to be a pure function of the message
        # (see class docstring); the indexed queue evaluates it at submit
        # time and reproduces the scan path's delivery order byte-identically.
        return _starving_queue(self.should_delay, self.max_delay_steps)


class PartitionScheduler(Scheduler):
    """Delays all traffic between two party groups for ``duration`` steps.

    After ``duration`` network steps the partition heals and the base
    scheduler takes over completely.

    The groups must not be mutated after construction: with the default
    random base policy the partition check runs once per message at submit
    time on the indexed two-class queue (see :class:`DelayScheduler` -- the
    same purity requirement and :func:`force_scan` escape hatch apply).
    """

    def __init__(
        self,
        group_a: Iterable[int],
        group_b: Iterable[int],
        duration: int,
        base: Scheduler | None = None,
    ) -> None:
        self.group_a: Set[int] = set(group_a)
        self.group_b: Set[int] = set(group_b)
        self.duration = duration
        self.base = base or RandomScheduler()

    def _crosses(self, message: Message) -> bool:
        a_to_b = message.sender in self.group_a and message.receiver in self.group_b
        b_to_a = message.sender in self.group_b and message.receiver in self.group_a
        return a_to_b or b_to_a

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        if step < self.duration:
            preferred = [
                index
                for index, message in enumerate(pending)
                if not self._crosses(message)
            ]
            if preferred:
                sub = [pending[index] for index in preferred]
                inner = self.base.choose(sub, rng, step)
                return preferred[self.base.validate(inner, sub)]
        return self.base.validate(self.base.choose(pending, rng, step), pending)

    def make_queue(self) -> DeliveryQueue:
        if type(self) is not PartitionScheduler or type(self.base) is not RandomScheduler:
            return ScanQueue(self)
        # ``_crosses`` is a pure function of the message's sender/receiver, so
        # the partition maps onto the indexed two-class queue (expiring at the
        # heal step) with scan-identical delivery order.
        return _starving_queue(self._crosses, self.duration)


def _starving_queue(
    starved: Callable[[Message], bool], expires_at: int | None
) -> DeliveryQueue:
    """The two-class queue of a starve-while-anything-else-is-pending policy.

    Class 1 holds the messages ``starved`` matches, so they are drawn only
    when nothing else is pending.  From step ``expires_at`` on everything is
    class 0: the lapse is one version change, after which a pop is a plain
    uniform draw over all pending messages -- as in the reference scans.
    """
    expired = False

    def classify(message: Message) -> int:
        return 1 if not expired and starved(message) else 0

    def version(step: int) -> bool:
        nonlocal expired
        expired = step >= expires_at
        return expired

    return ClassRankQueue(classify, 2, None if expires_at is None else version)


class TargetedScheduler(Scheduler):
    """Delivers the pending message minimising ``priority(message)``.

    Ties are broken by send order.  Useful for building precise adversarial
    schedules in tests (e.g. "deliver everything to party 0 before party 1
    hears anything").

    By default the policy runs on an indexed heap with the priority computed
    once per message at submit time; pass ``dynamic=True`` when the priority
    function is *not* a pure function of the message (e.g. it closes over
    mutable state) to fall back to re-evaluating it on every step.
    """

    def __init__(
        self, priority: Callable[[Message], float], dynamic: bool = False
    ) -> None:
        self.priority = priority
        self.dynamic = dynamic

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        best = 0
        best_key = (self.priority(pending[0]), pending[0].seq)
        for index, message in enumerate(pending):
            key = (self.priority(message), message.seq)
            if key < best_key:
                best, best_key = index, key
        return best

    def make_queue(self) -> DeliveryQueue:
        if self.dynamic or type(self) is not TargetedScheduler:
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


def delay_from_parties(parties: Iterable[int], **kwargs) -> DelayScheduler:
    """Convenience: a :class:`DelayScheduler` starving all messages *sent by* ``parties``."""
    blocked = set(parties)
    return DelayScheduler(lambda message: message.sender in blocked, **kwargs)


def delay_to_parties(parties: Iterable[int], **kwargs) -> DelayScheduler:
    """Convenience: a :class:`DelayScheduler` starving all messages *sent to* ``parties``."""
    blocked = set(parties)
    return DelayScheduler(lambda message: message.receiver in blocked, **kwargs)
