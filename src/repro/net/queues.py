"""Indexed delivery queues: the fast path of the network delivery loop.

Historically the network kept one flat ``pending`` list; every step called
``scheduler.choose(pending)`` (a full Python-level scan for FIFO/targeted
policies) and then ``pending.pop(choice)``.  That makes one delivery cost
O(pending) and a whole run O(messages * pending).

A :class:`DeliveryQueue` lets a scheduler expose its policy as an *indexed*
structure instead:

* :class:`FifoQueue` -- a deque; sequence numbers are assigned in send order,
  so FIFO delivery is ``popleft`` in O(1).
* :class:`KeyedQueue` -- a binary heap over ``(priority(message), seq)``; the
  targeted policy becomes an O(log m) pop (the priority function must be a
  pure function of the message -- it is evaluated once, at submit time).
* :class:`SendOrderRandomQueue` -- send order cut into blocks (plain lists of
  at most ``_BLOCK`` in-flight copies) under a Fenwick tree over the block
  lengths: "deliver the r-th oldest in-flight message" is a descend over a
  few dozen nodes plus one ``list.pop`` memmove, with the copies of a
  fan-out sharing one unmaterialised :class:`FanoutEntry`.
* :class:`ClassRankQueue` -- one :class:`SendOrderRandomQueue` per priority
  class: "deliver a uniformly random member of the best non-empty class".
  The one queue behind the delay and partition schedulers (two classes) and
  the scenario director's reactive scheduler (three).
* :class:`ScanQueue` -- the legacy full-scan path, used by any scheduler
  without an indexed strategy (custom subclasses, non-random base policies)
  and as the reference the others are tested against.

Every indexed queue reproduces the legacy delivery order *byte-identically*
for the same seed: FIFO because pending is always scanned in send order,
keyed because the old scan minimised the same ``(priority, seq)`` tuple, and
random because ``list.pop(i)`` preserves send order, so "index i into the
pending list" always meant "the i-th oldest in-flight message" (of a class)
-- exactly the rank query the block lists answer.
``tests/net/test_queues.py`` locks this in by diffing full delivery traces
against :func:`force_scan` runs.

Every queue is popped through :meth:`DeliveryQueue.pop_entry`, the network
delivery loop's one pop: ``(message, -1)`` for an individually pushed
Message, ``(entry, receiver)`` for one copy of a fan-out group (only the
random queue holds groups).  An empty queue raises :class:`IndexError`
before any state changes, which is how the loop detects quiescence.  A
policy that reads the clock (``Scheduler.choose``'s ``step``, a
:class:`ClassRankQueue` version) reads the number of messages its queue has
delivered: a network is its queue's only consumer, so that is the network's
step count before the delivery, and the loop's pop takes no clock argument.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from collections import deque
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Callable, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.net.message import Message

_EMPTY = "pop from an empty delivery queue"


class DeliveryQueue(ABC):
    """Holds the in-flight messages and yields them in scheduler order."""

    @abstractmethod
    def push(self, message: Message) -> None:
        """Add a newly submitted message."""

    def push_many(self, messages: Sequence[Message]) -> None:
        """Add a batch of messages submitted back-to-back (send order).

        Equivalent to pushing each message in sequence; queues with batched
        structures override this to amortise their per-push bookkeeping.
        """
        for message in messages:
            self.push(message)

    @abstractmethod
    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
        """Remove the next message to deliver and return it unmaterialised.

        ``(message, -1)`` for an individually pushed :class:`Message`,
        ``(entry, receiver)`` for the copy of a :class:`FanoutEntry` group
        addressed to ``receiver``.  An empty queue raises
        :class:`IndexError` before any state changes (no draw, no policy
        query).
        """

    def pop(self, rng: random.Random) -> Message:
        """:meth:`pop_entry`, the copy materialised as a Message."""
        entry, receiver = self.pop_entry(rng)
        return entry if receiver < 0 else entry.materialize(receiver)

    @abstractmethod
    def __len__(self) -> int:
        """Number of in-flight messages."""

    @abstractmethod
    def snapshot(self) -> List[Message]:
        """The in-flight messages in send order (inspection/tests only)."""


class ScanQueue(DeliveryQueue):
    """The legacy path: a flat list scanned by ``scheduler.choose`` per step.

    Kept both as the fallback for schedulers without an indexed strategy and
    as the reference implementation the equivalence tests compare against.
    """

    def __init__(self, scheduler: Any) -> None:
        self.scheduler = scheduler
        self._pending: List[Message] = []
        #: Messages delivered so far: the ``step`` handed to ``choose``.
        self._delivered = 0

    def push(self, message: Message) -> None:
        self._pending.append(message)

    def pop_entry(self, rng: random.Random) -> Tuple[Message, int]:
        pending = self._pending
        if not pending:
            # Explicit: a policy's choose() over nothing raises what it likes
            # (RandomScheduler: ValueError from randrange) after drawing.
            raise IndexError(_EMPTY)
        scheduler = self.scheduler
        choice = scheduler.validate(
            scheduler.choose(pending, rng, self._delivered), pending
        )
        self._delivered += 1
        return pending.pop(choice), -1

    def __len__(self) -> int:
        return len(self._pending)

    def snapshot(self) -> List[Message]:
        return list(self._pending)


class FifoQueue(DeliveryQueue):
    """O(1) FIFO delivery: sequence numbers are assigned in submit order."""

    def __init__(self) -> None:
        self._queue: Deque[Message] = deque()

    def push(self, message: Message) -> None:
        self._queue.append(message)

    def pop_entry(self, rng: random.Random) -> Tuple[Message, int]:
        return self._queue.popleft(), -1  # IndexError when empty

    def __len__(self) -> int:
        return len(self._queue)

    def snapshot(self) -> List[Message]:
        return list(self._queue)


class KeyedQueue(DeliveryQueue):
    """O(log m) delivery of the message minimising ``(key(message), seq)``.

    The key is evaluated once per message at submit time, so it must be a
    pure function of the message (every in-tree targeted policy is).  With a
    pure key this is byte-identical to the legacy full scan, which recomputed
    the same minimum on every step.
    """

    def __init__(self, key: Callable[[Message], Any]) -> None:
        self.key = key
        self._heap: List[Any] = []

    def push(self, message: Message) -> None:
        heapq.heappush(self._heap, (self.key(message), message.seq, message))

    def pop_entry(self, rng: random.Random) -> Tuple[Message, int]:
        return heapq.heappop(self._heap)[2], -1  # IndexError when empty

    def __len__(self) -> int:
        return len(self._heap)

    def snapshot(self) -> List[Message]:
        return [entry[2] for entry in sorted(self._heap, key=lambda e: e[1])]


class FanoutEntry:
    """One unmaterialised submit-time fan-out (broadcast or per-receiver values).

    The SVSS-heavy protocols send almost exclusively in receiver-ordered
    loops: a broadcast of one shared payload, or a fan-out of per-receiver
    values (ROW/POINT).  In group mode the network queues ONE entry for the
    whole loop; the per-receiver :class:`Message` objects -- by far the most
    allocated objects of a trial -- are only built when (and if) a copy is
    actually delivered.  Undelivered copies at the end of a run are never
    allocated at all, and the queue's working set shrinks from one object
    per in-flight message to one per fan-out.

    ``materialize(receiver)`` reproduces the exact Message the eager submit
    loop would have created: same field values and the same sequence numbers
    (receiver order, skipping ``skip``).  ``values`` must not be mutated
    after submission.
    """

    __slots__ = ("sender", "session", "kind", "payload", "values", "base_seq", "skip", "root")

    def __init__(
        self,
        sender: int,
        session: Any,
        kind: Any,
        payload: Optional[tuple],
        values: Optional[Sequence[Any]],
        base_seq: int,
        skip: Optional[int],
        root: Any,
    ) -> None:
        self.sender = sender
        self.session = session
        self.kind = kind
        self.payload = payload
        self.values = values
        self.base_seq = base_seq
        self.skip = skip
        self.root = root

    def materialize(self, receiver: int) -> Message:
        """Build the delivered copy for ``receiver`` (each copy pops at most once)."""
        message = Message.__new__(Message)
        message.sender = self.sender
        message.receiver = receiver
        message.session = self.session
        values = self.values
        skip = self.skip
        message.payload = (
            self.payload if values is None else (self.kind, values[receiver])
        )
        message.seq = self.base_seq + receiver - (
            1 if skip is not None and receiver > skip else 0
        )
        message.kind = self.kind
        message.root = self.root
        return message


#: Most in-flight copies one block of :class:`SendOrderRandomQueue` holds.
#: Measured on weak-coin trials at n=32 (~20k in flight) and n=64 (~170k):
#: 4096-8192 is the flat optimum; from 16384 up the in-block ``list.pop``
#: memmove costs more than the shorter block index saves.
_BLOCK = 8192


class SendOrderRandomQueue(DeliveryQueue):
    """Rank-indexed uniform-random delivery, byte-identical to the legacy path.

    The legacy loop drew ``r = rng.randrange(len(pending))`` and popped
    ``pending[r]``; since ``list.pop`` preserves relative order, that is "the
    r-th oldest in-flight message".  A swap-pop would be O(1) but delivers a
    *different* (if equally distributed) sequence, breaking seed-for-seed
    reproducibility of every recorded experiment.  So this queue answers the
    same rank query over send order cut into *blocks* -- plain lists of at
    most ``_BLOCK`` in-flight copies, oldest block first:

    * **open tail** -- every push lands in the newest block at C speed
      (``list.append`` / ``list.extend``); once it holds ``_BLOCK`` copies
      it is sealed and a new tail opened.  A queue that never gets that deep
      (typical n<=16 trials) is just the tail: one list, ``list.pop(rank)``.
    * **one slot per copy** -- a slot is either an individually pushed
      :class:`Message` or, for a fan-out queued in group mode, the pair
      ``(entry, receiver)`` sharing one :class:`FanoutEntry`; the pair is
      exactly what :meth:`pop_entry` hands the network's delivery loop (and
      what its trace logs), and a Message is built from it only if somebody
      needs one.
    * **Fenwick over block lengths** -- a counting tree over the sealed
      blocks only (a few dozen nodes at 100k+ in flight) finds the block in
      one find-and-decrement descend; a rank past its total is in the tail.
      The select inside the block is ``list.pop(offset)``, a C memmove of at
      most ``_BLOCK`` pointers.  The rank draw itself is the inlined
      ``Random._randbelow`` loop (identical getrandbits stream).
    * **rebuild** -- whenever a block is sealed or emptied, emptied blocks
      are dropped and neighbours that fit in one block are joined, which
      brings the block count back under ``2 * sealed / _BLOCK + 1`` however
      old blocks have decayed -- the only times it could grow or stick.

    Every representation detail is invisible in the delivery order: a pop
    consumes exactly one ``randrange``-equivalent draw and delivers the r-th
    oldest in-flight message with exactly the fields the eager submit path
    would have given it.  Memory is one list slot per in-flight copy (plus a
    2-tuple for a group copy); a popped slot is gone from its list at once,
    so the payloads of a fan-out are freed with its last live copy.
    """

    #: Network checks this before queueing FanoutEntry groups.
    supports_groups = True

    def __init__(self) -> None:
        self._count = 0
        #: The open block: the newest in-flight copies, in send order.
        self._tail: List[Any] = []
        #: Sealed blocks, oldest first; none is empty between operations.
        self._blocks: List[List[Any]] = []
        #: Fenwick tree over the sealed blocks' lengths (1-based).  Its root
        #: ``_tree[_capacity]`` is never read: the live total is ``_sealed``.
        self._tree: List[int] = [0, 0]
        self._capacity = 1
        self._sealed = 0
        # Cached rank drawer state for the (single) rng this queue is popped
        # with.  Only a plain random.Random is guaranteed to draw via
        # getrandbits (subclasses overriding random() switch CPython to the
        # getrandbits-free implementation); anything else keeps the generic
        # _randbelow path so the consumed stream never changes.
        self._getrandbits: Optional[Callable[[int], int]] = None
        self._randbelow: Optional[Callable[[int], int]] = None
        self._randbelow_rng: Optional[random.Random] = None

    def __len__(self) -> int:
        return self._count

    # -- index maintenance ----------------------------------------------
    def _seal(self) -> None:
        """Cut full blocks off the front of the tail."""
        tail = self._tail
        while len(tail) >= _BLOCK:
            self._blocks.append(tail[:_BLOCK])
            del tail[:_BLOCK]
        self._rebuild()

    def _rebuild(self) -> None:
        """Drop emptied blocks, join small neighbours, recount the tree."""
        blocks: List[List[Any]] = []
        for block in self._blocks:
            if not block:
                continue
            if blocks and len(blocks[-1]) + len(block) <= _BLOCK:
                blocks[-1].extend(block)
            else:
                blocks.append(block)
        capacity = 1
        while capacity < len(blocks):
            capacity *= 2
        tree = [0] * (capacity + 1)
        tree[1 : len(blocks) + 1] = map(len, blocks)
        # O(capacity) Fenwick construction from point values.
        for index in range(1, capacity):
            tree[index + (index & -index)] += tree[index]
        self._blocks = blocks
        self._tree = tree
        self._capacity = capacity
        self._sealed = tree[capacity]

    # -- queue protocol --------------------------------------------------
    def push(self, message: Message) -> None:
        self._count += 1
        tail = self._tail
        tail.append(message)
        if len(tail) >= _BLOCK:
            self._seal()

    def push_many(self, messages: Sequence[Message]) -> None:
        self._count += len(messages)
        tail = self._tail
        tail.extend(messages)
        if len(tail) >= _BLOCK:
            self._seal()

    def push_group(self, entry: FanoutEntry, n: int) -> None:
        """Queue a whole fan-out to parties ``0..n-1`` (group mode).

        One ``(entry, receiver)`` slot per receiver, ``entry.skip`` left
        out; rank semantics are identical to pushing the materialised copies
        in receiver order.
        """
        skip = entry.skip
        if skip is None:
            receivers: Iterable[int] = range(n)
            self._count += n
        else:
            receivers = chain(range(skip), range(skip + 1, n))
            self._count += n - 1
        tail = self._tail
        tail.extend(zip(repeat(entry), receivers))
        if len(tail) >= _BLOCK:
            self._seal()

    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
        """Remove the next message and return it unmaterialised.

        Returns the slot itself for a copy of a fan-out -- the queue's own
        ``(entry, receiver)`` pair; the caller materialises only if it needs
        a full :class:`Message` -- and ``(message, -1)`` for an individually
        pushed Message.
        """
        count = self._count
        if not count:
            # Explicit: _randbelow(0) would spin forever (getrandbits(0) is 0).
            raise IndexError(_EMPTY)
        if rng is not self._randbelow_rng:
            self._randbelow_rng = rng
            self._getrandbits = (
                rng.getrandbits if type(rng) is random.Random else None
            )
            self._randbelow = getattr(rng, "_randbelow", rng.randrange)
        getrandbits = self._getrandbits
        if getrandbits is not None:
            # Inlined ``Random._randbelow_with_getrandbits``: identical draw
            # sequence (same getrandbits calls), no wrapper frames.
            k = count.bit_length()
            rank = getrandbits(k)
            while rank >= count:
                rank = getrandbits(k)
        else:
            rank = self._randbelow(count)
        self._count = count - 1
        sealed = self._sealed
        if rank >= sealed:
            slot = self._tail.pop(rank - sealed)
        else:
            # Find-and-decrement descend: locate the block holding the
            # rank-th oldest sealed copy, decrementing every node whose range
            # contains it (the point-update path, so one walk not two).  The
            # root covers everything (its count is ``_sealed``), and every
            # later candidate satisfies position + bit <= capacity, so there
            # are no bounds checks.
            self._sealed = sealed - 1
            tree = self._tree
            position = 0
            bit = self._capacity >> 1
            while bit:
                candidate = position + bit
                value = tree[candidate]
                if value <= rank:
                    position = candidate
                    rank -= value
                else:
                    tree[candidate] = value - 1
                bit >>= 1
            block = self._blocks[position]
            slot = block.pop(rank)
            if not block:
                self._rebuild()
        # ``__class__`` is an attribute read; ``type(slot)`` would be a call.
        if slot.__class__ is tuple:
            return slot
        return slot, -1

    def snapshot(self) -> List[Message]:
        return [
            slot[0].materialize(slot[1]) if type(slot) is tuple else slot
            for block in self._blocks + [self._tail]
            for slot in block
        ]


class ClassRankQueue(DeliveryQueue):
    """Uniform-random delivery among the best-ranked class of pending messages.

    The indexed form of every "prefer some traffic over other traffic"
    policy with a random base.  ``classify(message)`` names a message's
    class (``0`` is delivered first, ``classes - 1`` last); a pop draws
    uniformly among the best non-empty class.  Delay and partition are the
    two-class case (everything else / starved), the scenario director's
    :class:`~repro.scenarios.schedulers.ReactiveScheduler` the three-class
    one (boosted / neutral / delayed).

    Each class is one :class:`SendOrderRandomQueue`: a push is ``classify``
    plus that queue's append, a pop is its one ``randrange``-equivalent draw
    and ``list.pop`` on the first non-empty class.  The ``r``-th oldest
    message of a class is the ``r``-th entry of the sub-list the reference
    ``choose`` scans build at O(m) per delivery -- hence byte-identical
    delivery per seed.  ``classify`` runs once per message, at submit time,
    so it must be a pure function of the message between version changes.

    A policy that changes over time passes ``version(step)``, asked before
    each draw with the number of messages delivered so far: when its value
    differs from the last pop's, the classes are merged back into send order
    (by ``seq``) and dealt out again before the draw -- O(m) per *change* (a
    delay budget lapsing, a partition healing, a director installing or
    clearing a rule), not per delivery.
    """

    def __init__(
        self,
        classify: Callable[[Message], int],
        classes: int,
        version: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.classify = classify
        self._version_at = version
        #: The queue is built with its network, before the first delivery.
        self._version = None if version is None else version(0)
        self._count = 0
        self._delivered = 0
        #: One send-order queue per class, best class first.
        self._queues = [SendOrderRandomQueue() for _ in range(classes)]

    def __len__(self) -> int:
        return self._count

    def _rerank(self) -> None:
        """Ask the policy again: merge the classes by ``seq``, re-partition."""
        messages = self.snapshot()
        self._queues = [SendOrderRandomQueue() for _ in self._queues]
        self._count = 0
        self.push_many(messages)

    def push(self, message: Message) -> None:
        self._count += 1
        self._queues[self.classify(message)].push(message)

    def pop_entry(self, rng: random.Random) -> Tuple[Message, int]:
        if not self._count:
            # Before the version check, so an empty pop changes nothing.
            raise IndexError(_EMPTY)
        version_at = self._version_at
        if version_at is not None:
            version = version_at(self._delivered)
            if version != self._version:
                self._version = version
                self._rerank()
        self._count -= 1
        self._delivered += 1
        for queue in self._queues:
            if queue._count:
                break
        return queue.pop_entry(rng)  # a class holds Messages: (message, -1)

    def snapshot(self) -> List[Message]:
        # Each class is already in send order, so the sort is a k-way merge.
        pending = chain.from_iterable(queue.snapshot() for queue in self._queues)
        return sorted(pending, key=attrgetter("seq"))
