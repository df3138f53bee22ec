"""Indexed delivery queues: the fast path of the network delivery loop.

Historically the network kept one flat ``pending`` list; every step called
``scheduler.choose(pending)`` (a full Python-level scan for FIFO/targeted
policies) and then ``pending.pop(choice)``.  That makes one delivery cost
O(pending) and a whole run O(messages * pending).

A :class:`DeliveryQueue` lets a scheduler expose its policy as an *indexed*
structure instead:

* :class:`FifoQueue` -- a deque; sequence numbers are assigned in send order,
  so FIFO delivery is ``popleft`` in O(1).
* :class:`KeyedQueue` -- one FIFO per distinct priority key under a heap of
  the keys: "deliver the message minimising ``(key, seq)``" is the oldest
  copy of the smallest key, an O(1) ``popleft`` plus an O(log k) heap
  update when a key's FIFO empties.
* :class:`SendOrderRandomQueue` -- send order cut into blocks (plain lists of
  at most ``_BLOCK`` in-flight copies) under a Fenwick tree over the block
  lengths: "deliver the r-th oldest in-flight message" is a descend over a
  few dozen nodes plus one ``list.pop`` memmove.
* :class:`ClassRankQueue` -- one :class:`SendOrderRandomQueue` per priority
  class: "deliver a uniformly random member of the best non-empty class".
  The one queue behind the delay and partition schedulers (two classes) and
  the scenario director's reactive scheduler (three).
* :class:`ScanQueue` -- the legacy full-scan path, used by any scheduler
  without an indexed strategy (custom subclasses, non-random base policies)
  and as the reference the others are tested against.

Every queue takes a whole fan-out (a broadcast or a ROW/POINT loop) as one
unmaterialised :class:`FanoutEntry` through ``push_group``, and holds it as
``(entry, receiver)`` slots -- one per copy, added by a C-level ``extend`` --
except the reference :class:`ScanQueue`, which builds the Messages its
``choose`` scans read.  A corrupted sender's fan-out is one entry too, a
:class:`SurvivorsEntry` holding the copies its outgoing mutator let through,
and a lone :class:`Message` is pushed the same way, as the one-copy fan-out
of itself (``message.copies(n)`` is its receiver), so a slot has one shape.
A queue whose policy tells copies apart (a class, a key) asks a
:class:`FanoutForm` once per fan-out which receivers fall in which class: a
policy is defined once, over the fields every copy of a fan-out shares
(``sender``, ``session``, ``kind``, ``root``), and its per-message answer is
derived from that definition.  A plain ``Message -> label`` callable is
adapted by :class:`PerCopy`, which evaluates it on each materialised copy.

Every indexed queue reproduces the legacy delivery order *byte-identically*
for the same seed: FIFO because pending is always scanned in send order,
keyed because the old scan minimised the same ``(priority, seq)`` tuple, and
random because ``list.pop(i)`` preserves send order, so "index i into the
pending list" always meant "the i-th oldest in-flight message" (of a class)
-- exactly the rank query the block lists answer.
``tests/net/test_queues.py`` locks this in by diffing full delivery traces
against :func:`force_scan` runs.

Every queue is popped through :meth:`DeliveryQueue.pop_entry`, the network
delivery loop's one pop: ``(entry, receiver)``, ``receiver >= 0``, for the
copy of ``entry`` addressed to ``receiver``.  An empty
queue raises :class:`IndexError` before any state changes, which is how the
loop detects quiescence.  A policy that reads the clock
(``Scheduler.choose``'s ``step``, a :class:`ClassRankQueue` version) reads
the number of messages its queue has delivered: a network is its queue's
only consumer, so that is the network's step count before the delivery, and
the loop's pop takes no clock argument.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from collections import deque
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.net.message import Message

_EMPTY = "pop from an empty delivery queue"


class DeliveryQueue(ABC):
    """Holds the in-flight messages and yields them in scheduler order."""

    @abstractmethod
    def push_group(self, entry: Any, n: int) -> None:
        """Add the copies of ``entry`` to the receivers ``entry.copies(n)``.

        ``entry`` is a :class:`FanoutEntry` (parties ``0..n-1``, ``skip``
        left out), a :class:`SurvivorsEntry` (its surviving receivers) or a
        lone :class:`Message` (its one receiver).  Equivalent to pushing its
        materialised copies in receiver order.
        """

    @abstractmethod
    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
        """Remove the next message to deliver and return it unmaterialised.

        ``(entry, receiver)``, ``receiver >= 0``: the copy of ``entry`` (a
        :class:`FanoutEntry` or a lone :class:`Message`) addressed to
        ``receiver``.  An empty queue raises :class:`IndexError` before any
        state changes (no draw, no policy query).
        """

    def pop(self, rng: random.Random) -> Message:
        """:meth:`pop_entry`, the copy materialised as a Message."""
        entry, receiver = self.pop_entry(rng)
        return entry.materialize(receiver)

    @abstractmethod
    def __len__(self) -> int:
        """Number of in-flight messages."""

    @abstractmethod
    def snapshot(self) -> List[Message]:
        """The in-flight messages in send order (inspection/tests only)."""


class ScanQueue(DeliveryQueue):
    """The legacy path: a flat list scanned by ``scheduler.choose`` per step.

    Kept both as the fallback for schedulers without an indexed strategy and
    as the reference implementation the equivalence tests compare against;
    it holds Messages (a fan-out is materialised when pushed), since that
    is what ``choose`` reads.
    """

    def __init__(self, scheduler: Any) -> None:
        self.scheduler = scheduler
        self._pending: List[Message] = []
        #: Messages delivered so far: the ``step`` handed to ``choose``.
        self._delivered = 0

    def push_group(self, entry: Any, n: int) -> None:
        self._pending.extend(map(entry.materialize, entry.copies(n)))

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
        message = pending.pop(choice)
        return message, message.receiver

    def __len__(self) -> int:
        return len(self._pending)

    def snapshot(self) -> List[Message]:
        return list(self._pending)


class FifoQueue(DeliveryQueue):
    """O(1) FIFO delivery: sequence numbers are assigned in submit order."""

    def __init__(self) -> None:
        self._queue: Deque[Any] = deque()

    def push_group(self, entry: Any, n: int) -> None:
        self._queue.extend(_slots(entry, entry.copies(n)))

    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
        return self._queue.popleft()  # IndexError when empty

    def __len__(self) -> int:
        return len(self._queue)

    def snapshot(self) -> List[Message]:
        return _materialized(self._queue)


class KeyedQueue(DeliveryQueue):
    """Delivery of the message minimising ``(key(message), seq)``.

    One FIFO of slots per distinct key, under a heap of the keys that have
    one: pushes arrive in ``seq`` order, so each FIFO is in ``(key, seq)``
    order and the next delivery is the head of the smallest key's FIFO --
    an O(1) pop, plus an O(log k) heap update when that FIFO empties.  Keys
    that compare and hash equal (``0``, ``0.0``, ``False``) share a FIFO,
    exactly as the ``(key, seq)`` order ranks them together.

    ``key`` is a :class:`FanoutForm` (asked once per fan-out) or a plain
    ``Message -> key`` callable (evaluated on each copy, see
    :class:`PerCopy`); either way it is evaluated once per message at submit
    time, so it must be a pure function of the message.  With a pure key
    this is byte-identical to the legacy full scan, which recomputed the
    same minimum on every step.
    """

    def __init__(self, key: Any) -> None:
        self.key = fanout_form(key)
        #: key -> its in-flight slots, oldest first; never empty.
        self._fifos: Dict[Any, Deque[Any]] = {}
        #: Heap of the keys in ``_fifos``.
        self._keys: List[Any] = []
        self._count = 0

    def _fifo(self, key: Any) -> Deque[Any]:
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = self._fifos[key] = deque()
            heapq.heappush(self._keys, key)
        return fifo

    def push_group(self, entry: Any, n: int) -> None:
        fifo = self._fifo
        for key, receivers in self.key.deal(entry, n):
            fifo(key).extend(_slots(entry, receivers))
            self._count += len(receivers)

    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
        keys = self._keys
        key = keys[0]  # IndexError when empty
        fifo = self._fifos[key]
        slot = fifo.popleft()
        if not fifo:
            heapq.heappop(keys)
            del self._fifos[key]
        self._count -= 1
        return slot

    def __len__(self) -> int:
        return self._count

    def snapshot(self) -> List[Message]:
        slots = chain.from_iterable(self._fifos.values())
        return _materialized(sorted(slots, key=_slot_seq))


class FanoutEntry:
    """One unmaterialised submit-time fan-out (broadcast or per-receiver values).

    The SVSS-heavy protocols send almost exclusively in receiver-ordered
    loops: a broadcast of one shared payload, or a fan-out of per-receiver
    values (ROW/POINT).  The network queues ONE entry for the whole loop;
    the per-receiver :class:`Message` objects -- by far the most allocated
    objects of a trial -- are only built when (and if) a copy is actually
    delivered.  Undelivered copies at the end of a run are never allocated
    at all, and the queue's working set shrinks from one object per
    in-flight message to one per fan-out.

    ``materialize(receiver)`` reproduces the exact Message a per-receiver
    :meth:`~repro.net.network.Network.submit` loop would have created: same
    field values and the same sequence numbers (receiver order, skipping
    ``skip``).  ``values`` must not be mutated after submission.  The
    fan-out of a sender with an outgoing mutator is a
    :class:`SurvivorsEntry`: the same contract over the copies it kept.
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
        # ``seq_of(receiver)``, inlined: this builds every delivered copy a
        # consumer reads.
        message.seq = self.base_seq + receiver - (
            1 if skip is not None and receiver > skip else 0
        )
        message.kind = self.kind
        message.root = self.root
        return message

    def seq_of(self, receiver: int) -> int:
        """The sequence number of the copy addressed to ``receiver``."""
        skip = self.skip
        return self.base_seq + receiver - (1 if skip is not None and receiver > skip else 0)

    def copies(self, n: int) -> Sequence[int]:
        """The receivers of this fan-out's copies: ``0..n-1``, ``skip`` left out."""
        skip = self.skip
        return range(n) if skip is None else _skipping(n, skip)


class SurvivorsEntry(FanoutEntry):
    """The copies of one fan-out that its sender's outgoing mutator let through.

    A corrupted sender's mutator sees every copy of a fan-out and may drop
    it or rewrite its payload.  The copies left standing are one entry:
    ``copies(n)`` is the surviving receivers, ascending, whatever ``n``, and
    their sequence numbers run consecutively from ``base_seq`` -- the
    Messages a per-copy submit loop over the survivors would have built.
    A copy's payload is ``payload`` when the mutator handed every survivor
    that same object, else ``(kind, values[receiver])``.

    The receivers are held in ``skip``: it is the copy set a
    :class:`FanoutForm` keys its cached deal on, so two fan-outs with the
    same groups but different drops never share a deal.
    """

    __slots__ = ()

    def materialize(self, receiver: int) -> Message:
        """Build the delivered copy for ``receiver`` (each copy pops at most once)."""
        message = Message.__new__(Message)
        message.sender = self.sender
        message.receiver = receiver
        message.session = self.session
        values = self.values
        message.payload = (
            self.payload if values is None else (self.kind, values[receiver])
        )
        message.seq = self.base_seq + self.skip.index(receiver)
        message.kind = self.kind
        message.root = self.root
        return message

    def seq_of(self, receiver: int) -> int:
        """The sequence number of the copy addressed to ``receiver``."""
        return self.base_seq + self.skip.index(receiver)

    def copies(self, n: int) -> Tuple[int, ...]:
        """The surviving receivers, ascending (``n`` is not read)."""
        return self.skip


@lru_cache(maxsize=1024)
def _skipping(n: int, skip: int) -> Tuple[int, ...]:
    """Receivers ``0..n-1`` in order, ``skip`` left out (one tuple per pair)."""
    return (*range(skip), *range(skip + 1, n))


@lru_cache(maxsize=256)
def everyone(n: int) -> frozenset:
    """Every receiver of an ``n``-party fan-out (one shared frozenset per ``n``)."""
    return frozenset(range(n))


def _slots(entry: Any, receivers: Sequence[int]) -> Iterable[Tuple[Any, int]]:
    """The ``(entry, receiver)`` slots of the copies to ``receivers``, in order.

    A single copy -- a lone send, or the one receiver of a fan-out in its
    class -- is built directly: ``zip`` and ``repeat`` cost several times
    what one slot does.
    """
    if len(receivers) == 1:
        return ((entry, receivers[0]),)
    return zip(repeat(entry), receivers)


def _slot_seq(slot: Tuple[Any, int]) -> int:
    """Sequence number of the ``(entry, receiver)`` copy in a queue slot."""
    return slot[0].seq_of(slot[1])


def _materialized(slots: Iterable[Tuple[Any, int]]) -> List[Message]:
    """The Messages of ``(entry, receiver)`` slots, in their order."""
    return [entry.materialize(receiver) for entry, receiver in slots]


#: ``((label, receivers), ...)``: a fan-out's copies grouped by label, each
#: group's receivers ascending.
Dealt = Tuple[Tuple[Any, Tuple[int, ...]], ...]


class FanoutForm:
    """A delivery policy's label (class, key) for every copy of a fan-out at once.

    The copies of a fan-out share every field but the receiver, so a policy
    that reads ``sender`` / ``session`` / ``kind`` / ``root`` is asked once
    per fan-out: ``groups(fanout, n)`` returns ``((label, receivers), ...)``,
    frozensets of receivers, and a copy's label is that of the first group
    naming its receiver (forms end with ``everyone(n)``, so every receiver is
    named).  ``fanout`` is a :class:`FanoutEntry` or a :class:`Message`:
    both carry those four fields, which is how the per-message label --
    ``form(message)``, what the reference ``choose`` scans and a lone
    send's ``deal`` read -- is derived from the same definition.  A membership
    only has to hold for receivers below ``n``, so the per-message form asks
    with ``n = receiver + 1``.

    ``deal(entry, n)`` is what a queue pushes: the copies grouped by label,
    each group's receivers ascending and ``entry.skip`` left out -- for a
    lone Message, its label and its one receiver.  A fan-out's deal is
    cached per ``(groups, n, skip)`` -- ``skip`` names the copy set, the
    receivers themselves for a :class:`SurvivorsEntry` -- so a form that
    returns the same frozensets for most fan-outs pays one dict lookup per
    fan-out.  Labels must be hashable.
    """

    __slots__ = ("_groups", "_deals")

    #: Most ``(groups, n, skip)`` keys one form caches before starting over.
    DEALS_BOUND = 4096

    def __init__(
        self, groups: Optional[Callable[[Any, int], Tuple[Tuple[Any, frozenset], ...]]] = None
    ) -> None:
        self._groups = groups
        self._deals: Dict[Any, Dealt] = {}

    def groups(self, fanout: Any, n: int) -> Tuple[Tuple[Any, frozenset], ...]:
        """``((label, receivers), ...)`` for ``fanout``'s copies (first match wins)."""
        return self._groups(fanout, n)  # type: ignore[misc]

    def __call__(self, message: Message) -> Any:
        receiver = message.receiver
        for label, receivers in self.groups(message, receiver + 1):
            if receiver in receivers:
                return label
        raise ValueError(f"fan-out form names no group for receiver {receiver}")

    def deal(self, entry: Any, n: int) -> Dealt:
        if entry.__class__ is Message:
            return ((self(entry), (entry.receiver,)),)
        groups = self.groups(entry, n)
        key = (groups, n, entry.skip)
        dealt = self._deals.get(key)
        if dealt is None:
            by_label: Dict[Any, List[int]] = {}
            for receiver in entry.copies(n):
                for label, receivers in groups:
                    if receiver in receivers:
                        by_label.setdefault(label, []).append(receiver)
                        break
                else:
                    raise ValueError(
                        f"fan-out form names no group for receiver {receiver}"
                    )
            if len(self._deals) >= self.DEALS_BOUND:
                self._deals.clear()
            dealt = self._deals[key] = tuple(
                (label, tuple(receivers)) for label, receivers in by_label.items()
            )
        return dealt


class PerCopy(FanoutForm):
    """A plain ``Message -> label`` callable as a :class:`FanoutForm`.

    The callable may read anything a Message holds (``payload``, ``seq``),
    so it is evaluated on each materialised copy -- exactly the Message the
    reference scan would hand it -- and must be a pure function of it.
    """

    __slots__ = ("label_of",)

    def __init__(self, label_of: Callable[[Message], Any]) -> None:
        super().__init__()
        self.label_of = label_of

    def groups(self, fanout: Any, n: int) -> Tuple[Tuple[Any, frozenset], ...]:
        return tuple(
            (label, frozenset(receivers)) for label, receivers in self.deal(fanout, n)
        )

    def __call__(self, message: Message) -> Any:
        return self.label_of(message)

    def deal(self, entry: Any, n: int) -> Dealt:
        # Labels read per-copy fields, so nothing is reused across fan-outs.
        by_label: Dict[Any, List[int]] = {}
        label_of, materialize = self.label_of, entry.materialize
        for receiver in entry.copies(n):
            by_label.setdefault(label_of(materialize(receiver)), []).append(receiver)
        return tuple((label, tuple(receivers)) for label, receivers in by_label.items())


def fanout_form(policy: Any) -> FanoutForm:
    """``policy`` as a :class:`FanoutForm`: a form as is, a callable via :class:`PerCopy`."""
    return policy if isinstance(policy, FanoutForm) else PerCopy(policy)


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
    * **one slot per copy** -- the pair ``(entry, receiver)``, the copies
      of a fan-out sharing one :class:`FanoutEntry` (a lone Message is its
      own one-copy entry); the pair is exactly what :meth:`pop_entry` hands
      the network's delivery loop (and what its trace logs), and a Message
      is built from it only if somebody needs one.
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
    would have given it.  Memory is one list slot and one 2-tuple per
    in-flight copy; a popped slot is gone from its list at once,
    so the payloads of a fan-out are freed with its last live copy.
    """

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
    def push_many(self, slots: Sequence[Tuple[Any, int]]) -> None:
        """Add ``(entry, receiver)`` slots in send order."""
        self._count += len(slots)
        tail = self._tail
        tail.extend(slots)
        if len(tail) >= _BLOCK:
            self._seal()

    def push_copies(self, entry: Any, receivers: Sequence[int]) -> None:
        """Add the copies of ``entry`` to ``receivers`` (ascending) in send order."""
        self._count += len(receivers)
        tail = self._tail
        tail.extend(_slots(entry, receivers))
        if len(tail) >= _BLOCK:
            self._seal()

    def push_group(self, entry: Any, n: int) -> None:
        """Queue one ``(entry, receiver)`` slot per receiver of ``entry.copies(n)``.

        Rank semantics are identical to pushing the materialised copies in
        receiver order.
        """
        self.push_copies(entry, entry.copies(n))

    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
        """Remove the next message and return it unmaterialised.

        Returns the slot itself -- the queue's own ``(entry, receiver)``
        pair; the caller materialises only if it needs a full
        :class:`Message`.
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
        return slot

    def slots(self) -> Iterable[Any]:
        """The in-flight slots in send order, unmaterialised."""
        return chain.from_iterable(self._blocks + [self._tail])

    def snapshot(self) -> List[Message]:
        return _materialized(self.slots())


class ClassRankQueue(DeliveryQueue):
    """Uniform-random delivery among the best-ranked class of pending messages.

    The indexed form of every "prefer some traffic over other traffic"
    policy with a random base.  ``classify`` names a copy's class (``0`` is
    delivered first, ``classes - 1`` last); a pop draws uniformly among the
    best non-empty class.  Delay and partition are the two-class case
    (everything else / starved), the scenario director's
    :class:`~repro.scenarios.schedulers.ReactiveScheduler` the three-class
    one (boosted / neutral / delayed).

    ``classify`` is a :class:`FanoutForm` -- a fan-out is split by class
    with one ``deal`` and each class takes its copies as ``(entry,
    receiver)`` slots in one ``extend`` -- or a plain ``Message -> int``
    callable, evaluated on each materialised copy (:class:`PerCopy`).  Each
    class is one :class:`SendOrderRandomQueue`, so a pop is its one
    ``randrange``-equivalent draw and ``list.pop`` on the first non-empty
    class.  The ``r``-th oldest message of a class is the ``r``-th entry of
    the sub-list the reference ``choose`` scans build at O(m) per delivery
    -- hence byte-identical delivery per seed.  ``classify`` runs once per
    copy, at submit time, so it must be a pure function of the message
    between version changes.

    A policy that changes over time passes ``version(step)``, asked before
    each draw with the number of messages delivered so far: when its value
    differs from the last pop's, the classes' slots are merged back into
    send order (by ``seq``) and dealt out again before the draw, without
    materialising a copy -- O(m) per *change* (a delay budget lapsing, a
    partition healing, a director installing or clearing a rule), not per
    delivery.
    """

    def __init__(
        self,
        classify: Any,
        classes: int,
        version: Optional[Callable[[int], Any]] = None,
    ) -> None:
        self.classify = fanout_form(classify)
        self._version_at = version
        #: The queue is built with its network, before the first delivery.
        self._version = None if version is None else version(0)
        self._count = 0
        self._delivered = 0
        #: Parties per fan-out, learnt from the first group (for re-ranks).
        self._n = 0
        #: One send-order queue per class, best class first.
        self._queues = [SendOrderRandomQueue() for _ in range(classes)]

    def __len__(self) -> int:
        return self._count

    def _rerank(self) -> None:
        """Ask the policy again: merge the classes' slots by ``seq``, re-deal them."""
        classify, n = self.classify, self._n
        slots = sorted(
            chain.from_iterable(queue.slots() for queue in self._queues), key=_slot_seq
        )
        dealt: List[List[Any]] = [[] for _ in self._queues]
        # id(entry) -> {receiver: class}: one ``deal`` per entry with a live
        # copy (by identity: a lone Message hashes by value).
        classes: Dict[int, Dict[int, Any]] = {}
        for slot in slots:
            entry, receiver = slot
            of_entry = classes.get(id(entry))
            if of_entry is None:
                of_entry = classes[id(entry)] = {
                    copy: label
                    for label, receivers in classify.deal(entry, n)
                    for copy in receivers
                }
            dealt[of_entry[receiver]].append(slot)
        self._queues = [SendOrderRandomQueue() for _ in dealt]
        for queue, members in zip(self._queues, dealt):
            queue.push_many(members)

    def push_group(self, entry: Any, n: int) -> None:
        self._n = n
        queues = self._queues
        for label, receivers in self.classify.deal(entry, n):
            queues[label].push_copies(entry, receivers)
            self._count += len(receivers)

    def pop_entry(self, rng: random.Random) -> Tuple[Any, int]:
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
        return queue.pop_entry(rng)

    def snapshot(self) -> List[Message]:
        # Each class is already in send order, so the sort is a k-way merge.
        pending = chain.from_iterable(queue.snapshot() for queue in self._queues)
        return sorted(pending, key=attrgetter("seq"))
