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
* :class:`SendOrderRandomQueue` -- a Fenwick tree over 64-bit words of send
  slots supporting "deliver the r-th oldest in-flight message" in O(log m),
  with whole fan-outs queued as one unmaterialised :class:`FanoutEntry`.
* :class:`ClassRankQueue` -- send-order slots with one Fenwick tree per
  priority class: "deliver a uniformly random member of the best non-empty
  class".  The one queue behind the delay and partition schedulers (two
  classes) and the scenario director's reactive scheduler (three).
* :class:`ScanQueue` -- the legacy full-scan path, used by any scheduler
  without an indexed strategy (custom subclasses, non-random base policies)
  and as the reference the others are tested against.

The two random queues stay apart on purpose: word-packed fan-out groups and
per-message class slots are different layouts, and one structure serving
both would branch on its caller at every step.

Every indexed queue reproduces the legacy delivery order *byte-identically*
for the same seed: FIFO because pending is always scanned in send order,
keyed because the old scan minimised the same ``(priority, seq)`` tuple, and
random because ``list.pop(i)`` preserves send order, so "index i into the
pending list" always meant "the i-th oldest in-flight message" (of a class)
-- exactly the rank query the Fenwick trees answer.
``tests/net/test_queues.py`` locks this in by diffing full delivery traces
against :func:`force_scan` runs.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.net.message import Message


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
    def pop(self, rng: random.Random, step: int) -> Message:
        """Remove and return the next message to deliver (queue is non-empty)."""

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

    def push(self, message: Message) -> None:
        self._pending.append(message)

    def pop(self, rng: random.Random, step: int) -> Message:
        pending = self._pending
        choice = self.scheduler.validate(
            self.scheduler.choose(pending, rng, step), pending
        )
        return pending.pop(choice)

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

    def pop(self, rng: random.Random, step: int) -> Message:
        return self._queue.popleft()

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

    def pop(self, rng: random.Random, step: int) -> Message:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def snapshot(self) -> List[Message]:
        return [entry[2] for entry in sorted(self._heap, key=lambda e: e[1])]


try:  # Python >= 3.10: C-speed popcount.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - older interpreters
    def _popcount(value: int) -> int:
        return bin(value).count("1")


#: Popcounts of all 16-bit values (bytes: C-speed indexing, 64 KiB).
_POP16 = bytearray(1 << 16)
for _value in range(1, 1 << 16):
    _POP16[_value] = _POP16[_value >> 1] + (_value & 1)
_POP16 = bytes(_POP16)

#: Bit position of the k-th (1-based) set bit of each byte, flattened as
#: ``_SEL8[byte * 8 + (k - 1)]``; unused entries stay 0 and are never read.
_SEL8 = bytearray(256 * 8)
for _value in range(256):
    _rank = 0
    for _bit in range(8):
        if _value >> _bit & 1:
            _SEL8[_value * 8 + _rank] = _bit
            _rank += 1
_SEL8 = bytes(_SEL8)
del _value, _rank, _bit

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
        """Build the delivered copy for ``receiver`` (each bit pops at most once)."""
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


class SendOrderRandomQueue(DeliveryQueue):
    """Rank-indexed uniform-random delivery, byte-identical to the legacy path.

    The legacy loop drew ``r = rng.randrange(len(pending))`` and popped
    ``pending[r]``; since ``list.pop`` preserves relative order, that is "the
    r-th oldest in-flight message".  A swap-pop would be O(1) but delivers a
    *different* (if equally distributed) sequence, breaking seed-for-seed
    reproducibility of every recorded experiment.  So this queue answers the
    same rank query with a word-indexed structure tuned for the 100k+
    in-flight depths of n=64 coin trials:

    * **one word per fan-out** -- send order is partitioned into 64-bit
      words, each holding either one :class:`FanoutEntry` (a whole broadcast
      or ROW/POINT loop, queued in group mode as a single object with a
      liveness bitmask) or a packed run of individually pushed messages.
      The delivered copy of a fan-out is materialised only when popped.
    * **Fenwick over words** -- a counting tree over per-word live counts
      (64x fewer nodes than one per message) finds the target word in
      ``O(log(m/64))``; byte-table select (``_POP16``/``_SEL8``) finds the
      bit inside the word's mask.
    * **find-and-decrement** -- the descend updates the counts of every node
      whose range contains the popped message as it passes, which is exactly
      the point-update path, so a pop walks the tree once, not twice; the
      rank draw itself is the inlined ``Random._randbelow`` loop (identical
      getrandbits stream).

    Every representation detail is invisible in the delivery order: a pop
    consumes exactly one ``randrange``-equivalent draw and delivers the r-th
    oldest in-flight message with exactly the fields the eager submit path
    would have given it.  Memory is one entry per fan-out plus one mask per
    word -- O(sends/64) -- with emptied words dropping their entry (and its
    payloads) immediately.
    """

    #: Network checks this before queueing FanoutEntry groups.
    supports_groups = True

    #: In-flight count at which the word index takes over from the flat
    #: list.  Below it, ``list.pop(rank)`` is a C memmove that beats any
    #: pure-Python structure (typical n<=16 trials never leave list mode);
    #: above it the memmove cost crosses the tree's ~log(m/64) descend.
    _LIST_THRESHOLD = 8192

    def __init__(self) -> None:
        self._count = 0
        #: Flat list of materialised messages (list mode); None in tree mode.
        self._flat: Optional[List[Message]] = []
        #: Per word: a list of packed single messages, a FanoutEntry, or
        #: None once every copy in the word has been delivered.
        self._entries: List[Any] = []
        #: Per-word liveness bitmask (bit b = copy for receiver/slot b live).
        self._words: List[int] = []
        #: Fenwick tree over live counts per word (1-based).
        self._tree: List[int] = [0] * 17
        self._capacity = 16
        #: The trailing packed-singles word still accepting pushes, if any.
        self._open: Optional[List[Optional[Message]]] = None
        #: Fully-delivered words not yet dropped by compaction.
        self._dead = 0
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
    def _retree(self, nwords: int) -> None:
        """Rebuild the Fenwick counts from the word masks (no entry scan)."""
        capacity = 16
        while capacity < nwords + 16:
            capacity *= 2
        if capacity.bit_length() & 1 == 0:
            # Keep log2(capacity) even: the pop descend is unrolled two
            # levels per iteration and must finish exactly at bit == 1.
            capacity *= 2
        words = self._words
        tree = [0] * (capacity + 1)
        for w, mask in enumerate(words):
            tree[w + 1] = _popcount(mask)
        # O(capacity) Fenwick construction from point values.
        for index in range(1, capacity + 1):
            parent = index + (index & -index)
            if parent <= capacity:
                tree[parent] += tree[index]
        self._tree = tree
        self._capacity = capacity

    def _compact(self) -> None:
        """Drop fully-delivered words, keeping live words in send order.

        Word masks and in-word bit positions are preserved (they encode the
        receiver mapping of fan-out entries), so compaction only removes
        whole dead words; under uniform random delivery most words die from
        old age, which keeps the tree spanning O(live) words.
        """
        entries = self._entries
        words = self._words
        new_entries: List[Any] = []
        new_words: List[int] = []
        append_e = new_entries.append
        append_w = new_words.append
        for position, mask in enumerate(words):
            if mask:
                append_e(entries[position])
                append_w(mask)
        self._entries = new_entries
        self._words = new_words
        self._open = None
        self._dead = 0
        if self._count <= self._LIST_THRESHOLD // 4:
            # Small again: the C-speed flat list wins at this depth.
            self._enter_list()
            return
        self._retree(len(new_words))

    def _enter_tree(self) -> None:
        """Switch list -> word index: pack the flat list into singles words."""
        flat = self._flat
        assert flat is not None
        self._flat = None
        entries = self._entries = []
        words = self._words = []
        self._open = None
        self._dead = 0
        for start in range(0, len(flat), 64):
            chunk = flat[start : start + 64]
            entries.append(chunk)
            words.append((1 << len(chunk)) - 1)
        if entries and len(entries[-1]) < 64:
            self._open = entries[-1]
        self._retree(len(words))

    def _enter_list(self) -> None:
        """Switch word index -> list: materialise every live copy in order."""
        self._flat = self.snapshot()
        self._entries = []
        self._words = []
        self._tree = [0] * 17
        self._capacity = 16
        self._open = None
        self._dead = 0

    # -- queue protocol --------------------------------------------------
    def push(self, message: Message) -> None:
        self._count += 1
        flat = self._flat
        if flat is not None:
            flat.append(message)
            if self._count > self._LIST_THRESHOLD:
                self._enter_tree()
            return
        open_word = self._open
        entries = self._entries
        if open_word is not None and len(open_word) < 64:
            bit = len(open_word)
            open_word.append(message)
            w = len(entries) - 1
            self._words[w] |= 1 << bit
        else:
            w = len(entries)
            if w >= self._capacity:
                self._retree(w + 1)
            self._open = [message]
            entries.append(self._open)
            self._words.append(1)
        tree = self._tree
        capacity = self._capacity
        position = w + 1
        while position <= capacity:
            tree[position] += 1
            position += position & -position

    def push_many(self, messages: Sequence[Message]) -> None:
        flat = self._flat
        if flat is not None:
            flat.extend(messages)
            self._count += len(messages)
            if self._count > self._LIST_THRESHOLD:
                self._enter_tree()
            return
        for message in messages:
            self.push(message)

    def push_group(self, entry: FanoutEntry, mask: int, size: int) -> None:
        """Queue a whole fan-out as one word (group mode).

        ``mask`` holds one live bit per receiver (the ``skip`` bit already
        cleared); ``size`` is its popcount.  Rank semantics are identical to
        pushing the ``size`` materialised copies in receiver order.
        """
        self._count += size
        flat = self._flat
        if flat is not None:
            # List mode: materialise eagerly (cheap at these depths).
            append = flat.append
            bitpos = 0
            while mask:
                if mask & 1:
                    append(entry.materialize(bitpos))
                mask >>= 1
                bitpos += 1
            if self._count > self._LIST_THRESHOLD:
                self._enter_tree()
            return
        entries = self._entries
        w = len(entries)
        if w >= self._capacity:
            self._retree(w + 1)
        self._open = None
        entries.append(entry)
        self._words.append(mask)
        tree = self._tree
        capacity = self._capacity
        position = w + 1
        while position <= capacity:
            tree[position] += size
            position += position & -position

    def pop_entry(self, rng: random.Random):
        """Remove the next message and return it unmaterialised.

        Returns ``(entry, bitpos)``: for a fan-out word, the
        :class:`FanoutEntry` and the receiver bit (the caller materialises
        only if it needs a full :class:`Message`); for a packed-singles word,
        the stored Message itself and ``-1``.  This is the network fast
        loop's pop -- the generic :meth:`pop` wraps it.
        """
        count = self._count
        if not count:
            # Explicit: _randbelow(0) would spin forever (getrandbits(0) is 0).
            raise IndexError("pop from an empty delivery queue")
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
        flat = self._flat
        if flat is not None:
            return flat.pop(rank), -1
        # Find-and-decrement descend: locate the word holding the (rank+1)-th
        # live copy, decrementing every node whose range contains it.  The
        # root node covers the whole range, so its branch is unconditional,
        # and every later candidate satisfies position + bit <= capacity
        # (position is a sum of distinct powers of two above ``bit``), so the
        # descend needs no bounds checks; it is unrolled two levels per
        # iteration (capacity is a power of two >= 16, so the level count is
        # even after the root).
        tree = self._tree
        capacity = self._capacity
        tree[capacity] -= 1
        position = 0
        remaining = rank + 1
        bit = capacity >> 1
        while bit:
            candidate = position + bit
            value = tree[candidate]
            if value < remaining:
                position = candidate
                remaining -= value
            else:
                tree[candidate] = value - 1
            bit >>= 1
            candidate = position + bit
            value = tree[candidate]
            if value < remaining:
                position = candidate
                remaining -= value
            else:
                tree[candidate] = value - 1
            bit >>= 1
        # Select the `remaining`-th (1-based) set bit of the word's mask via
        # 16-bit popcount and 8-bit select tables.
        words = self._words
        mask = words[position]
        k = remaining
        base = 0
        chunk_src = mask
        count16 = _POP16[chunk_src & 0xFFFF]
        while k > count16:
            k -= count16
            chunk_src >>= 16
            base += 16
            count16 = _POP16[chunk_src & 0xFFFF]
        chunk = chunk_src & 0xFFFF
        count8 = _POP16[chunk & 0xFF]
        if k > count8:
            bitpos = base + 8 + _SEL8[((chunk >> 8) & 0xFF) * 8 + (k - count8 - 1)]
        else:
            bitpos = base + _SEL8[(chunk & 0xFF) * 8 + (k - 1)]
        words[position] = new_mask = mask ^ (1 << bitpos)
        entries = self._entries
        entry = entries[position]
        if type(entry) is list:
            message = entry[bitpos]
            entry[bitpos] = None
            if not new_mask:
                if entry is self._open:
                    self._open = None
                entries[position] = None
                self._dead = dead = self._dead + 1
                if dead > 64 and dead * 2 > len(entries):
                    self._compact()
            return message, -1
        if not new_mask:
            # Word exhausted: drop the entry (frees its payloads) now.
            entries[position] = None
            self._dead = dead = self._dead + 1
            if dead > 64 and dead * 2 > len(entries):
                self._compact()
        return entry, bitpos

    def pop(self, rng: random.Random, step: int) -> Message:
        entry, bitpos = self.pop_entry(rng)
        if bitpos < 0:
            return entry
        return entry.materialize(bitpos)

    def snapshot(self) -> List[Message]:
        if self._flat is not None:
            return list(self._flat)
        out: List[Message] = []
        for position, mask in enumerate(self._words):
            if not mask:
                continue
            entry = self._entries[position]
            is_packed = type(entry) is list
            bitpos = 0
            while mask:
                if mask & 1:
                    out.append(
                        entry[bitpos] if is_packed else entry.materialize(bitpos)
                    )
                mask >>= 1
                bitpos += 1
        return out


class ClassRankQueue(DeliveryQueue):
    """Uniform-random delivery among the best-ranked class of pending messages.

    The indexed form of every "prefer some traffic over other traffic"
    policy with a random base.  ``classify(message)`` names a message's
    class (``0`` is delivered first, ``classes - 1`` last); a pop draws
    uniformly among the best non-empty class.  Delay and partition are the
    two-class case (everything else / starved), the scenario director's
    :class:`~repro.scenarios.schedulers.ReactiveScheduler` the three-class
    one (boosted / neutral / delayed).

    Messages sit in send-order slots under one Fenwick tree per class.
    ``classify`` runs once per message, at submit time, so it must be a
    pure function of the message between version changes (every in-tree
    policy is).  A pop is one ``randrange``-equivalent draw over the best
    class plus an O(log m) search, and the ``r``-th live slot of a class is
    the ``r``-th entry of the sub-list the reference ``choose`` scans build
    at O(m) per delivery -- hence byte-identical delivery per seed.

    A policy that changes over time passes ``version(step)``: when its
    value differs from the last pop's, every live message is re-classified
    before the draw -- O(m) per *change* (a delay budget lapsing, a director
    installing a rule), not per delivery.  Tombstones are compacted once
    they outnumber live messages, keeping memory O(in-flight).
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
        self._slots: List[Optional[Message]] = []
        #: Parallel class per slot (stale entries tolerated for tombstones).
        self._ranks: List[int] = []
        self._class_counts = [0] * classes
        self._trees: List[List[int]] = [[0] * 17 for _ in range(classes)]
        self._capacity = 16
        self._randbelow: Optional[Callable[[int], int]] = None
        self._randbelow_rng: Optional[random.Random] = None

    def __len__(self) -> int:
        return self._count

    # -- index maintenance ----------------------------------------------
    def _reindex(self, rerank: bool = False) -> None:
        """Drop tombstones and rebuild the per-class trees over what is left.

        Live messages keep their send order (and their classes, unless
        ``rerank`` asks the policy again), so neither compaction nor a
        re-rank is visible in which message a given draw selects.
        """
        slots = [message for message in self._slots if message is not None]
        if rerank:
            ranks = list(map(self.classify, slots))
        else:
            ranks = [
                rank
                for message, rank in zip(self._slots, self._ranks)
                if message is not None
            ]
        capacity = 16
        while capacity <= len(slots):
            capacity *= 2
        class_counts = [0] * len(self._class_counts)
        trees = [[0] * (capacity + 1) for _ in class_counts]
        for index, rank in enumerate(ranks):
            class_counts[rank] += 1
            trees[rank][index + 1] = 1
        # O(capacity) Fenwick construction from point values.
        for tree in trees:
            for index in range(1, capacity + 1):
                parent = index + (index & -index)
                if parent <= capacity:
                    tree[parent] += tree[index]
        self._slots = slots
        self._ranks = ranks
        self._class_counts = class_counts
        self._trees = trees
        self._capacity = capacity

    # -- queue protocol --------------------------------------------------
    def push(self, message: Message) -> None:
        if len(self._slots) >= self._capacity:
            self._reindex()
        index = len(self._slots)
        rank = self.classify(message)
        self._slots.append(message)
        self._ranks.append(rank)
        self._count += 1
        self._class_counts[rank] += 1
        tree = self._trees[rank]
        capacity = self._capacity
        position = index + 1
        while position <= capacity:
            tree[position] += 1
            position += position & -position

    def pop(self, rng: random.Random, step: int) -> Message:
        if not self._count:
            # Explicit: _randbelow(0) would spin forever (getrandbits(0) is 0).
            raise IndexError("pop from an empty delivery queue")
        version_at = self._version_at
        if version_at is not None:
            version = version_at(step)
            if version != self._version:
                self._version = version
                self._reindex(rerank=True)
        if rng is not self._randbelow_rng:
            self._randbelow_rng = rng
            self._randbelow = getattr(rng, "_randbelow", rng.randrange)
        class_counts = self._class_counts
        cls = 0
        while not class_counts[cls]:
            cls += 1
        remaining = self._randbelow(class_counts[cls]) + 1
        # Fenwick search for the slot holding the class's `remaining`-th live
        # message.  The root node counts the whole class (>= remaining), so
        # the descend starts below it, where every candidate is in range.
        tree = self._trees[cls]
        capacity = self._capacity
        position = 0
        bit = capacity >> 1
        while bit:
            candidate = position + bit
            value = tree[candidate]
            if value < remaining:
                position = candidate
                remaining -= value
            bit >>= 1
        slots = self._slots
        message = slots[position]
        assert message is not None
        slots[position] = None
        self._count = count = self._count - 1
        class_counts[cls] -= 1
        position += 1
        while position <= capacity:
            tree[position] -= 1
            position += position & -position
        if len(slots) > 2 * count:
            self._reindex()
        return message

    def snapshot(self) -> List[Message]:
        return [message for message in self._slots if message is not None]
