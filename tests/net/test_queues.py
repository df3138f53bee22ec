"""Equivalence tests: indexed delivery queues == legacy scan-and-pop loop.

The contract of the delivery-queue restructure is that every built-in
scheduler's indexed strategy reproduces the legacy full-scan delivery order
*byte-identically* for the same seed.  These tests run real protocol
executions under both paths and diff the complete delivery trace, plus unit-
and fuzz-level checks of each queue against its reference model.
"""

from __future__ import annotations

import random
import weakref

import pytest

from repro.core.config import ProtocolParams
from repro.errors import SimulationError
from repro.net import queues
from repro.net.message import Message
from repro.net.network import Network
from repro.net.queues import (
    ClassRankQueue,
    FanoutEntry,
    FifoQueue,
    KeyedQueue,
    ScanQueue,
    SendOrderRandomQueue,
)
from repro.net.runtime import Simulation
from repro.net.scheduler import (
    DelayScheduler,
    FIFOScheduler,
    RandomScheduler,
    TargetedScheduler,
    force_scan,
    partition_then_heal,
)
from repro.protocols.acast import ACast
from repro.protocols.weak_coin import WeakCommonCoin
from repro.scenarios.schedulers import ReactiveScheduler


def _msg(seq, sender=0, receiver=1):
    return Message(sender, receiver, ("q",), ("K", seq), seq=seq)


def _pop_copy(queue, rng):
    """Pop one slot, which is always ``(entry, receiver)`` with ``receiver >= 0``
    (a lone Message is its own one-copy entry), and return its Message."""
    slot = queue.pop_entry(rng)
    assert type(slot) is tuple and len(slot) == 2
    entry, receiver = slot
    assert receiver >= 0
    return entry.materialize(receiver)


def _delivery_trace(scheduler, seed, n=7):
    """Full delivery order (seq numbers) plus outputs of one weak-coin run."""
    sim = Simulation(
        params=ProtocolParams.for_parties(n),
        scheduler=scheduler,
        seed=seed,
        keep_events=True,
    )
    result = sim.run(("weak_coin",), WeakCommonCoin.factory())
    order = [
        event.detail.seq
        for event in result.network.trace.events
        if event.kind == "deliver"
    ]
    return order, result.outputs


def _scripted_reactive(n=7):
    """A reactive scheduler whose rules change mid-run, as a director's would.

    ``expire(step)`` is the one call both the indexed queue and the reference
    ``choose`` scan make before every delivery, so the script rides it: a
    boost installed, a delay that lapses on its own, a clear.
    """
    script = [
        (15, {"op": "boost", "predicate": {"senders": [1, 2]}}),
        (40, {"op": "delay", "predicate": {"kinds": ["READY"]}, "expires": 90}),
        (300, {"op": "clear"}),
    ]

    class Scripted(ReactiveScheduler):
        def expire(self, step):
            while script and script[0][0] <= step:
                self.apply_action(script.pop(0)[1], n, step)
            super().expire(step)

    return Scripted()


SCHEDULER_FACTORIES = {
    "fifo": FIFOScheduler,
    "random": RandomScheduler,
    "targeted": lambda: TargetedScheduler(lambda m: m.receiver),
    "delay": lambda: DelayScheduler(lambda m: m.sender == 0),
    # max_delay_steps exercises the ClassRankQueue version change: the lapse
    # re-ranks every pending message into a single class mid-run.
    "delay_expiring": lambda: DelayScheduler(lambda m: m.sender == 0, max_delay_steps=30),
    "delay_flood": lambda: DelayScheduler(
        lambda m: m.session[-2] == "rec" if len(m.session) >= 2 else False,
        max_delay_steps=200,
    ),
    "partition": lambda: partition_then_heal([0, 1, 2], [3, 4, 5], duration=40),
    # The k=3 case: boosted / neutral / delayed, re-ranked on every rule change.
    "reactive": _scripted_reactive,
}


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("name", sorted(SCHEDULER_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 13])
    def test_delivery_order_is_byte_identical(self, name, seed):
        factory = SCHEDULER_FACTORIES[name]
        fast_order, fast_outputs = _delivery_trace(factory(), seed)
        scan_order, scan_outputs = _delivery_trace(force_scan(factory()), seed)
        assert fast_order == scan_order
        assert fast_outputs == scan_outputs

    @pytest.mark.parametrize("seed", [0, 5])
    def test_acast_equivalence(self, seed):
        def run(scheduler):
            sim = Simulation(
                params=ProtocolParams.for_parties(4),
                scheduler=scheduler,
                seed=seed,
                keep_events=True,
            )
            result = sim.run(
                ("acast",), ACast.factory(0), inputs={0: {"value": "payload"}}
            )
            return (
                [
                    event.detail.seq
                    for event in result.network.trace.events
                    if event.kind == "deliver"
                ],
                result.outputs,
            )

        assert run(RandomScheduler()) == run(force_scan(RandomScheduler()))

    def test_subclass_with_overridden_choose_keeps_scan_path(self):
        """A subclass's choose() must stay authoritative: indexed strategies
        are only safe for the exact built-in policies."""

        class AlwaysOldest(RandomScheduler):
            def choose(self, pending, rng, step):
                return 0

        assert isinstance(AlwaysOldest().make_queue(), ScanQueue)
        assert isinstance(type("F", (FIFOScheduler,), {})().make_queue(), ScanQueue)
        assert isinstance(
            type("T", (TargetedScheduler,), {})(lambda m: 0).make_queue(), ScanQueue
        )
        network = Network(
            ProtocolParams.for_parties(2), scheduler=AlwaysOldest(), seed=0
        )
        for index in range(4):
            network.submit(0, 1, ("s",), ("K", index))
        delivered = []
        while network.step():
            delivered.append(network.trace.messages_delivered)
        assert network.step_count == 4  # delivered via the subclass's policy

    def test_queue_strategies_selected(self):
        assert isinstance(FIFOScheduler().make_queue(), FifoQueue)
        assert isinstance(RandomScheduler().make_queue(), SendOrderRandomQueue)
        assert isinstance(
            TargetedScheduler(lambda m: 0).make_queue(), KeyedQueue
        )
        assert isinstance(
            DelayScheduler(lambda m: False).make_queue(), ClassRankQueue
        )
        assert isinstance(
            partition_then_heal([0], [1], 10).make_queue(), ClassRankQueue
        )
        assert isinstance(ReactiveScheduler().make_queue(), ClassRankQueue)
        # A subclass keeps the reference scan path; so does any scheduler
        # wrapped in force_scan (a priority that is no pure function of the
        # message is re-evaluated every step that way).
        assert isinstance(
            type("D", (DelayScheduler,), {})(lambda m: False).make_queue(), ScanQueue
        )
        assert isinstance(
            force_scan(TargetedScheduler(lambda m: 0)).make_queue(), ScanQueue
        )


class TestFifoQueue:
    def test_pops_in_send_order(self):
        queue = FifoQueue()
        messages = [_msg(seq) for seq in range(10)]
        for message in messages:
            queue.push_group(message, 5)
        rng = random.Random(0)
        assert [queue.pop(rng).seq for _ in range(10)] == list(range(10))
        assert len(queue) == 0


class TestKeyedQueue:
    def test_matches_scan_minimum(self):
        scheduler = TargetedScheduler(lambda m: m.receiver)
        queue = KeyedQueue(lambda m: m.receiver)
        pending = []
        rng = random.Random(0)
        order_rng = random.Random(7)
        for seq in range(50):
            message = _msg(seq, receiver=order_rng.randrange(5))
            queue.push_group(message, 5)
            pending.append(message)
        while pending:
            choice = scheduler.choose(pending, rng, 0)
            expected = pending.pop(choice)
            assert _pop_copy(queue, rng) is expected
        assert len(queue) == 0


class _SubclassedRandom(random.Random):
    """A ``Random`` subclass: pops must take the generic ``_randbelow`` path
    (no inlined getrandbits loop) and still consume the identical stream."""


class _WeakFanoutEntry(FanoutEntry):
    __slots__ = ("__weakref__",)


def _fields(message):
    return (
        message.sender,
        message.receiver,
        message.session,
        message.payload,
        message.seq,
        message.kind,
        message.root,
    )


class TestSendOrderRandomQueue:
    def test_fuzz_matches_list_model(self, monkeypatch):
        """Random pushes/pops against the legacy pending list: every pop must
        deliver exactly the message ``pending.pop(randrange(len(pending)))``
        would have, across tail->sealed crossings, emptied blocks, rebuilds
        that join neighbours and tree growth (tiny block size forces many),
        with ``push_many`` batches that straddle a seal."""
        monkeypatch.setattr(queues, "_BLOCK", 32)
        for rng_type in (random.Random, _SubclassedRandom):
            self._fuzz_against_list_model(rng_type)

    @staticmethod
    def _fuzz_against_list_model(rng_type):
        queue = SendOrderRandomQueue()
        model = []
        control = random.Random(1)
        seq = 0
        blocks = queue._blocks
        rebuilds = most_blocks = 0
        for iteration in range(20000):
            # Drift deep for the first half (many sealed blocks, tree growth),
            # then drain back through emptied blocks to the bare tail.
            if model and control.random() < (0.45 if iteration < 10000 else 0.56):
                draw = control.randrange(1 << 30)
                fast = _pop_copy(queue, rng_type(draw))
                expected = model.pop(random.Random(draw).randrange(len(model)))
                assert fast is expected
            elif control.random() < 0.1:
                batch = [_msg(seq + offset) for offset in range(control.randrange(1, 100))]
                seq += len(batch)
                queue.push_many([(message, message.receiver) for message in batch])
                model.extend(batch)
            else:
                message = _msg(seq)
                seq += 1
                queue.push_group(message, 2)
                model.append(message)
            assert len(queue) == len(model)
            assert all(0 < len(block) <= 32 for block in queue._blocks)
            if queue._blocks is not blocks:
                # Rebuilt (a seal or an emptied block): neighbours re-joined.
                blocks = queue._blocks
                rebuilds += 1
                most_blocks = max(most_blocks, len(blocks))
                assert len(blocks) <= 2 * queue._sealed // 32 + 1
            if iteration % 500 == 0:
                assert queue.snapshot() == model
        assert most_blocks > 16 and rebuilds > 200
        assert queue.snapshot() == model

    def test_fuzz_group_pushes_match_eager_pushes(self, monkeypatch):
        """Fan-out group entries deliver byte-identical messages (fields and
        order) to eagerly materialised per-receiver pushes, across block
        seals and rebuilds on the grouped side, for ``skip`` at 0, at n-1,
        in between and absent."""
        monkeypatch.setattr(queues, "_BLOCK", 48)
        for n in (8, 64):
            self._fuzz_groups_against_eager(n)

    @staticmethod
    def _fuzz_groups_against_eager(n):
        grouped = SendOrderRandomQueue()
        eager = SendOrderRandomQueue()
        control = random.Random(7)
        seq = 0
        live = 0
        for round_index in range(4000):
            if live and control.random() < 1 - 0.45 / n ** 0.5:
                draw = control.randrange(1 << 30)
                fast = _pop_copy(grouped, random.Random(draw))
                reference = _pop_copy(eager, random.Random(draw))
                assert _fields(fast) == _fields(reference)
                live -= 1
                continue
            sender = control.randrange(n)
            session = ("s", round_index % 3)
            if control.random() < 0.5:
                # Broadcast: one shared payload for every receiver.
                payload = ("B", round_index)
                skip = None
                values = None
                kind = "B"
            else:
                # Fan-out with per-receiver values, one receiver skipped.
                values = [control.randrange(1000) for _ in range(n)]
                payload = None
                skip = control.choice([0, n - 1, sender])
                kind = "P"
            grouped.push_group(
                FanoutEntry(sender, session, kind, payload, values, seq, skip, "s"), n
            )
            for receiver in range(n):
                if receiver == skip:
                    continue
                message = _msg(seq, receiver=receiver)
                message.sender = sender
                message.session = session
                message.payload = payload if values is None else ("P", values[receiver])
                message.kind = kind
                message.root = "s"
                eager.push_group(message, n)
                seq += 1
                live += 1
            assert len(grouped) == len(eager)
            if round_index % 400 == 0:
                assert list(map(_fields, grouped.snapshot())) == list(
                    map(_fields, eager.snapshot())
                )
        assert len(grouped._blocks) > 1

    def test_drained_queue_keeps_nothing(self, monkeypatch):
        """Payloads are freed with a fan-out's last live copy (no sweep), and
        a fill-and-drain of 10x the block size ends in the empty state."""
        monkeypatch.setattr(queues, "_BLOCK", 64)
        queue = SendOrderRandomQueue()
        rng = random.Random(5)
        entries = []
        for index in range(80):
            entry = _WeakFanoutEntry(0, ("s",), "B", ("B", index), None, index * 8, None, "s")
            entries.append(weakref.ref(entry))
            queue.push_group(entry, 8)
            del entry
        assert len(queue) == 640 and len(queue._blocks) == 10
        while len(queue):
            assert queue.pop(rng).kind == "B"
            # Every entry with no copy left in flight is already dead.
            assert sum(ref() is not None for ref in entries) == len(
                {id(slot[0]) for block in queue._blocks + [queue._tail] for slot in block}
            )
        assert all(ref() is None for ref in entries)
        assert queue._blocks == [] and queue._tail == []
        assert queue._tree == [0, 0] and queue._capacity == 1

    def test_empty_pop_raises_before_drawing(self):
        """The network fast loop detects deadlock by this IndexError, and a
        draw consumed on the way would shift every later delivery."""
        queue = SendOrderRandomQueue()
        rng = random.Random(9)
        state = rng.getstate()
        with pytest.raises(IndexError):
            queue.pop_entry(rng)
        with pytest.raises(IndexError):
            queue.pop(rng)
        assert rng.getstate() == state

    @pytest.mark.parametrize("tracing", [True, False])
    @pytest.mark.parametrize("n", [7, 16])
    def test_group_mode_trial_matches_eager_trial(self, n, tracing):
        """A random-queue run (group mode: lazy fan-out entries) reproduces a
        run on the scan queue (eager per-message submits) delivery-for-delivery,
        traced or not."""
        from repro.core import api

        eager = api.run_weak_coin(
            n, seed=11, scheduler=force_scan(RandomScheduler()), tracing=tracing
        )
        lazy = api.run_weak_coin(n, seed=11, tracing=tracing)
        assert eager.outputs == lazy.outputs
        assert eager.steps == lazy.steps
        assert eager.message_stats == lazy.message_stats

    def test_snapshot_preserves_send_order(self):
        queue = SendOrderRandomQueue()
        for seq in range(100):
            queue.push_group(_msg(seq), 2)
        rng = random.Random(3)
        for _ in range(60):
            queue.pop(rng)
        snapshot = queue.snapshot()
        assert [m.seq for m in snapshot] == sorted(m.seq for m in snapshot)


class TestClassRankQueue:
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("block", [8, 64])
    @pytest.mark.parametrize("rng_type", [random.Random, _SubclassedRandom])
    def test_fuzz_matches_reclassifying_list_model(
        self, monkeypatch, classes, block, rng_type
    ):
        """Random pushes, fan-out groups, pops and policy changes against a
        flat pending list that re-classifies everything on every pop: each pop
        must deliver the same message and consume the same rng stream, while
        the per-class block lists seal, decay, join and rebuild (tiny block
        size), whole classes sit empty, a fan-out's copies land in several
        classes, and version changes move messages -- and unmaterialised
        copies -- between classes.  ``classify`` reads ``seq``, so the queue
        adapts it per materialised copy."""
        monkeypatch.setattr(queues, "_BLOCK", block)
        epoch = 0
        version_calls = 0

        def classify(message):
            mode = epoch % 4
            if mode == 0:
                return message.seq * 7 // 3 % classes
            if mode == 1:
                return classes - 1  # every better class is empty
            if mode == 2:
                return message.seq // 5 % classes  # runs of 5 change class together
            return 0 if message.seq % 11 else classes - 1  # k=3: middle class empty

        def version(step):
            nonlocal version_calls
            version_calls += 1
            return epoch

        def model_pop():
            ranks = list(map(classify, model))
            best = min(ranks)
            members = [m for m, rank in zip(model, ranks) if rank == best]
            chosen = members[model_rng.randrange(len(members))]
            model.remove(chosen)
            return chosen

        queue = ClassRankQueue(classify, classes, version)
        model = []
        control = random.Random(classes * 100 + block)
        fast_rng, model_rng = rng_type(5), random.Random(5)
        seq = 0
        most_blocks = reranks = 0
        for iteration in range(3000):
            # Drift deep for the first half, then drain back down.
            if model and control.random() < (0.55 if iteration < 1500 else 0.85):
                class_queues = queue._queues
                assert _fields(_pop_copy(queue, fast_rng)) == _fields(model_pop())
                assert fast_rng.getstate() == model_rng.getstate()
                reranks += queue._queues is not class_queues
            elif control.random() < 0.1:
                n = 24  # a network's fan-outs all have its n
                skip = control.choice([None, 0, n - 1, control.randrange(n)])
                entry = FanoutEntry(0, ("q",), "K", ("K", seq), None, seq, skip, "q")
                queue.push_group(entry, n)
                copies = [entry.materialize(r) for r in range(n) if r != skip]
                seq += len(copies)
                model.extend(copies)
            else:
                message = _msg(seq)
                seq += 1
                queue.push_group(message, 24)
                model.append(message)
            if control.random() < 0.01:
                epoch += 1  # takes effect at the next pop, as a lapsing budget does
            assert len(queue) == len(model)
            assert sum(map(len, queue._queues)) == len(model)
            most_blocks = max(most_blocks, *(len(q._blocks) for q in queue._queues))
            if iteration % 100 == 0:
                assert queue.snapshot() == model
        assert most_blocks > (2 if block == 64 else 16) and reranks > 10
        while model:
            assert _fields(_pop_copy(queue, fast_rng)) == _fields(model_pop())
        assert len(queue) == 0 and queue.snapshot() == []
        assert all(q._blocks == [] and q._tail == [] for q in queue._queues)
        # An empty pop raises before it draws, asks for the version or re-ranks.
        epoch += 1
        calls, class_queues = version_calls, queue._queues
        with pytest.raises(IndexError):
            queue.pop(fast_rng)
        assert fast_rng.getstate() == model_rng.getstate()
        assert version_calls == calls and queue._queues is class_queues


@pytest.mark.parametrize(
    "make_queue",
    [KeyedQueue, lambda form: ClassRankQueue(form, 2)],
    ids=["keyed", "class_rank"],
)
def test_survivors_entries_are_dealt_over_their_own_copies(make_queue):
    """A form's deal is cached per copy set: fan-outs whose groups are the
    same object but whose mutators dropped different receivers must each be
    dealt over their own survivors, so no queue ever pops a copy that was
    dropped (or misses one that was not)."""
    n = 6
    groups = ((0, frozenset({0, 1, 2})), (1, queues.everyone(n)))
    form = queues.FanoutForm(lambda fanout, n: groups)
    queue = make_queue(form)
    entries = [
        FanoutEntry(0, ("s",), "K", ("K",), None, 0, None, "s"),
        queues.SurvivorsEntry(0, ("s",), "K", ("K",), None, 6, (0, 2, 3, 5), "s"),
        queues.SurvivorsEntry(0, ("s",), "K", None, {1: "a", 4: "b"}, 10, (1, 4), "s"),
        queues.SurvivorsEntry(0, ("s",), "K", ("K",), None, 12, (3,), "s"),
    ]
    for entry in entries:
        queue.push_group(entry, n)
    rng = random.Random(3)
    popped = [queue.pop_entry(rng) for _ in range(len(queue))]
    assert len(queue) == 0
    for entry, receiver in popped:
        assert receiver in entry.copies(n)
    assert sorted(entry.seq_of(receiver) for entry, receiver in popped) == list(range(13))
    copies = [entry.materialize(receiver) for entry, receiver in popped]
    assert sorted((m.seq, m.receiver, m.payload) for m in copies if m.seq >= 6) == [
        (6, 0, ("K",)), (7, 2, ("K",)), (8, 3, ("K",)), (9, 5, ("K",)),
        (10, 1, ("K", "a")), (11, 4, ("K", "b")), (12, 3, ("K",)),
    ]


EMPTY_QUEUE_FACTORIES = dict(
    SCHEDULER_FACTORIES, force_scan=lambda: force_scan(RandomScheduler())
)


@pytest.mark.parametrize("name", sorted(EMPTY_QUEUE_FACTORIES))
def test_every_queue_raises_index_error_when_empty(name):
    """The delivery loop reads an IndexError from ``pop_entry`` as "nothing in
    flight", so every queue raises it -- and before it draws, asks its policy
    or changes anything -- whether never filled or drained."""
    queue = EMPTY_QUEUE_FACTORIES[name]().make_queue()
    rng = random.Random(4)
    for _ in range(2):
        state, snapshot = rng.getstate(), queue.snapshot()
        with pytest.raises(IndexError):
            queue.pop_entry(rng)
        with pytest.raises(IndexError):
            queue.pop(rng)
        assert rng.getstate() == state and queue.snapshot() == snapshot == []
        queue.push_group(_msg(0), 4)
        assert queue.pop_entry(rng) == (_msg(0), 1)
    # The network turns it into the quiescent stop or the deadlock error.
    network = Network(
        ProtocolParams.for_parties(4), scheduler=EMPTY_QUEUE_FACTORIES[name](), seed=0
    )
    assert network.run_to_quiescence() == 0 and network.step() is False
    with pytest.raises(SimulationError, match="protocol deadlock"):
        network.run_until_complete(("absent",))


class TestNetworkPendingView:
    def test_pending_is_send_order_snapshot(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        for index in range(5):
            network.submit(0, 1, ("s",), ("K", index))
        assert [m.seq for m in network.pending] == [0, 1, 2, 3, 4]
        network.step()
        assert len(network.pending) == 4


class TestTracingFastPath:
    @staticmethod
    def _run_trace_free(**kwargs):
        network = Network(ProtocolParams.for_parties(4), seed=0, tracing=False, **kwargs)
        for index in range(10):
            network.submit(0, 1, ("s",), ("K", index))
        network.submit_broadcast(2, ("s",), ("B",))
        while network.step():
            pass
        assert network.step_count == 14  # delivery itself still happened
        return network

    def test_unmetered_disabled_trace_counts_and_keeps_nothing(self):
        network = self._run_trace_free(metering=False, keep_events=True)
        trace = network.trace
        assert not trace.enabled
        assert trace.messages_sent == 0
        assert trace.messages_delivered == 0
        assert trace.messages_dropped == 0
        assert trace.total_shun_events() == 0
        assert trace.events == []
        assert network.message_stats() is None

    def test_metered_disabled_trace_keeps_no_events_and_counts(self):
        network = self._run_trace_free(keep_events=True)
        trace = network.trace
        assert not trace.enabled
        assert trace.events == []
        assert trace.completions == {} and trace.notes == []
        assert trace.messages_sent == trace.messages_delivered == 14
        stats = network.message_stats()
        assert stats["messages_sent"] == trace.messages_sent
        assert stats["messages_delivered"] == trace.messages_delivered
        assert stats["messages_dropped"] == trace.messages_dropped == 0
        assert stats["shun_events"] == trace.total_shun_events() == 0
        assert stats["sent_by_kind"] == {"K": 10, "B": 4}

    def test_disabled_trace_preserves_protocol_outputs(self):
        def run(tracing):
            sim = Simulation(
                params=ProtocolParams.for_parties(7),
                seed=3,
                tracing=tracing,
            )
            return sim.run(("weak_coin",), WeakCommonCoin.factory()).outputs

        assert run(True) == run(False)

    def test_enabled_is_default_and_counts(self):
        network = Network(ProtocolParams.for_parties(4), seed=0)
        network.submit(0, 1, ("s",), ("K",))
        assert network.trace.enabled
        assert network.trace.messages_sent == 1
