"""Fan-out forms: a scheduler filter is defined once, over a whole fan-out.

Every in-tree filter names the receivers of a fan-out it matches from the
fields the copies share; the per-message predicate the reference ``choose``
scans, re-ranks and lone sends read is derived from that definition.  These
properties hold both views to each other -- and to the per-message meaning
each filter had when it was written as a plain ``Message -> bool`` -- on
random fan-outs at n in {4, 7, 16}.  A plain callable is adapted by
evaluating it on each materialised copy, so it may read ``payload`` and
``seq``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.experiments.registry import build_scheduler
from repro.experiments.spec import SchedulerSpec
from repro.net.message import Message
from repro.net.queues import FanoutEntry, KeyedQueue, ScanQueue
from repro.net.scheduler import (
    DelayScheduler,
    TargetedScheduler,
    crossing,
    delay_from_parties,
    delay_to_parties,
)
from repro.scenarios.predicates import compile_message_predicate, match_session
from repro.scenarios.schedulers import (
    ReactiveScheduler,
    rushing,
    session_starvation,
    targeted_delay,
)

SIZES = (4, 7, 16)
ROOTS = ("weak_coin", "aba", "acast")
KINDS = ("ECHO", "READY", "POINT", "ROW")
PATTERNS = (
    ["...", "rec", "*"],
    ["...", "share", {"pid": True}],
    ["weak_coin", "*", "*"],
    ["aba"],
)


def _sessions(n):
    return st.one_of(
        st.sampled_from(ROOTS).map(lambda root: (root,)),
        st.tuples(
            st.sampled_from(ROOTS), st.sampled_from(("share", "rec")), st.integers(0, n - 1)
        ),
    )


@st.composite
def fanouts(draw, n):
    """A random fan-out of an ``n``-party network: broadcast or per-receiver values."""
    sender = draw(st.integers(0, n - 1))
    session = draw(_sessions(n))
    kind = draw(st.sampled_from(KINDS))
    skip = draw(st.sampled_from((None, sender, 0, n - 1)))
    if draw(st.booleans()):
        payload, values = (kind, draw(st.integers(0, 9))), None
    else:
        payload, values = None, draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    base_seq = draw(st.integers(0, 1000))
    return FanoutEntry(sender, session, kind, payload, values, base_seq, skip, session[0])


def _parties(n):
    return st.lists(st.integers(0, n - 1), max_size=n, unique=True)


def _assert_views_agree(form, entry, n, reference):
    """``form.deal`` (one call per fan-out), ``form(message)`` (derived, per
    copy) and the filter's written-out per-message meaning name the same
    label for every copy; the deal covers each receiver once, ascending."""
    dealt = {}
    for label, receivers in form.deal(entry, n):
        assert list(receivers) == sorted(receivers)
        for receiver in receivers:
            assert receiver not in dealt
            dealt[receiver] = label
    assert sorted(dealt) == [r for r in range(n) if r != entry.skip]
    assert form.deal(entry, n) == form.deal(entry, n)  # cached: the same answer
    for receiver, label in dealt.items():
        message = entry.materialize(receiver)
        assert form(message) == label == reference(message), receiver


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIZES).flatmap(lambda n: st.tuples(st.just(n), st.data())))
def test_every_filter_agrees_with_its_fanout_form(case):
    n, data = case
    entry = data.draw(fanouts(n))
    victims, group_a, group_b = (data.draw(_parties(n)) for _ in range(3))
    roots = data.draw(st.lists(st.sampled_from(ROOTS), unique=True))
    kinds = data.draw(st.lists(st.sampled_from(KINDS), unique=True))
    pattern = data.draw(st.sampled_from(PATTERNS))
    budget = data.draw(st.integers(0, 50))

    def touches(m):
        return (
            m.sender in victims or m.receiver in victims
            or m.root in roots or m.kind in kinds
        )

    def crosses(a, b):
        return lambda m: (m.sender in a and m.receiver in b) or (
            m.sender in b and m.receiver in a
        )

    def inside(coalition):
        return lambda m: 0.0 if m.sender in coalition and m.receiver in coalition else 1.0

    def alias(name, **params):
        return build_scheduler(SchedulerSpec(name, params))

    victim = victims[0] if victims else 0
    root = roots[0] if roots else "weak_coin"
    disjoint_b = sorted(set(group_b) - set(group_a))
    cases = [
        (targeted_delay(victims, roots, kinds, budget).should_delay, touches),
        (
            session_starvation(pattern, budget).should_delay,
            lambda m: match_session(pattern, m.session) is not None,
        ),
        # Overlapping groups are allowed here (only the builders refuse them).
        (crossing(group_a, group_b), crosses(group_a, group_b)),
        (rushing(victims).priority, inside(victims)),
        (delay_from_parties(victims).should_delay, lambda m: m.sender in victims),
        (delay_to_parties(victims).should_delay, lambda m: m.receiver in victims),
        (
            alias("isolate_party", victim=victim, max_delay_steps=budget).should_delay,
            lambda m: victim in (m.sender, m.receiver),
        ),
        (alias("favour_parties", favoured=victims).priority, inside(victims)),
        (
            alias(
                "split_brain", group_a=group_a, group_b=disjoint_b, duration=budget
            ).should_delay,
            crosses(group_a, disjoint_b),
        ),
        (
            alias("delay_protocol", root=root, max_delay_steps=budget).should_delay,
            lambda m: m.root == root,
        ),
    ]
    for form, reference in cases:
        _assert_views_agree(form, entry, n, reference)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIZES).flatmap(lambda n: st.tuples(st.just(n), st.data())))
def test_compiled_predicates_and_reactive_ranks_agree_with_their_forms(case):
    n, data = case
    entry = data.draw(fanouts(n))
    specs = []
    for _ in range(3):
        spec = {}
        for key, strategy in (
            ("senders", _parties(n)),
            ("receivers", _parties(n)),
            ("roots", st.lists(st.sampled_from(ROOTS), unique=True)),
            ("kinds", st.lists(st.sampled_from(KINDS), unique=True)),
            ("session", st.sampled_from(PATTERNS)),
        ):
            if data.draw(st.booleans()):
                spec[key] = data.draw(strategy)
        specs.append(spec)

    def meaning(spec):
        def matches(m):
            return (
                m.sender in spec.get("senders", [m.sender])
                and m.receiver in spec.get("receivers", [m.receiver])
                and m.root in spec.get("roots", [m.root])
                and m.kind in spec.get("kinds", [m.kind])
                and (
                    "session" not in spec
                    or match_session(spec["session"], m.session) is not None
                )
            )

        return matches

    for spec in specs:
        _assert_views_agree(compile_message_predicate(spec, n), entry, n, meaning(spec))

    # The reactive rank over those rules: boost beats delay beats neutral.
    scheduler = ReactiveScheduler()
    ops = data.draw(st.lists(st.sampled_from(("boost", "delay")), min_size=3, max_size=3))
    for op, spec in zip(ops, specs):
        scheduler.apply_action({"op": op, "predicate": spec}, n, 0)
    boosts = [meaning(s) for op, s in zip(ops, specs) if op == "boost"]
    delays = [meaning(s) for op, s in zip(ops, specs) if op == "delay"]

    def rank(m):
        if any(rule(m) for rule in boosts):
            return 0
        return 2 if any(rule(m) for rule in delays) else 1

    _assert_views_agree(scheduler._ranking, entry, n, rank)
    for receiver in range(n):
        copy = entry.materialize(receiver)
        assert scheduler.rank(copy) == rank(copy)


def _fields(message):
    return (
        message.sender, message.receiver, message.session, message.payload,
        message.seq, message.kind, message.root,
    )


def test_an_adapted_callable_is_handed_each_exact_copy():
    """A plain ``Message -> bool`` reading ``payload`` and ``seq`` is called
    once per copy, with the Message the eager submit path would have built,
    and the starved class holds exactly the copies it matched."""
    n = 7
    seen = []

    def starved(message):
        seen.append(message)
        return message.seq % 3 == 0 or message.payload[1] > 5

    queue = DelayScheduler(starved).make_queue()
    entry = FanoutEntry(2, ("s", "rec", 1), "P", None, [9, 1, 7, 2, 6, 0, 3], 40, 2, "s")
    queue.push_group(entry, n)
    copies = [entry.materialize(r) for r in range(n) if r != 2]
    assert list(map(_fields, seen)) == list(map(_fields, copies))
    late = [_fields(m) for m in copies if m.seq % 3 == 0 or m.payload[1] > 5]
    assert [_fields(m) for m in queue._queues[1].snapshot()] == late
    assert len(queue._queues[0]) == len(copies) - len(late)


def test_an_adapted_priority_reading_payload_and_seq_matches_the_scan():
    """A plain priority over ``payload`` and ``seq`` ranks each copy of a
    fan-out on its own: the keyed queue delivers what the reference scan does."""
    n = 7
    scheduler = TargetedScheduler(lambda m: (m.payload[1] % 4, -(m.seq % 5)))
    keyed, scan = scheduler.make_queue(), ScanQueue(scheduler)
    assert isinstance(keyed, KeyedQueue)
    control = random.Random(3)
    seq = 0
    for index in range(40):
        if index % 4 == 3:
            message = Message(1, 2, ("s",), ("L", control.randrange(9)), seq)
            keyed.push_group(message, n)
            scan.push_group(message, n)
            seq += 1
            continue
        skip = control.choice((None, 0, 3))
        values = [control.randrange(9) for _ in range(n)]
        entry = FanoutEntry(index % n, ("s",), "V", None, values, seq, skip, "s")
        keyed.push_group(entry, n)
        scan.push_group(entry, n)
        seq += n if skip is None else n - 1
    rng = random.Random(0)
    order = [_fields(keyed.pop(rng)) for _ in range(len(keyed))]
    assert order == [_fields(scan.pop(rng)) for _ in range(len(scan))]
    assert len(order) == seq
