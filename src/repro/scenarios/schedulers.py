"""The hostile scheduler family: predicate-targeted delivery-order attacks.

The asynchronous adversary's second lever (besides corrupting parties) is
message ordering.  These builders compose the primitives of
:mod:`repro.net.scheduler` -- delay-until-starved, partition-then-heal,
priority rushing -- with the scenario predicate language, so a scenario
starves "all reconstruction traffic" or partitions "the two halves" without
naming pids.  All of them ride the existing ``Scheduler`` / ``make_queue``
machinery, so runs remain deterministic per seed and (where the policy maps
onto an indexed queue) deliver at the random queue's speed: every filter
here is a :class:`~repro.net.scheduler.Filter` (or, for a priority, a
:class:`~repro.net.queues.FanoutForm`), asked once per fan-out.

Every builder takes plain JSON-shaped parameters, declared as typed fields
on its registry row (:mod:`repro.schema`).  They are checked and
resolved against a concrete ``n`` by
:func:`~repro.experiments.registry.resolve_scheduler` -- called by the
scenario runtime and by a campaign cell's executor before the build -- so a
party parameter takes any party selector, and a string where a list goes is
refused.  The builders register themselves in
:data:`repro.experiments.registry.SCHEDULERS`, so campaigns can name them
with or without a scenario.  So do the four legacy names (``isolate_party``,
``delay_protocol``, ``favour_parties``, ``split_brain``): each is one alias
row over its target, taking the alias's own parameter names.
"""

from __future__ import annotations

import json
import random
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro import schema
from repro.experiments.registry import SCHEDULERS, STEP_BUDGET
from repro.net.message import Message
from repro.net.queues import ClassRankQueue, DeliveryQueue, FanoutForm, everyone
from repro.net.scheduler import (
    NOBODY,
    DelayScheduler,
    Filter,
    Scheduler,
    TargetedScheduler,
    coalition_first,
    partition_then_heal,
    targeting,
)
from repro.scenarios.predicates import compile_message_predicate, match_session


def targeted_delay(
    victims: Optional[Sequence[int]] = None,
    roots: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
    max_delay_steps: Optional[int] = None,
) -> Scheduler:
    """Starve messages touching ``victims`` (or matching ``roots``/``kinds``).

    A message is delayed while anything else is pending when its sender *or*
    receiver is a victim, its root protocol is listed, or its payload kind is
    listed (any listed criterion suffices).  ``max_delay_steps`` bounds the
    starvation so the run remains a valid asynchronous execution even when
    the targeted traffic is all that keeps the protocol alive.
    """
    return DelayScheduler(targeting(victims or (), roots or (), kinds or ()), max_delay_steps)


def session_starvation(
    pattern: Sequence[Any], max_delay_steps: Optional[int] = None
) -> Scheduler:
    """Starve every message addressed to a session matching ``pattern``.

    The classic anti-progress attack against layered protocols: hold back one
    whole sub-protocol layer (e.g. ``["...", "rec", "*"]`` -- all SVSS
    reconstruction sessions) until everything else has drained or the delay
    budget expires.
    """
    pattern = list(pattern)  # checked by the row's SessionPattern field

    def receivers(fanout: Any, n: int) -> frozenset:
        return everyone(n) if match_session(pattern, fanout.session) is not None else NOBODY

    return DelayScheduler(Filter(receivers), max_delay_steps)


def rushing(coalition: Sequence[int]) -> Scheduler:
    """Deliver intra-``coalition`` traffic first (the rushing adversary).

    The coalition hears every protocol phase before anyone else, maximising
    the information advantage a Byzantine coalition can extract -- the
    scheduling half of a rushing attack.
    """
    return TargetedScheduler(coalition_first(coalition))


def message_filter_delay(
    predicate: Mapping[str, Any],
    n: int,
    max_delay_steps: Optional[int] = None,
) -> Scheduler:
    """Starve messages matching a full message-predicate spec.

    The most general member of the family: ``predicate`` is a JSON message
    predicate (senders / receivers / roots / kinds / session), compiled
    against ``n`` (which must therefore be supplied explicitly in the params).
    """
    compiled = compile_message_predicate(predicate, n)
    return DelayScheduler(compiled, max_delay_steps)


class _PriorityRule:
    """One live boost/delay rule of a :class:`ReactiveScheduler`."""

    __slots__ = ("predicate", "expires_at", "key")

    def __init__(
        self,
        predicate: Filter,
        expires_at: Optional[int],
        key: str,
    ) -> None:
        self.predicate = predicate
        self.expires_at = expires_at
        self.key = key


class _Ranking(FanoutForm):
    """The reactive rank of every copy of a fan-out: one call per live rule.

    Groups are first-match, so listing the boosts (class 0), then the delays
    (class 2), then everyone (class 1) is "boost beats delay".
    """

    __slots__ = ("boosts", "delays")

    def __init__(self, boosts: List[_PriorityRule], delays: List[_PriorityRule]) -> None:
        super().__init__()
        self.boosts = boosts
        self.delays = delays

    def groups(self, fanout: Any, n: int) -> Tuple[Tuple[Any, frozenset], ...]:
        groups = [(0, rule.predicate.receivers(fanout, n)) for rule in self.boosts]
        groups += [(2, rule.predicate.receivers(fanout, n)) for rule in self.delays]
        groups.append((1, everyone(n)))
        return tuple(groups)


class ReactiveScheduler(Scheduler):
    """A scheduler the scenario director reprioritises mid-run.

    Until the first action arrives it is exactly the uniform random
    scheduler (one ``randrange``-equivalent draw per delivery).  Each applied
    action installs a *boost* or *delay* rule -- a compiled message
    predicate, optionally expiring after a step budget -- and from then on
    every delivery picks uniformly among the best-ranked pending messages
    (boosted < neutral < delayed).  Delayed traffic is still delivered once
    nothing better is pending (or the rule expires), so runs remain valid
    asynchronous executions.

    ``make_queue`` pins a three-class
    :class:`~repro.net.queues.ClassRankQueue`: pending messages are
    ranked once at submit time and kept in one send-order block list per
    rank, so a delivery is one draw plus a ``list.pop`` instead of an
    O(m * rules) rescan; when the rule set changes (installs, clears,
    expiries -- tracked by ``rules_version``) the queue re-ranks lazily, in
    one O(m) pass, on its next pop.
    The ranking is a fan-out form over the rules' compiled filters, so a
    fan-out is ranked with one evaluation per rule and queued as ``(entry,
    receiver)`` slots, like a plain trial's: no Message is built per copy,
    by the queue or by the director driving it (a director is woken at
    steps and never sees a message).  :meth:`rank` is the per-message form
    of the same ranking.
    Determinism is untouched: decisions are pure functions of the (seeded)
    event stream and the rule set, so trials stay byte-identical per seed,
    traced or untraced -- and byte-identical to the reference
    :meth:`choose` scan (``tests/scenarios/test_scenario_robustness.py``
    diffs full delivery orders against a ``force_scan`` run).
    """

    #: Marks this scheduler as accepting director ``scheduler_actions``.
    supports_reactions = True

    def __init__(self) -> None:
        self._boosts: List[_PriorityRule] = []
        self._delays: List[_PriorityRule] = []
        #: Count of actions that changed the rule set (audit/testing aid).
        self.actions_applied = 0
        #: Bumped whenever the *effective* rule set changes (rule installed,
        #: cleared or expired); the reactive queue re-ranks on mismatch.
        self.rules_version = 0
        #: Earliest step at which any live rule lapses (None = no expiries).
        self._next_expiry: Optional[int] = None
        self._ranking = _Ranking(self._boosts, self._delays)

    def make_queue(self) -> DeliveryQueue:
        return ClassRankQueue(self._ranking, 3, self.version_at)

    # ------------------------------------------------------------------
    def apply_action(
        self,
        action: Mapping[str, Any],
        n: int,
        step: int,
        event_pid: Optional[int] = None,
    ) -> Optional[str]:
        """Apply one JSON scheduler action (validated at spec time).

        Returns a human-readable description when the rule set changed, or
        ``None`` when the action was a no-op (duplicate rule -- its expiry is
        refreshed -- or an ``"event"`` placeholder with no event party).
        """
        op = action["op"]
        if op == "clear":
            if not self._boosts and not self._delays:
                return None
            self._boosts.clear()
            self._delays.clear()
            self.actions_applied += 1
            self.rules_version += 1
            self._next_expiry = None
            return "clear: all priority rules dropped"
        spec = dict(action.get("predicate", {}))
        for key in ("senders", "receivers"):
            if spec.get(key) == "event":
                if event_pid is None:
                    return None
                spec[key] = [event_pid]
        expires = action.get("expires")
        expires_at = None if expires is None else step + int(expires)
        key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        rules = self._boosts if op == "boost" else self._delays
        for rule in rules:
            if rule.key == key:
                # Same predicate fired again: refresh the expiry window
                # instead of stacking duplicates, keeping the rule set (and
                # the ranking cost) bounded by the distinct predicates a
                # scenario can name.  Membership is unchanged, so the
                # version stays put; only the expiry horizon moves.
                rule.expires_at = expires_at
                self._recompute_next_expiry()
                return None
        rules.append(_PriorityRule(compile_message_predicate(spec, n), expires_at, key))
        self.actions_applied += 1
        self.rules_version += 1
        if expires_at is not None and (
            self._next_expiry is None or expires_at < self._next_expiry
        ):
            self._next_expiry = expires_at
        window = "" if expires is None else f" for {int(expires)} steps"
        return f"{op} {key}{window}"

    # ------------------------------------------------------------------
    def _recompute_next_expiry(self) -> None:
        expiries = [
            rule.expires_at
            for rule in self._boosts + self._delays
            if rule.expires_at is not None
        ]
        self._next_expiry = min(expiries) if expiries else None

    def expire(self, step: int) -> None:
        """Drop rules whose window lapsed before ``step`` (O(1) when none)."""
        next_expiry = self._next_expiry
        if next_expiry is None or step < next_expiry:
            return
        for rules in (self._boosts, self._delays):
            rules[:] = [
                rule for rule in rules
                if rule.expires_at is None or step < rule.expires_at
            ]
        self.rules_version += 1
        self._recompute_next_expiry()

    def version_at(self, step: int) -> int:
        """``rules_version`` once the rules lapsed by ``step`` are dropped."""
        self.expire(step)
        return self.rules_version

    def rank(self, message: Message) -> int:
        """0 = boosted, 1 = neutral, 2 = delayed (boost beats delay)."""
        return self._ranking(message)

    def choose(self, pending: Sequence[Message], rng: random.Random, step: int) -> int:
        """Reference O(pending) scan; the indexed queue must match it exactly."""
        self.expire(step)
        if not self._boosts and not self._delays:
            return rng.randrange(len(pending))
        best_rank = 3
        best: List[int] = []
        for index, message in enumerate(pending):
            rank = self.rank(message)
            if rank < best_rank:
                best_rank = rank
                best = [index]
            elif rank == best_rank:
                best.append(index)
        return best[rng.randrange(len(best))]


def reactive() -> Scheduler:
    """The director-driven scheduler (see :class:`ReactiveScheduler`)."""
    return ReactiveScheduler()


#: The two groups of a partition and how long it lasts.
GROUPS = {"group_a": schema.PartySelector(), "group_b": schema.PartySelector(),
          "duration": schema.Int(0)}
#: The hostile family's rows, then the legacy names: one row each over its
#: target, under the alias's own parameter names (``build_scheduler``
#: prefixes an error with the alias).
for _name, _builder, _fields in [
    ("targeted_delay", targeted_delay, {
        "victims": schema.PartySelector(null=True),
        "roots": schema.ListOf(schema.Str(), null=True),
        "kinds": schema.ListOf(schema.Str(), null=True),
        "max_delay_steps": STEP_BUDGET,
    }),
    ("reactive", reactive, {}),
    ("session_starvation", session_starvation,
     {"pattern": schema.SessionPattern(), "max_delay_steps": STEP_BUDGET}),
    ("partition_heal", partition_then_heal, GROUPS),
    ("rushing", rushing, {"coalition": schema.PartySelector()}),
    ("message_filter_delay", message_filter_delay,
     {"predicate": schema.JsonObject(), "n": schema.Int(1), "max_delay_steps": STEP_BUDGET}),
    ("isolate_party",
     lambda victim, max_delay_steps=None: targeted_delay([victim], None, None, max_delay_steps),
     {"victim": schema.Pid(), "max_delay_steps": STEP_BUDGET}),
    ("delay_protocol",
     lambda root, max_delay_steps=None: targeted_delay(None, [root], None, max_delay_steps),
     {"root": schema.Name(), "max_delay_steps": STEP_BUDGET}),
    ("favour_parties", lambda favoured: rushing(favoured), {"favoured": schema.PartySelector()}),
    ("split_brain", partition_then_heal, GROUPS),
]:
    SCHEDULERS.add(_name, _builder, fields=_fields)
