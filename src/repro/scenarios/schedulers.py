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

Every builder takes plain JSON-shaped parameters.  Party parameters are
resolved against a concrete ``n`` by :func:`resolve_scheduler` --
called by the scenario runtime and by a campaign cell's executor before the
build -- so they take any party selector, and a string where a list goes is
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

from repro.errors import ExperimentError
from repro.experiments.registry import SCHEDULERS
from repro.experiments.spec import SchedulerSpec, is_int
from repro.net.message import Message
from repro.net.queues import ClassRankQueue, DeliveryQueue, FanoutForm, everyone
from repro.net.scheduler import (
    NOBODY,
    Filter,
    Scheduler,
    TargetedScheduler,
    coalition_first,
    partition_then_heal,
    starve_matching,
    targeting,
)
from repro.scenarios.predicates import (
    compile_message_predicate,
    match_session,
    resolve_parties,
    validate_session_pattern,
)

#: Scheduler-parameter keys holding party selectors, resolved against ``n``
#: before the builder runs.
SELECTOR_PARAMS = ("victims", "group_a", "group_b", "coalition", "parties", "favoured")
#: Scheduler-parameter keys holding a list of names (a string there would be
#: read as its characters).
LIST_PARAMS = ("roots", "kinds", "pattern")


def resolve_scheduler(spec: SchedulerSpec, n: int) -> SchedulerSpec:
    """``spec`` with its party-selector params resolved to explicit pid lists.

    ``victim`` names one party and must be a pid in ``0..n-1``; a string
    where a list of names goes is refused.  Raises
    :class:`~repro.errors.ExperimentError` naming the scheduler and the param.
    """

    def refuse(key: str, problem: Any) -> ExperimentError:
        return ExperimentError(f"scheduler {spec.scheduler!r}: param {key!r}: {problem}")

    params = dict(spec.params)
    for key in SELECTOR_PARAMS:
        if key in params:
            try:
                params[key] = resolve_parties(params[key], n)
            except ExperimentError as exc:
                raise refuse(key, exc) from None
    victim = params.get("victim")
    if "victim" in params and not (is_int(victim) and 0 <= victim < n):
        raise refuse("victim", f"must be one party id in 0..{n - 1}, got {victim!r}")
    for key in LIST_PARAMS:
        if isinstance(params.get(key), str):
            raise refuse(key, f"must be a list, got {params[key]!r}")
    return SchedulerSpec(spec.scheduler, params)


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
    return starve_matching(
        targeting(victims or (), roots or (), kinds or ()), max_delay_steps
    )


def session_starvation(
    pattern: Sequence[Any], max_delay_steps: Optional[int] = None
) -> Scheduler:
    """Starve every message addressed to a session matching ``pattern``.

    The classic anti-progress attack against layered protocols: hold back one
    whole sub-protocol layer (e.g. ``["...", "rec", "*"]`` -- all SVSS
    reconstruction sessions) until everything else has drained or the delay
    budget expires.
    """
    pattern = list(pattern)
    validate_session_pattern(pattern)

    def receivers(fanout: Any, n: int) -> frozenset:
        return everyone(n) if match_session(pattern, fanout.session) is not None else NOBODY

    return starve_matching(Filter(receivers), max_delay_steps)


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
    return starve_matching(compiled, max_delay_steps)


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


SCHEDULERS.add("targeted_delay", targeted_delay)
SCHEDULERS.add("reactive", reactive)
SCHEDULERS.add("session_starvation", session_starvation)
SCHEDULERS.add("partition_heal", partition_then_heal)
SCHEDULERS.add("rushing", rushing)
SCHEDULERS.add("message_filter_delay", message_filter_delay)

# The legacy names: one row each over its target, under the alias's own
# parameter names (``build_scheduler`` prefixes an error with the alias).
SCHEDULERS.add(
    "isolate_party",
    lambda victim, max_delay_steps=None: targeted_delay(
        victims=[victim], max_delay_steps=max_delay_steps
    ),
)
SCHEDULERS.add(
    "delay_protocol",
    lambda root, max_delay_steps=None: targeted_delay(
        roots=[root], max_delay_steps=max_delay_steps
    ),
)
SCHEDULERS.add("favour_parties", lambda favoured: rushing(favoured))
SCHEDULERS.add("split_brain", partition_then_heal)
