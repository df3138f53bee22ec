"""Declarative adversarial scenario specifications.

A :class:`ScenarioSpec` is to an attack what a
:class:`~repro.experiments.spec.CampaignSpec` is to an experiment: a plain
JSON-serialisable description, with every executable piece named through a
registry string and every target described by a predicate
(:mod:`repro.scenarios.predicates`).  A scenario composes four orthogonal
ingredients:

* a **corruption plan** -- static corruptions applied before the run plus
  *adaptive* rules that corrupt parties mid-run when trigger events fire,
  all under an explicit corruption budget;
* a **fault timeline** -- crash / silence / equivocate / recover / restart /
  tamper / reprioritize transitions triggered at delivery counts or protocol
  phase events;
* a **hostile scheduler** -- one of the adversarial scheduler family
  (:mod:`repro.scenarios.schedulers`) or any registered scheduler;
* a **scale preset** -- a named ``(n, prime)`` operating point
  (:mod:`repro.scenarios.presets`).

Specs deliberately contain no live objects, so scenarios serialise losslessly
to JSON, ship to campaign workers, and diff cleanly in review::

    spec = get_scenario("dealer-ambush")
    same = ScenarioSpec.from_dict(spec.to_dict())
    assert same == spec
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro import schema
from repro.errors import ExperimentError
from repro.experiments.spec import BehaviorSpec, JsonSpec, SchedulerSpec
from repro.scenarios.predicates import validate_message_predicate, validate_party_selector
from repro.scenarios.presets import preset_for

#: Valid adaptive-rule trigger events.
RULE_EVENTS = ("session_open", "complete", "step")
#: Valid fault-timeline transitions.
TRANSITIONS = (
    "crash",
    "silence",
    "equivocate",
    "recover",
    "restart",
    "tamper",
    "reprioritize",
)
#: Timeline transitions that corrupt the target (and therefore spend budget).
CORRUPTING_TRANSITIONS = ("crash", "equivocate", "tamper")

#: Scheduler-action operations a reactive scheduler understands.
SCHEDULER_ACTION_OPS = ("boost", "delay", "clear")

#: The fields of a tamper spec: channel matches (all optional, conjunctive)
#: and payload mutations (at least one required).
TAMPER_FIELDS = {
    "kinds": schema.ListOf(schema.Str()),
    "receivers": schema.PartySelector(),
    "session": schema.SessionPattern(),
    "offset": schema.Int(nonzero=True),
    "rewrite_kind": schema.Name(),
    "drop_fraction": schema.Real(0, 1, hi_closed=True),
}
#: Payload-mutation keys of a tamper spec (at least one required).
TAMPER_MUTATION_KEYS = frozenset({"offset", "rewrite_kind", "drop_fraction"})
#: The fields of a boost / delay scheduler action (``clear`` takes only ``op``).
ACTION_FIELDS = {
    "op": schema.OneOf(SCHEDULER_ACTION_OPS),
    "predicate": schema.JsonObject(),
    "expires": schema.Int(1, null=True),
}
#: The fields of a timeline entry's phase trigger (``on``).
TRIGGER_FIELDS = {
    "event": schema.OneOf(("session_open", "complete")),
    "pattern": schema.SessionPattern(),
    "count": schema.Int(1),
}


def _check(
    what: str, table: schema.Fields, values: Mapping[str, Any], n: Optional[int] = None,
    closed: bool = False, label: str = "{}",
) -> None:
    """Raise :class:`ExperimentError` for the first of ``values`` ``table`` refuses."""
    problem = schema.problem(table, values, n, label, closed)
    if problem is not None:
        raise ExperimentError(f"{what}: {problem}")


def validate_tamper(tamper: Any, n: Optional[int] = None) -> None:
    """Check a tamper spec at ``n`` (None: shape only); raise :class:`ExperimentError`.

    A tamper spec selects outgoing channels (``kinds``, ``receivers``,
    ``session``: all optional, all must match) and applies at least one
    mutation: ``offset`` (added to every integer field element, mod the
    field prime), ``rewrite_kind`` (the new payload kind tag) or
    ``drop_fraction`` (of matched messages, dropped deterministically).
    """
    _check("tamper spec", TAMPER_FIELDS, tamper, n, closed=True, label="param {!r}")
    require_tamper_mutation(tamper)


def require_tamper_mutation(tamper: Mapping[str, Any]) -> None:
    """The one rule of a tamper spec that spans its fields: it mutates."""
    if not TAMPER_MUTATION_KEYS.intersection(tamper):
        raise ExperimentError(
            "tamper spec needs at least one mutation: "
            + ", ".join(sorted(TAMPER_MUTATION_KEYS))
        )


def validate_scheduler_actions(actions: Any, has_event_pid: bool) -> None:
    """Shape-check a ``scheduler_actions`` list; raise :class:`ExperimentError`.

    Each action is ``{"op": "boost" | "delay", "predicate": {...},
    "expires": steps?}`` or ``{"op": "clear"}``.  The predicate is a message
    predicate (:func:`~repro.scenarios.predicates.compile_message_predicate`)
    whose ``senders`` / ``receivers`` may also be the placeholder string
    ``"event"``, substituted at fire time with the party the triggering phase
    event captured -- only meaningful on phase-triggered entries
    (``has_event_pid``).
    """
    if not isinstance(actions, (list, tuple)) or not actions:
        raise ExperimentError("scheduler_actions must be a non-empty list")
    for action in actions:
        if not isinstance(action, Mapping):
            raise ExperimentError(f"scheduler action must be a mapping, got {action!r}")
        if action.get("op") == "clear":
            if set(action) - {"op"}:
                raise ExperimentError('a "clear" scheduler action takes no other keys')
            continue
        values = {"op": None, "predicate": None, **action}
        _check("scheduler action", ACTION_FIELDS, values, closed=True)
        probe = dict(action["predicate"])
        for key in ("senders", "receivers"):
            if probe.get(key) == "event":
                if not has_event_pid:
                    raise ExperimentError(
                        f'scheduler-action predicate {key}="event" needs a phase '
                        f"trigger (an entry fired by session_open/complete)"
                    )
                probe[key] = [0]
        validate_message_predicate(probe)


@dataclass
class StaticCorruption(JsonSpec):
    """A corruption applied before the run starts.

    Attributes:
        select: party selector naming the corrupted parties.
        behavior: the behaviour (a :class:`BehaviorSpec`) they run.
    """

    select: Any
    behavior: BehaviorSpec

    FIELDS = {"select": schema.PartySelector(), "behavior": schema.Nested(BehaviorSpec)}
    NESTED = {"behavior": BehaviorSpec}

    def validate(self) -> None:
        _check("static corruption", self.FIELDS, vars(self))


@dataclass
class AdaptiveRule(JsonSpec):
    """One trigger -> corruption rule of an adaptive adversary.

    Attributes:
        on: trigger event -- ``"session_open"`` / ``"complete"`` (protocol
            phase events carrying a session) or ``"step"`` (delivery count).
        behavior: behaviour installed on the corrupted target(s); ``None``
            makes the rule scheduler-only (it must then carry
            ``scheduler_actions``).
        pattern: session pattern the event's session must match (session
            events only); a ``{"pid": true}`` component captures the party id
            embedded in the session.
        at_step: delivery count threshold (``"step"`` trigger only).
        target: who gets corrupted -- ``"captured"`` (the pid captured by the
            pattern), ``"subject"`` (the party the event happened at), or a
            party selector.  Ignored for scheduler-only rules.
        max_firings: cap on successful firings (``None`` = only the budget
            limits the rule).
        scheduler_actions: reactive-scheduler reprioritisations applied each
            time the rule fires (see :func:`validate_scheduler_actions`);
            requires the scenario to run a reactive scheduler.
    """

    on: str
    behavior: Optional[BehaviorSpec] = None
    pattern: Optional[List[Any]] = None
    at_step: Optional[int] = None
    target: Any = "captured"
    max_firings: Optional[int] = None
    scheduler_actions: Optional[List[Dict[str, Any]]] = None

    FIELDS = {
        "on": schema.OneOf(RULE_EVENTS),
        "pattern": schema.SessionPattern(null=True),
        "at_step": schema.Int(0, null=True),
        "max_firings": schema.Int(1, null=True),
        "behavior": schema.Nested(BehaviorSpec, null=True),
    }
    NESTED = {"behavior": BehaviorSpec}

    def validate(self) -> None:
        _check("adaptive rule", self.FIELDS, vars(self))
        if self.behavior is None and not self.scheduler_actions:
            raise ExperimentError(
                "adaptive rule needs a behavior and/or scheduler_actions"
            )
        if self.on == "step":
            if self.at_step is None:
                raise ExperimentError("step-triggered rules need a non-negative at_step")
            if self.behavior is not None and self.target in ("captured", "subject"):
                raise ExperimentError(
                    "step-triggered rules have no event party; target must be a selector"
                )
        elif self.pattern is None:
            raise ExperimentError(f"{self.on!r}-triggered rules need a session pattern")
        elif (
            self.behavior is not None
            and self.target == "captured"
            and {"pid": True} not in self.pattern
        ):
            raise ExperimentError(
                'target "captured" needs a {"pid": true} component in the pattern'
            )
        if self.behavior is not None and self.target not in ("captured", "subject"):
            validate_party_selector(self.target)
        if self.scheduler_actions is not None:
            validate_scheduler_actions(
                self.scheduler_actions, has_event_pid=self.on != "step"
            )


@dataclass
class CorruptionPlan(JsonSpec):
    """The scenario's corruption strategy: static set + adaptive rules + budget.

    Attributes:
        budget: maximum number of parties this scenario may ever corrupt
            (static + adaptive + corrupting timeline transitions); ``None``
            means "the resilience bound ``t`` of the concrete run".  The
            effective budget is always clamped to ``t``.
        static: corruptions applied before the run.
        adaptive: mid-run corruption rules (see :class:`AdaptiveRule`).
    """

    budget: Optional[int] = None
    static: List[StaticCorruption] = field(default_factory=list)
    adaptive: List[AdaptiveRule] = field(default_factory=list)

    FIELDS = {"budget": schema.Int(0, null=True)}
    NESTED = {"static": [StaticCorruption], "adaptive": [AdaptiveRule]}

    def validate(self) -> None:
        _check("corruption plan", self.FIELDS, vars(self))
        for entry in self.static:
            entry.validate()
        for rule in self.adaptive:
            rule.validate()


@dataclass
class FaultEvent(JsonSpec):
    """One fault-timeline transition.

    Attributes:
        transition: ``"crash"``, ``"silence"``, ``"equivocate"``,
            ``"recover"``, ``"restart"``, ``"tamper"`` or ``"reprioritize"``.
            Crash, equivocate and tamper corrupt the target (spending budget,
            irreversibly for accounting purposes); silence only severs the
            target's outgoing channel; recover restores a silenced party for
            free or restarts a corrupted one; restart rejoins a corrupted
            party with fresh protocol state (refunding nothing);
            reprioritize touches no party and only applies its
            ``scheduler_actions``.
        select: party selector naming the affected parties (ignored by
            ``reprioritize``).
        at_step: fire after this many deliveries, or
        on: fire on a phase event: ``{"event": "session_open" | "complete",
            "pattern": [...], "count": k?}`` -- with ``count`` the entry fires
            on the k-th matching event (default 1), turning trace statistics
            like "8 sharings have completed" into triggers.
        offset: perturbation offset for ``equivocate`` (forwarded to the
            equivocating behaviour).
        tamper: tamper spec for ``tamper`` transitions (see
            :func:`validate_tamper`).
        scheduler_actions: reactive-scheduler reprioritisations applied when
            the entry fires (see :func:`validate_scheduler_actions`).
    """

    transition: str
    select: Any
    at_step: Optional[int] = None
    on: Optional[Dict[str, Any]] = None
    offset: int = 1
    tamper: Optional[Dict[str, Any]] = None
    scheduler_actions: Optional[List[Dict[str, Any]]] = None

    FIELDS = {
        "transition": schema.OneOf(TRANSITIONS),
        "select": schema.PartySelector(),
        "at_step": schema.Int(0, null=True),
        "on": schema.JsonObject(null=True),
        "offset": schema.Int(),
    }

    def validate(self) -> None:
        _check("timeline event", self.FIELDS, vars(self))
        if (self.at_step is None) == (self.on is None):
            raise ExperimentError(
                "timeline event needs exactly one trigger: at_step or on"
            )
        if self.on is not None:
            values = {"event": None, "pattern": None, **self.on}
            _check('timeline "on"', TRIGGER_FIELDS, values, closed=True)
        if self.transition == "tamper":
            if self.tamper is None:
                raise ExperimentError('a "tamper" transition needs a tamper spec')
            validate_tamper(self.tamper)
        elif self.tamper is not None:
            raise ExperimentError(
                f'a tamper spec is only valid on "tamper" transitions, '
                f"not {self.transition!r}"
            )
        if self.scheduler_actions is not None:
            validate_scheduler_actions(
                self.scheduler_actions, has_event_pid=self.on is not None
            )
        if self.transition == "reprioritize" and not self.scheduler_actions:
            raise ExperimentError(
                'a "reprioritize" transition needs scheduler_actions'
            )


@dataclass
class ScenarioSpec(JsonSpec):
    """A complete, named adversarial scenario.

    Attributes:
        name: registry name (kebab-case by convention).
        description: one-line human description shown by the CLI.
        protocol: default runner name (``repro.experiments.registry.RUNNERS``).
        params: default runner keyword arguments.  The special value
            ``"alternating"`` / ``"half"`` for an ``inputs`` param expands to
            per-party binary inputs at run time (scenarios cannot know ``n``).
        scale: optional scale preset name (:mod:`repro.scenarios.presets`)
            providing the default ``n`` and the matched field prime.
        corruption: the corruption plan.
        timeline: the fault timeline.
        scheduler: optional hostile scheduler spec.
    """

    name: str
    description: str = ""
    protocol: str = "weak_coin"
    params: Dict[str, Any] = field(default_factory=dict)
    scale: Optional[str] = None
    corruption: CorruptionPlan = field(default_factory=CorruptionPlan)
    timeline: List[FaultEvent] = field(default_factory=list)
    scheduler: Optional[SchedulerSpec] = None

    ALWAYS = ("protocol",)
    NOUN = "scenario"
    FIELDS = {
        "name": schema.Name(),
        "protocol": schema.Name(),
        "params": schema.JsonObject(),
        "scale": schema.Name(null=True),
        "scheduler": schema.Nested(SchedulerSpec, null=True),
    }
    NESTED = {
        "corruption": CorruptionPlan, "timeline": [FaultEvent], "scheduler": SchedulerSpec,
    }

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ExperimentError`."""
        _check(f"scenario {self.name!r}", self.FIELDS, vars(self))
        preset_for(self.scale)  # raises on unknown preset names
        self.corruption.validate()
        for event in self.timeline:
            event.validate()
        uses_actions = any(event.scheduler_actions for event in self.timeline) or any(
            rule.scheduler_actions for rule in self.corruption.adaptive
        )
        if uses_actions and self.scheduler is None:
            # The director re-checks at attach time (a custom reactive
            # scheduler may be registered under any name); a spec with no
            # scheduler at all can never satisfy its actions, so fail early.
            raise ExperimentError(
                f"scenario {self.name!r} declares scheduler_actions but names "
                f'no scheduler; use the "reactive" scheduler'
            )
