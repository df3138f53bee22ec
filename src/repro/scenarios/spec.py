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

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import ExperimentError
from repro.experiments.spec import BehaviorSpec, SchedulerSpec
from repro.scenarios.predicates import (
    validate_message_predicate,
    validate_party_selector,
    validate_session_pattern,
)
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

#: Channel-matching keys of a tamper spec (all optional, conjunctive).
TAMPER_MATCH_KEYS = frozenset({"kinds", "receivers", "session"})
#: Payload-mutation keys of a tamper spec (at least one required).
TAMPER_MUTATION_KEYS = frozenset({"offset", "rewrite_kind", "drop_fraction"})


def validate_tamper(tamper: Any) -> None:
    """Shape-check a tamper spec; raise :class:`ExperimentError`.

    A tamper spec selects outgoing channels (``kinds`` -- payload kind tags,
    ``receivers`` -- a party selector, ``session`` -- a session pattern; all
    optional, all must match) and applies at least one mutation: ``offset``
    (add to every integer field element, mod the field prime),
    ``rewrite_kind`` (replace the payload kind tag) or ``drop_fraction``
    (deterministically drop that fraction of matched messages).
    """
    if not isinstance(tamper, Mapping):
        raise ExperimentError(f"tamper spec must be a mapping, got {tamper!r}")
    unknown = set(tamper) - TAMPER_MATCH_KEYS - TAMPER_MUTATION_KEYS
    if unknown:
        raise ExperimentError(
            f"unknown tamper keys: {', '.join(sorted(unknown))}"
        )
    if not TAMPER_MUTATION_KEYS.intersection(tamper):
        raise ExperimentError(
            "tamper spec needs at least one mutation: "
            + ", ".join(sorted(TAMPER_MUTATION_KEYS))
        )
    if "kinds" in tamper:
        kinds = tamper["kinds"]
        if not isinstance(kinds, (list, tuple)) or not all(
            isinstance(kind, str) for kind in kinds
        ):
            raise ExperimentError("tamper kinds must be a list of strings")
    if "receivers" in tamper:
        validate_party_selector(tamper["receivers"])
    if "session" in tamper:
        validate_session_pattern(tamper["session"])
    if "offset" in tamper:
        offset = tamper["offset"]
        if type(offset) is not int or offset == 0:
            raise ExperimentError(f"tamper offset must be non-zero (an integer), got {offset!r}")
    if "rewrite_kind" in tamper and (
        not isinstance(tamper["rewrite_kind"], str) or not tamper["rewrite_kind"]
    ):
        raise ExperimentError("tamper rewrite_kind must be a non-empty string")
    if "drop_fraction" in tamper:
        fraction = tamper["drop_fraction"]
        if type(fraction) not in (int, float) or not 0.0 < fraction <= 1.0:
            raise ExperimentError(
                f"tamper drop_fraction must be a number in (0, 1], got {fraction!r}"
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
        op = action.get("op")
        if op not in SCHEDULER_ACTION_OPS:
            raise ExperimentError(
                f"scheduler action op must be one of {SCHEDULER_ACTION_OPS}, got {op!r}"
            )
        if op == "clear":
            if set(action) - {"op"}:
                raise ExperimentError('a "clear" scheduler action takes no other keys')
            continue
        if set(action) - {"op", "predicate", "expires"}:
            raise ExperimentError(
                f"unknown scheduler action keys: "
                f"{', '.join(sorted(set(action) - {'op', 'predicate', 'expires'}))}"
            )
        predicate = action.get("predicate")
        if not isinstance(predicate, Mapping):
            raise ExperimentError(f'a "{op}" scheduler action needs a predicate mapping')
        probe = dict(predicate)
        for key in ("senders", "receivers"):
            if probe.get(key) == "event":
                if not has_event_pid:
                    raise ExperimentError(
                        f'scheduler-action predicate {key}="event" needs a phase '
                        f"trigger (an entry fired by session_open/complete)"
                    )
                probe[key] = [0]
        validate_message_predicate(probe)
        expires = action.get("expires")
        if expires is not None and int(expires) < 1:
            raise ExperimentError("scheduler action expires must be >= 1 when given")


@dataclass
class StaticCorruption:
    """A corruption applied before the run starts.

    Attributes:
        select: party selector naming the corrupted parties.
        behavior: the behaviour (a :class:`BehaviorSpec`) they run.
    """

    select: Any
    behavior: BehaviorSpec

    def __post_init__(self) -> None:
        if isinstance(self.behavior, Mapping):
            self.behavior = BehaviorSpec.from_dict(self.behavior)

    def validate(self) -> None:
        validate_party_selector(self.select)
        if not self.behavior.behavior:
            raise ExperimentError("static corruption needs a behavior name")

    def to_dict(self) -> Dict[str, Any]:
        return {"select": self.select, "behavior": self.behavior.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StaticCorruption":
        return cls(select=data["select"], behavior=BehaviorSpec.from_dict(data["behavior"]))


@dataclass
class AdaptiveRule:
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

    def __post_init__(self) -> None:
        if isinstance(self.behavior, Mapping):
            self.behavior = BehaviorSpec.from_dict(self.behavior)

    def validate(self) -> None:
        if self.on not in RULE_EVENTS:
            raise ExperimentError(
                f"adaptive rule event must be one of {RULE_EVENTS}, got {self.on!r}"
            )
        if self.behavior is None and not self.scheduler_actions:
            raise ExperimentError(
                "adaptive rule needs a behavior and/or scheduler_actions"
            )
        if self.on == "step":
            if self.at_step is None or int(self.at_step) < 0:
                raise ExperimentError("step-triggered rules need a non-negative at_step")
            if self.behavior is not None and self.target in ("captured", "subject"):
                raise ExperimentError(
                    "step-triggered rules have no event party; target must be a selector"
                )
        else:
            if self.pattern is None:
                raise ExperimentError(f"{self.on!r}-triggered rules need a session pattern")
            validate_session_pattern(self.pattern)
            if (
                self.behavior is not None
                and self.target == "captured"
                and {"pid": True} not in self.pattern
            ):
                raise ExperimentError(
                    'target "captured" needs a {"pid": true} component in the pattern'
                )
        if self.behavior is not None and self.target not in ("captured", "subject"):
            validate_party_selector(self.target)
        if self.max_firings is not None and int(self.max_firings) < 1:
            raise ExperimentError("max_firings must be >= 1 when given")
        if self.scheduler_actions is not None:
            validate_scheduler_actions(
                self.scheduler_actions, has_event_pid=self.on != "step"
            )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"on": self.on}
        if self.behavior is not None:
            data["behavior"] = self.behavior.to_dict()
        if self.pattern is not None:
            data["pattern"] = list(self.pattern)
        if self.at_step is not None:
            data["at_step"] = self.at_step
        if self.target != "captured":
            data["target"] = self.target
        if self.max_firings is not None:
            data["max_firings"] = self.max_firings
        if self.scheduler_actions is not None:
            data["scheduler_actions"] = [dict(action) for action in self.scheduler_actions]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdaptiveRule":
        return cls(
            on=str(data["on"]),
            behavior=(
                BehaviorSpec.from_dict(data["behavior"])
                if data.get("behavior") is not None
                else None
            ),
            pattern=list(data["pattern"]) if data.get("pattern") is not None else None,
            at_step=data.get("at_step"),
            target=data.get("target", "captured"),
            max_firings=data.get("max_firings"),
            scheduler_actions=(
                [dict(action) for action in data["scheduler_actions"]]
                if data.get("scheduler_actions") is not None
                else None
            ),
        )


@dataclass
class CorruptionPlan:
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

    def __post_init__(self) -> None:
        self.static = [
            entry if isinstance(entry, StaticCorruption) else StaticCorruption.from_dict(entry)
            for entry in self.static
        ]
        self.adaptive = [
            rule if isinstance(rule, AdaptiveRule) else AdaptiveRule.from_dict(rule)
            for rule in self.adaptive
        ]

    def validate(self) -> None:
        if self.budget is not None and int(self.budget) < 0:
            raise ExperimentError(f"corruption budget must be >= 0, got {self.budget}")
        for entry in self.static:
            entry.validate()
        for rule in self.adaptive:
            rule.validate()

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.budget is not None:
            data["budget"] = self.budget
        if self.static:
            data["static"] = [entry.to_dict() for entry in self.static]
        if self.adaptive:
            data["adaptive"] = [rule.to_dict() for rule in self.adaptive]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorruptionPlan":
        return cls(
            budget=data.get("budget"),
            static=[StaticCorruption.from_dict(entry) for entry in data.get("static", [])],
            adaptive=[AdaptiveRule.from_dict(rule) for rule in data.get("adaptive", [])],
        )


@dataclass
class FaultEvent:
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

    def validate(self) -> None:
        if self.transition not in TRANSITIONS:
            raise ExperimentError(
                f"timeline transition must be one of {TRANSITIONS}, got {self.transition!r}"
            )
        validate_party_selector(self.select)
        if (self.at_step is None) == (self.on is None):
            raise ExperimentError(
                "timeline event needs exactly one trigger: at_step or on"
            )
        if self.at_step is not None and int(self.at_step) < 0:
            raise ExperimentError("timeline at_step must be non-negative")
        if self.on is not None:
            event = self.on.get("event")
            if event not in ("session_open", "complete"):
                raise ExperimentError(
                    f'timeline "on" event must be session_open or complete, got {event!r}'
                )
            validate_session_pattern(self.on.get("pattern"))
            unknown = set(self.on) - {"event", "pattern", "count"}
            if unknown:
                raise ExperimentError(
                    f'unknown timeline "on" keys: {", ".join(sorted(unknown))}'
                )
            if "count" in self.on and int(self.on["count"]) < 1:
                raise ExperimentError('timeline "on" count must be >= 1 when given')
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

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"transition": self.transition, "select": self.select}
        if self.at_step is not None:
            data["at_step"] = self.at_step
        if self.on is not None:
            data["on"] = dict(self.on)
        if self.offset != 1:
            data["offset"] = self.offset
        if self.tamper is not None:
            data["tamper"] = dict(self.tamper)
        if self.scheduler_actions is not None:
            data["scheduler_actions"] = [dict(action) for action in self.scheduler_actions]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        return cls(
            transition=str(data["transition"]),
            select=data["select"],
            at_step=data.get("at_step"),
            on=dict(data["on"]) if data.get("on") is not None else None,
            offset=int(data.get("offset", 1)),
            tamper=dict(data["tamper"]) if data.get("tamper") is not None else None,
            scheduler_actions=(
                [dict(action) for action in data["scheduler_actions"]]
                if data.get("scheduler_actions") is not None
                else None
            ),
        )


@dataclass
class ScenarioSpec:
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

    def __post_init__(self) -> None:
        if isinstance(self.corruption, Mapping):
            self.corruption = CorruptionPlan.from_dict(self.corruption)
        self.timeline = [
            event if isinstance(event, FaultEvent) else FaultEvent.from_dict(event)
            for event in self.timeline
        ]
        if isinstance(self.scheduler, Mapping):
            self.scheduler = SchedulerSpec.from_dict(self.scheduler)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ExperimentError`."""
        if not self.name:
            raise ExperimentError("scenario needs a non-empty name")
        if not self.protocol:
            raise ExperimentError(f"scenario {self.name!r}: missing protocol name")
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

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "protocol": self.protocol}
        if self.description:
            data["description"] = self.description
        if self.params:
            data["params"] = dict(self.params)
        if self.scale is not None:
            data["scale"] = self.scale
        corruption = self.corruption.to_dict()
        if corruption:
            data["corruption"] = corruption
        if self.timeline:
            data["timeline"] = [event.to_dict() for event in self.timeline]
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        try:
            return cls(
                name=str(data["name"]),
                description=str(data.get("description", "")),
                protocol=str(data.get("protocol", "weak_coin")),
                params=dict(data.get("params", {})),
                scale=data.get("scale"),
                corruption=CorruptionPlan.from_dict(data.get("corruption", {})),
                timeline=[FaultEvent.from_dict(event) for event in data.get("timeline", [])],
                scheduler=(
                    SchedulerSpec.from_dict(data["scheduler"])
                    if data.get("scheduler") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed scenario: {exc}") from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"scenario is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())
