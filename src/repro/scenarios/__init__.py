"""Adversarial scenario engine: declarative attacks on the protocol stack.

A scenario composes, as one JSON-serialisable artifact, everything the
asynchronous adversary of the paper controls: *which parties are corrupted*
(statically, or adaptively in response to observed protocol events, under an
explicit budget ``t``), *how faults evolve* (crash / silence / equivocate /
recover / restart / tamper timelines) and *how messages are ordered* (the
hostile scheduler family, including the director-driven
:class:`~repro.scenarios.schedulers.ReactiveScheduler`).  Safety invariants
(:mod:`repro.scenarios.invariants`) close the loop: whatever the scenario
throws, the guaranteed properties are checked on every result.  See
:mod:`repro.scenarios.spec` for the data model,
:mod:`repro.scenarios.engine` for execution, and
:mod:`repro.scenarios.library` for the named catalogue::

    from repro.scenarios import check_scenario_result, run_scenario

    result = run_scenario("dealer-ambush", n=16, seed=7)
    assert not check_scenario_result(get_scenario("dealer-ambush"), result)

Importing this package also registers the hostile scheduler family in
:data:`repro.experiments.registry.SCHEDULERS` and the ``tamper`` behaviour
in :data:`repro.experiments.registry.BEHAVIORS`.
"""

from repro.scenarios import schedulers as _schedulers  # noqa: F401  (registers SCHEDULERS)
from repro.scenarios import tamper as _tamper  # noqa: F401  (registers BEHAVIORS)
from repro.scenarios.engine import ScenarioDirector, ScenarioRuntime, run_scenario
from repro.scenarios.invariants import (
    AGREEMENT_PROTOCOLS,
    InvariantViolation,
    assert_invariants,
    check_result,
    check_scenario_result,
    default_step_bound,
    delivery_envelope,
)
from repro.scenarios.library import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.predicates import (
    compile_message_predicate,
    match_session,
    resolve_parties,
)
from repro.scenarios.presets import PRESETS, ScalePreset, get_preset, preset_names
from repro.scenarios.schedulers import ReactiveScheduler
from repro.scenarios.spec import (
    AdaptiveRule,
    CorruptionPlan,
    FaultEvent,
    ScenarioSpec,
    StaticCorruption,
    validate_scheduler_actions,
    validate_tamper,
)
from repro.scenarios.tamper import TamperBehavior

__all__ = [
    "AGREEMENT_PROTOCOLS",
    "AdaptiveRule",
    "CorruptionPlan",
    "FaultEvent",
    "InvariantViolation",
    "PRESETS",
    "ReactiveScheduler",
    "SCENARIOS",
    "ScalePreset",
    "ScenarioDirector",
    "ScenarioRuntime",
    "ScenarioSpec",
    "StaticCorruption",
    "TamperBehavior",
    "assert_invariants",
    "check_result",
    "check_scenario_result",
    "compile_message_predicate",
    "default_step_bound",
    "delivery_envelope",
    "get_preset",
    "get_scenario",
    "match_session",
    "preset_names",
    "register_scenario",
    "resolve_parties",
    "run_scenario",
    "scenario_names",
    "validate_scheduler_actions",
    "validate_tamper",
]
