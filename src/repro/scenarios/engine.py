"""Scenario execution engine: adaptive corruption and fault timelines, live.

Two classes turn a declarative :class:`~repro.scenarios.spec.ScenarioSpec`
into a running attack:

* :class:`ScenarioRuntime` resolves a spec against a concrete party count --
  party selectors become pid sets, the scale preset yields the matched field
  prime, static corruptions become behaviour factories, the scheduler spec
  becomes a :class:`~repro.net.scheduler.Scheduler` -- and builds one fresh
  :class:`ScenarioDirector` per trial.
* :class:`ScenarioDirector` is the live adversary installed on the network
  (:meth:`repro.net.network.Network.install_director`).  It observes protocol
  lifecycle events (session opens, completions) and -- when the scenario has
  step triggers -- is woken at their thresholds, and reacts by corrupting
  parties mid-run or driving fault-timeline transitions.  It never sees a
  message, so installing one costs a trial no Message objects: per delivery
  the network's loop pays an int comparison and a stored step for it.
  Every action is appended to the
  director's ``actions`` audit log, and the **corruption budget is a hard
  invariant**: the director never corrupts beyond
  ``min(spec budget, resilience bound t)``, whatever the rules ask for.

Determinism: the director's decisions are pure functions of the (seeded,
deterministic) event stream, so a scenario trial is byte-identical across
reruns of the same seed -- asserted by ``tests/scenarios/test_engine.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.config import max_faults
from repro.errors import ExperimentError
from repro.experiments.registry import (
    RUNNERS,
    build_behavior_factory,
    build_scheduler,
    resolve_scheduler,
    runner_params_problem,
)
from repro.experiments.spec import BehaviorSpec
from repro.net.message import SessionId
from repro.net.network import Network
from repro.net.runtime import SimulationResult
from repro.net.scheduler import Scheduler
from repro.scenarios.predicates import match_session, resolve_parties
from repro.scenarios.presets import ScalePreset, preset_for
from repro.scenarios.spec import (
    CORRUPTING_TRANSITIONS,
    AdaptiveRule,
    FaultEvent,
    ScenarioSpec,
    validate_tamper,
)

#: ``inputs`` shorthands expanded per ``n`` at run time.
_INPUT_PATTERNS: Dict[str, Callable[[int], Dict[int, int]]] = {
    "alternating": lambda n: {pid: pid % 2 for pid in range(n)},
    "half": lambda n: {pid: 0 if pid < n // 2 else 1 for pid in range(n)},
    "zeros": lambda n: {pid: 0 for pid in range(n)},
    "ones": lambda n: {pid: 1 for pid in range(n)},
}


def expand_inputs(value: Any, n: int) -> Any:
    """Expand an ``inputs`` shorthand (``"alternating"``...) to a per-pid map."""
    if isinstance(value, str):
        try:
            return _INPUT_PATTERNS[value](n)
        except KeyError:
            raise ExperimentError(
                f"unknown inputs pattern {value!r}; known: "
                f"{', '.join(sorted(_INPUT_PATTERNS))}"
            ) from None
    return value


class ScenarioDirector:
    """The live adversary for one trial: observes events, applies the attack.

    Install on a network via :meth:`Network.install_director` (done by the
    runners when a ``director`` is passed).  The director carries all mutable
    attack state -- budget spent, rules fired, silenced parties -- so one
    instance must drive exactly one trial.
    """

    def __init__(
        self,
        n: int,
        budget: Optional[int],
        rules: List[AdaptiveRule],
        timeline: List[FaultEvent],
    ) -> None:
        self.n = n
        t = max_faults(n)
        #: Hard cap on parties this scenario may corrupt (never above ``t``).
        self.budget = t if budget is None else min(int(budget), t)
        self.rules = rules
        self._rule_firings = [0] * len(rules)
        #: Step-triggered rules evaluate once, when their threshold is first
        #: crossed (phase rules instead re-evaluate per matching event).
        self._step_rule_done = [False] * len(rules)
        self.timeline = timeline
        self._timeline_fired = [False] * len(timeline)
        #: Per-entry count of phase events matched so far (``on.count``
        #: triggers fire on the k-th match, not the first).
        self._timeline_matches = [0] * len(timeline)
        #: Step-triggered work still pending, as ``(index, entry)`` in spec
        #: order; ``on_step`` consumes these and ``wake_step`` is their
        #: earliest threshold.
        self._pending_step_timeline: List[Tuple[int, FaultEvent]] = [
            (index, event)
            for index, event in enumerate(timeline)
            if event.at_step is not None
        ]
        self._pending_step_rules: List[Tuple[int, AdaptiveRule]] = [
            (index, rule) for index, rule in enumerate(rules) if rule.on == "step"
        ]
        #: pid -> ``(outgoing mutator, its kinds)`` saved when the party was
        #: silenced (see ``Process.set_outgoing_mutator``).
        self._silenced: Dict[int, Any] = {}
        #: Parties corrupted *by this director or the static plan* (budget).
        self.corrupted: set = set()
        #: pids whose corruption was refused on budget, already logged.
        self._budget_blocked: set = set()
        #: Audit log of ``(step, action, pid, detail)`` tuples (``pid`` is
        #: None for actions without a subject party, e.g. scheduler clears).
        self.actions: List[Tuple[int, str, Optional[int], str]] = []
        self.network: Optional[Network] = None
        #: The step at which the network next owes this director an
        #: ``on_step`` call: the earliest pending threshold, None once every
        #: step trigger has fired (or the scenario has none).
        self.wake_step: Optional[int] = self._earliest_pending_step()
        #: Whether any entry carries scheduler_actions (requires the trial's
        #: scheduler to be reactive -- checked at attach time).
        self._needs_reactive = any(
            event.scheduler_actions for event in timeline
        ) or any(rule.scheduler_actions for rule in rules)
        #: The trial's reactive scheduler, bound at attach time (None when
        #: the scheduler does not accept director actions).
        self.reactive_scheduler: Optional[Any] = None
        self._behavior_factories: Dict[Any, Callable[..., Any]] = {}

    # ------------------------------------------------------------------
    def attach(self, network: Network) -> None:
        """Bind to the network; pre-applied static corruptions join the budget."""
        self.network = network
        scheduler = network.scheduler
        if getattr(scheduler, "supports_reactions", False):
            self.reactive_scheduler = scheduler
        elif self._needs_reactive:
            raise ExperimentError(
                "scenario declares scheduler_actions but the trial's scheduler "
                'does not accept them; use the "reactive" scheduler'
            )
        for pid in network.corrupted_pids():
            self.corrupted.add(pid)
        if len(self.corrupted) > self.budget:
            raise ExperimentError(
                f"scenario statically corrupts {len(self.corrupted)} parties, "
                f"over its budget of {self.budget}"
            )

    def detach(self) -> None:
        """Unbind from a finished network (:meth:`Network.release`); the log stays."""
        self.network = None

    # ------------------------------------------------------------------
    # Network observation hooks.
    # ------------------------------------------------------------------
    def on_session_open(self, pid: int, session: SessionId) -> None:
        self._handle_phase_event("session_open", pid, session)

    def on_complete(self, pid: int, session: SessionId) -> None:
        self._handle_phase_event("complete", pid, session)

    def on_step(self, step: int) -> None:
        # Called once ``step`` has reached ``wake_step``, not per delivery:
        # every entry due by now applies in spec order (timeline, then
        # rules), the rest stay pending and set the next wake-up.
        remaining = []
        for index, event in self._pending_step_timeline:
            if step >= event.at_step:
                self._timeline_fired[index] = True
                self._apply_transition(event)
            else:
                remaining.append((index, event))
        self._pending_step_timeline = remaining
        remaining_rules = []
        for index, rule in self._pending_step_rules:
            if step >= rule.at_step:
                self._step_rule_done[index] = True
                self._maybe_fire_rule(index, rule, subject=None, captured=None)
            else:
                remaining_rules.append((index, rule))
        self._pending_step_rules = remaining_rules
        self.wake_step = self._earliest_pending_step()

    def _earliest_pending_step(self) -> Optional[int]:
        return min(
            (
                entry.at_step
                for _, entry in self._pending_step_timeline + self._pending_step_rules
            ),
            default=None,
        )

    # ------------------------------------------------------------------
    # Rule and timeline dispatch.
    # ------------------------------------------------------------------
    def _handle_phase_event(self, event: str, pid: int, session: SessionId) -> None:
        for index, entry in enumerate(self.timeline):
            if self._timeline_fired[index] or entry.on is None:
                continue
            if entry.on["event"] != event:
                continue
            captures = match_session(entry.on["pattern"], session)
            if captures is None:
                continue
            count = self._timeline_matches[index] = self._timeline_matches[index] + 1
            if count < int(entry.on.get("count", 1)):
                continue
            self._timeline_fired[index] = True
            self._apply_transition(entry, event_pid=captures.get("pid", pid))
        for index, rule in enumerate(self.rules):
            if rule.on != event:
                continue
            captures = match_session(rule.pattern, session)
            if captures is None:
                continue
            self._maybe_fire_rule(index, rule, subject=pid, captured=captures.get("pid"))

    def _maybe_fire_rule(
        self,
        index: int,
        rule: AdaptiveRule,
        subject: Optional[int],
        captured: Optional[int],
    ) -> None:
        if rule.max_firings is not None and self._rule_firings[index] >= rule.max_firings:
            return
        fired = False
        if rule.behavior is not None:
            if rule.target == "captured":
                targets = [captured] if captured is not None else []
            elif rule.target == "subject":
                targets = [subject] if subject is not None else []
            else:
                targets = resolve_parties(rule.target, self.n)
            for pid in targets:
                if self._corrupt(pid, rule.behavior, f"rule[{index}]:{rule.on}"):
                    fired = True
        if rule.scheduler_actions:
            event_pid = captured if captured is not None else subject
            if self._apply_scheduler_actions(
                rule.scheduler_actions, event_pid, f"rule[{index}]:{rule.on}"
            ):
                fired = True
        if fired:
            self._rule_firings[index] += 1

    def _apply_transition(self, event: FaultEvent, event_pid: Optional[int] = None) -> None:
        assert self.network is not None
        targets = resolve_parties(event.select, self.n)
        if event.transition in CORRUPTING_TRANSITIONS:
            # Corrupting transitions are irreversible and spend budget.
            if event.transition == "crash":
                spec = BehaviorSpec("hard_crash")
            elif event.transition == "tamper":
                spec = BehaviorSpec("tamper", dict(event.tamper or {}))
            else:  # equivocate
                spec = BehaviorSpec("split_equivocator", {"offset": event.offset})
            for pid in targets:
                self._corrupt(pid, spec, f"timeline:{event.transition}")
        elif event.transition == "silence":
            for pid in targets:
                self._silence(pid)
        elif event.transition == "recover":
            for pid in targets:
                self._recover(pid)
        elif event.transition == "restart":
            for pid in targets:
                self._restart(pid, "timeline:restart")
        # "reprioritize" touches no party; like every other transition it may
        # carry scheduler actions, applied once per firing below.
        if event.scheduler_actions:
            self._apply_scheduler_actions(
                event.scheduler_actions, event_pid, f"timeline:{event.transition}"
            )

    # ------------------------------------------------------------------
    # Actions.
    # ------------------------------------------------------------------
    def _corrupt(self, pid: int, behavior: BehaviorSpec, reason: str) -> bool:
        """Corrupt ``pid`` if the budget allows; returns whether it happened."""
        assert self.network is not None
        process = self.network.processes[pid]
        if process.is_corrupted:
            return False
        if pid not in self.corrupted and len(self.corrupted) >= self.budget:
            # Log each blocked pid once; phase rules can re-attempt the same
            # corruption on every matching event, and the audit log must stay
            # bounded by n, not by the event count.  A pid already in
            # ``corrupted`` was paid for earlier (re-corrupting a restarted
            # party costs nothing extra).
            if pid not in self._budget_blocked:
                self._budget_blocked.add(pid)
                self._log("budget-exhausted", pid, reason)
            return False
        factory = self._behavior_factory(behavior)
        process.corrupt(factory(process))
        self.corrupted.add(pid)
        self._log("corrupt", pid, f"{reason} behavior={behavior.behavior}")
        return True

    def _behavior_factory(self, behavior: BehaviorSpec) -> Callable[..., Any]:
        key = (behavior.behavior, repr(sorted(behavior.params.items())))
        factory = self._behavior_factories.get(key)
        if factory is None:
            factory = self._behavior_factories[key] = build_behavior_factory(
                behavior, self.n
            )
        return factory

    def _silence(self, pid: int) -> None:
        assert self.network is not None
        process = self.network.processes[pid]
        if process.is_corrupted or pid in self._silenced:
            # Skips are audited (not silently swallowed) so a timeline that
            # tries to silence an already-taken party stays explainable from
            # the action log alone.
            reason = "already corrupted" if process.is_corrupted else "already silenced"
            self._log("silence-skipped", pid, reason)
            return
        self._silenced[pid] = (process.outgoing_mutator, process.outgoing_kinds)
        process.set_outgoing_mutator(lambda receiver, session, payload: None)
        self._log("silence", pid, "outgoing channel severed")

    def _recover(self, pid: int) -> None:
        """Recover ``pid``: un-silence for free, or restart a corrupted party.

        Recovery of a silenced party restores its saved outgoing mutator,
        with its kinds, and costs nothing (the party was honest all
        along).  A *corrupted* party cannot be un-corrupted -- recovering it
        is a restart: fresh protocol state, ``ever_corrupted`` kept, no
        budget refund.
        """
        assert self.network is not None
        process = self.network.processes[pid]
        if process.is_corrupted:
            self._restart(pid, "timeline:recover")
            return
        if pid in self._silenced:
            process.set_outgoing_mutator(*self._silenced.pop(pid))
            self._log("recover", pid, "outgoing channel restored")
            return
        self._log("recover-skipped", pid, "party is neither silenced nor corrupted")

    def _restart(self, pid: int, reason: str) -> None:
        """Restart a corrupted party with fresh protocol state.

        The behaviour and the whole protocol tree are discarded and the root
        protocol is re-opened from the network's recorded recipe; the party
        runs honest code again but remains the adversary's for accounting
        (``ever_corrupted`` stays set, the budget refunds nothing, and its
        completions/outputs stay excluded).  Messages delivered before the
        restart are lost -- exactly the crash/recovery semantics of a node
        that rejoins from a blank slate.
        """
        network = self.network
        assert network is not None
        process = network.processes[pid]
        if not process.is_corrupted:
            self._log("restart-skipped", pid, "party is not corrupted")
            return
        # Any mutator saved while silencing belongs to the discarded state.
        self._silenced.pop(pid, None)
        process.reinitialize()
        self._log("restart", pid, f"{reason}: fresh protocol state, no budget refund")
        recipe = network.root_recipe
        if recipe is not None:
            session, factory, inputs, common_input = recipe
            kwargs = dict(common_input)
            kwargs.update(inputs.get(pid, {}))
            instance = process.create_protocol(session, factory)
            if not instance.started:
                instance.start(**kwargs)

    def _apply_scheduler_actions(
        self, actions: List[Dict[str, Any]], event_pid: Optional[int], reason: str
    ) -> bool:
        """Forward scheduler actions to the reactive scheduler; log changes."""
        scheduler = self.reactive_scheduler
        if scheduler is None:
            # attach() rejects scenarios that need reactions without a
            # reactive scheduler; this only guards directors constructed and
            # driven by hand.
            return False
        step = self.network.step_count if self.network is not None else 0
        changed = False
        for action in actions:
            described = scheduler.apply_action(action, self.n, step, event_pid)
            if described is not None:
                changed = True
                self._log("scheduler", event_pid, f"{reason}: {described}")
        return changed

    def _log(self, action: str, pid: Optional[int], detail: str) -> None:
        network = self.network
        step = network.step_count if network is not None else 0
        self.actions.append((step, action, pid, detail))
        if network is not None:
            # The audit log is also a trace client: every director action
            # becomes a ``director`` trace event, so streaming sinks (JSONL,
            # timeline) see the attack interleaved with the deliveries.
            network.trace.on_director(step, action, pid, detail)


class ScenarioRuntime:
    """A :class:`ScenarioSpec` resolved against a concrete party count.

    The runtime is reusable across trials of the same scenario and size (a
    campaign chunk builds one and calls :meth:`build_director` per seed).

    Attributes:
        spec: the scenario definition.
        n: resolved party count (explicit ``n`` beats the scale preset).
        preset: the scale preset, when the spec names one.
        prime: matched field prime (``None`` = library default).
    """

    def __init__(self, spec: ScenarioSpec, n: Optional[int] = None) -> None:
        spec.validate()
        self.spec = spec
        self.preset: Optional[ScalePreset] = preset_for(spec.scale)
        resolved_n = n if n is not None else (self.preset.n if self.preset else 4)
        if resolved_n < 1:
            raise ExperimentError(f"scenario needs a positive n, got {resolved_n}")
        self.n = resolved_n
        self.t = max_faults(resolved_n)
        self.prime: Optional[int] = None
        if self.preset is not None and self.preset.prime > resolved_n:
            self.prime = self.preset.prime
        self._static = self._resolve_static()
        for event in spec.timeline:
            if event.tamper is not None:
                validate_tamper(event.tamper, resolved_n)
        #: The hostile scheduler's spec, checked and resolved against n once.
        self._scheduler = (
            None if spec.scheduler is None else resolve_scheduler(spec.scheduler, resolved_n)
        )

    # ------------------------------------------------------------------
    def _resolve_static(self) -> Dict[int, Callable[..., Any]]:
        corruptions: Dict[int, Callable[..., Any]] = {}
        budget = self.spec.corruption.budget
        cap = self.t if budget is None else min(int(budget), self.t)
        for entry in self.spec.corruption.static:
            factory = build_behavior_factory(entry.behavior, self.n)
            for pid in resolve_parties(entry.select, self.n):
                corruptions[pid] = factory
        if len(corruptions) > cap:
            raise ExperimentError(
                f"scenario {self.spec.name!r} statically corrupts "
                f"{len(corruptions)} parties at n={self.n}, over its budget of {cap}"
            )
        return corruptions

    # ------------------------------------------------------------------
    def static_corruptions(self) -> Dict[int, Callable[..., Any]]:
        """The resolved ``pid -> behaviour factory`` map (shared, reusable)."""
        return dict(self._static)

    def build_scheduler(self) -> Optional[Scheduler]:
        """Instantiate the scenario's hostile scheduler (fresh per trial)."""
        return build_scheduler(self._scheduler)

    def build_director(self) -> ScenarioDirector:
        """A fresh director for one trial (directors hold per-trial state)."""
        return ScenarioDirector(
            n=self.n,
            budget=self.spec.corruption.budget,
            rules=self.spec.corruption.adaptive,
            timeline=self.spec.timeline,
        )

    def runner_kwargs(
        self, overrides: Optional[Mapping[str, Any]] = None, protocol: Optional[str] = None
    ) -> Dict[str, Any]:
        """One trial's kwargs for ``RUNNERS[protocol]`` (default: the spec's), checked at ``n``.

        The spec's params with ``overrides`` merged over them, ``inputs``
        shorthands expanded, the preset's prime folded in (unless set) and
        the registry's normalizer applied.  Raises :class:`ExperimentError`
        naming the first param the runner cannot be called with.
        """
        kwargs = dict(self.spec.params)
        if overrides:
            kwargs.update(overrides)
        if "inputs" in kwargs:
            kwargs["inputs"] = expand_inputs(kwargs["inputs"], self.n)
        if self.prime is not None:
            kwargs.setdefault("prime", self.prime)
        protocol = protocol or self.spec.protocol
        kwargs = RUNNERS.normalize(protocol, kwargs)
        problem = runner_params_problem(protocol, kwargs, self.n)
        if problem is not None:
            raise ExperimentError(problem)
        return kwargs


def run_scenario(
    scenario: Any,
    n: Optional[int] = None,
    seed: int = 0,
    protocol: Optional[str] = None,
    params: Optional[Mapping[str, Any]] = None,
    tracing: bool = True,
    sinks: Optional[List[Any]] = None,
) -> SimulationResult:
    """Run one trial of a scenario and return its :class:`SimulationResult`.

    Args:
        scenario: a :class:`ScenarioSpec`, or a name resolved through the
            scenario registry (:mod:`repro.scenarios.library`).
        n: party count override (default: the scenario's scale preset, or 4).
        seed: trial seed.
        protocol: runner-name override (default: the scenario's protocol).
        params: runner keyword overrides merged over the scenario's params.
        tracing: forwarded to the runner (disable for throughput sweeps;
            trace-free trials still report message counts: the trace counts
            them without recording events).
        sinks: streaming trace sinks (:mod:`repro.obs.sinks`) attached to the
            trial's trace; requires ``tracing=True``.

    Raises:
        ExperimentError: on unknown names/params, or when ``sinks`` are given
            with ``tracing=False`` (sinks only see events the trace emits --
            silently producing an empty trace file would hide the mistake).
    """
    if sinks and not tracing:
        raise ExperimentError(
            "run_scenario: sinks require tracing=True (a trace-free trial "
            "emits no events for them)"
        )
    if isinstance(scenario, str):
        from repro.scenarios.library import get_scenario

        scenario = get_scenario(scenario)
    runtime = ScenarioRuntime(scenario, n=n)
    runner_name = protocol or scenario.protocol
    runner = RUNNERS.get(runner_name)
    kwargs = runtime.runner_kwargs(params, runner_name)
    kwargs.setdefault("tracing", tracing)
    if sinks:
        kwargs.setdefault("sinks", sinks)
    return runner(
        n=runtime.n,
        seed=seed,
        scheduler=runtime.build_scheduler(),
        corruptions=runtime.static_corruptions() or None,
        director=runtime.build_director(),
        **kwargs,
    )
