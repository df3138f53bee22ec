"""String-keyed registries binding campaign specs to executable code.

Campaign specs (:mod:`repro.experiments.spec`) refer to protocol runners,
adversarial behaviours and message schedulers by *name* so they stay plain
JSON.  The three registries here resolve those names:

* :data:`RUNNERS` -- the one-call runners from :mod:`repro.core.api`.
* :data:`BEHAVIORS` -- behaviour-factory builders from
  :mod:`repro.adversary.behaviors` / :mod:`repro.adversary.attacks`.
* :data:`SCHEDULERS` -- scheduler builders from :mod:`repro.net.scheduler`
  and the hostile scheduler family of :mod:`repro.scenarios.schedulers`,
  which also registers the four legacy names (``isolate_party``,
  ``delay_protocol``, ``favour_parties``, ``split_brain``) as alias rows
  over their targets.

Every row declares its params as typed fields (:mod:`repro.schema`)
when it is registered, and they are checked against the cell's ``n`` at
validation.  Downstream code can extend any registry the same way::

    from repro.schema import Int, Pid

    @RUNNERS.register("my_protocol", fields={"leader": Pid(), "rounds": Int(1)})
    def run_my_protocol(n, leader, rounds=1, seed=0, **world):
        return api._simulation(n, seed, **world).run(("mine",), Mine.factory(leader, rounds))

A runner takes ``n``, ``seed`` and the world (``**world``: the keywords of
:func:`repro.core.api._simulation`, among them the ``scheduler``,
``corruptions``, ``director`` and ``session_table`` the executor passes every
trial; a ``**kwargs`` runner is trusted to take them); one that does not is
refused at validation.  A row that declares no fields is still checked by
param name: the names its builder cannot take are refused.  ``closed=True``
also refuses a name the table does not declare (the fault and ``tamper``
rows).
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import schema
from repro.adversary import attacks, behaviors
from repro.core import api
from repro.core.config import ProtocolParams
from repro.errors import ConfigurationError, ExperimentError, FaultInjectionError
from repro.experiments.spec import BehaviorSpec, SchedulerSpec, party_key
from repro.net import scheduler as net_scheduler


class Registry:
    """A named mapping from string keys to callables.

    Each entry may carry a *normalizer*: a function applied to the keyword
    arguments before the entry is invoked.  Normalizers repair the lossy bits
    of JSON -- most importantly integer dictionary keys (JSON object keys are
    always strings), e.g. the ``inputs`` maps of the agreement runners.
    Each entry may also declare its params' *fields*, which
    :meth:`params_problem` checks; ``noun`` names a row in its errors.
    """

    def __init__(self, kind: str, noun: Optional[str] = None) -> None:
        self.kind = kind
        self.noun = noun or kind
        self._entries: Dict[str, Callable[..., Any]] = {}
        self._normalizers: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {}
        self._fields: Dict[str, schema.Fields] = {}
        self._closed: Dict[str, bool] = {}

    def register(
        self,
        name: str,
        normalizer: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        fields: Optional[schema.Fields] = None,
        closed: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``name``; re-registration overrides."""

        def install(target: Callable[..., Any]) -> Callable[..., Any]:
            self._entries[name] = target
            self._normalizers.pop(name, None)
            self._fields.pop(name, None)
            if normalizer is not None:
                self._normalizers[name] = normalizer
            if fields is not None:
                self._fields[name] = dict(fields)
            self._closed[name] = closed and fields is not None
            return target

        return install

    def add(self, name: str, target: Callable[..., Any], **kwargs: Any) -> None:
        """Function-call form of :meth:`register`."""
        self.register(name, **kwargs)(target)

    def get(self, name: str) -> Callable[..., Any]:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise ExperimentError(
                f"unknown {self.kind} {name!r}; known: {known}"
            ) from None

    def normalize(self, name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Apply the entry's normalizer (if any) to keyword arguments."""
        normalizer = self._normalizers.get(name)
        return normalizer(dict(kwargs)) if normalizer else dict(kwargs)

    def fields(self, name: str) -> Optional[schema.Fields]:
        """The entry's declared param fields (None: checked by name only)."""
        return self._fields.get(name)

    def params_problem(
        self, name: str, params: Mapping[str, Any], n: Optional[int]
    ) -> Optional[str]:
        """The first of ``params`` the entry's fields refuse at ``n`` (or None)."""
        closed = self._closed.get(name, False)
        problem = schema.problem(self._fields.get(name), params, n, closed=closed)
        return None if problem is None else f"{self.noun} {name!r}: {problem}"

    def build(self, name: str, params: Mapping[str, Any]) -> Any:
        """Call the entry with ``params``; an error names the row as the spec did."""
        builder = self.get(name)
        params = self.normalize(name, params)
        try:
            return builder(**params)
        except TypeError as exc:
            raise ExperimentError(
                f"{self.noun} {name!r} cannot be built from params {sorted(params)}: {exc}"
            ) from exc
        except ExperimentError as exc:
            raise ExperimentError(f"{self.noun} {name!r}: {exc}") from exc

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


RUNNERS = Registry("protocol runner", "runner")
BEHAVIORS = Registry("adversary behavior", "behavior")
SCHEDULERS = Registry("scheduler", "scheduler")
FAULTS = Registry("chaos fault", "fault")


# ----------------------------------------------------------------------
# Normalizers
def _int_keyed_inputs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON object keys are strings; party-indexed maps need int keys back.

    An ``inputs`` that is no map, or a key that spells no integer, is kept as
    given, for its field to refuse.
    """
    inputs = kwargs.get("inputs")
    if isinstance(inputs, Mapping):
        kwargs["inputs"] = {party_key(pid): value for pid, value in inputs.items()}
    return kwargs


# ----------------------------------------------------------------------
# Protocol runners (repro.core.api).  One table for the params the runners
# share; a runner's signature says which of them it takes.  ``prime`` is also
# checked against ``n`` by :class:`ProtocolParams` (see
# :func:`runner_params_problem`).
RUNNER_FIELDS: Dict[str, schema.Field] = {
    "value": schema.Value(),
    "sender": schema.Pid(),
    "dealer": schema.Pid(),
    "secret": schema.Int(),
    "ready_parties": schema.ListOf(schema.Pid()),
    "epsilon": schema.Real(0, 0.5),
    "rounds": schema.Int(1),
    "coinflip_rounds": schema.Int(1),
    "m": schema.Int(3),
    "prime": schema.Int(2),
    "tracing": schema.Bool(),
    "metering": schema.Bool(),
    "metrics": schema.Bool(),
    "sinks": schema.PyObject(),
    "coin_source": schema.PyObject(),
}
for _name, _runner in [
    ("acast", api.run_acast),
    ("svss", api.run_svss),
    ("common_subset", api.run_common_subset),
    ("weak_coin", api.run_weak_coin),
    ("coinflip", api.run_coinflip),
    ("fair_choice", api.run_fair_choice),
]:
    RUNNERS.add(_name, _runner, fields=RUNNER_FIELDS)
# A binary-agreement party without an input defaults to 0; an FBA value is
# any object, and a party without one cannot start.
for _name, _runner, _inputs in [
    ("aba", api.run_aba, schema.InputMap(domain=(0, 1))),
    ("fba", api.run_fba, schema.InputMap(every=True)),
]:
    _fields = {**RUNNER_FIELDS, "inputs": _inputs}
    RUNNERS.add(_name, _runner, normalizer=_int_keyed_inputs, fields=_fields)


# ----------------------------------------------------------------------
# Adversarial behaviours.  Each entry is a ``(**params) -> factory`` builder;
# the returned factory is the ``process -> Behavior`` callable that
# :meth:`repro.net.runtime.Simulation.corrupt` expects.
for _name, _builder, _fields in [
    ("crash", behaviors.CrashBehavior, {}),
    ("hard_crash", behaviors.HardCrashBehavior, {}),
    ("silent_after", behaviors.SilentAfterBehavior, {"active_deliveries": schema.Int(0)}),
    ("replay", behaviors.ReplayBehavior, {"max_replays": schema.Int(0)}),
    ("random_noise", behaviors.RandomNoiseBehavior, {"burst": schema.Int(0)}),
    ("equivocating", behaviors.EquivocatingBehavior,
     {"value_for_low": schema.Value(), "value_for_high": schema.Value()}),
    ("withholding_dealer", attacks.WithholdingDealerBehavior,
     {"victims": schema.ListOf(schema.Pid())}),
    ("bad_share", attacks.BadShareBehavior,
     {"victims": schema.ListOf(schema.Pid(), null=True), "offset": schema.Int()}),
    ("point_corrupting", attacks.PointCorruptingBehavior, {"offset": schema.Int()}),
    ("deterministic_value_dealer", attacks.DeterministicValueDealer, {"value": schema.Int(0, 1)}),
    ("fba_value_injector", attacks.FBAValueInjector, {"value": schema.Value()}),
    ("split_equivocator", attacks.SplitBrainEquivocator,
     {"offset": schema.Int(), "kinds": schema.ListOf(schema.Str(), null=True)}),
]:
    BEHAVIORS.add(_name, _builder.factory, fields=_fields)


# ----------------------------------------------------------------------
# Schedulers
#: The starvation bound every delaying scheduler takes.
STEP_BUDGET = schema.Int(0, null=True)

SCHEDULERS.add("fifo", net_scheduler.FIFOScheduler, fields={})
SCHEDULERS.add("random", net_scheduler.RandomScheduler, fields={})
for _builder in (net_scheduler.delay_from_parties, net_scheduler.delay_to_parties):
    _fields = {"parties": schema.PartySelector(), "max_delay_steps": STEP_BUDGET}
    SCHEDULERS.add(_builder.__name__, _builder, fields=_fields)


# ----------------------------------------------------------------------
# Chaos faults.  Registry-named process-level failures the worker entrypoint
# injects into itself (spec-activatable via ``ExperimentSpec.fault``); the
# supervised runner must survive every one of them.  They model, in order:
# a bug in trial code, a livelocked/hung trial, a worker whose interpreter
# bails out (e.g. a failed assertion in a compiled extension), and the OOM
# killer / a segfault.
def _fault_raise(message: str = "injected chaos fault") -> None:
    raise FaultInjectionError(message)


def _fault_hang(seconds: float = 3600.0) -> None:
    time.sleep(seconds)


def _fault_exit(code: int = 3) -> None:
    os._exit(code)


def _fault_sigkill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


#: When a fault fires: the chunk indices and dispatch attempts it hits
#: (consumed by :func:`inject_fault`, never passed to the fault itself).
FAULT_SELECTORS = dict.fromkeys(("chunks", "attempts"), schema.ListOf(schema.Int(0), null=True))

# No builder refuses a misspelt fault param before the fault fires: closed.
for _name, _fault, _fields in [
    ("raise", _fault_raise, {"message": schema.Name()}),
    ("hang", _fault_hang, {"seconds": schema.Real(0, lo_closed=True)}),
    ("exit", _fault_exit, {"code": schema.Int()}),
    ("sigkill", _fault_sigkill, {}),
]:
    FAULTS.add(_name, _fault, fields={**FAULT_SELECTORS, **_fields}, closed=True)

#: The faults that kill or stall the process they fire in: only a supervised
#: worker may run them, so an inline campaign refuses them up front.
PROCESS_FAULTS = frozenset({"hang", "exit", "sigkill"})


def inject_fault(spec: Optional[Mapping[str, Any]], chunk_index: int, attempt: int) -> None:
    """Worker-side chaos hook: fire the cell's fault if this dispatch matches.

    ``spec`` is the serialized :class:`~repro.experiments.spec.FaultSpec`
    (or ``None`` for the overwhelmingly common no-chaos case).  The
    ``chunks`` / ``attempts`` selector parameters are consumed here; the
    rest are passed to the registered fault callable.  ``attempts``
    defaults to ``[0]`` so a fault hits only the first dispatch of a chunk
    and bounded retries recover; ``None`` makes it hit every attempt.
    """
    if not spec:
        return
    params = dict(spec.get("params", {}))
    chunks = params.pop("chunks", None)
    attempts = params.pop("attempts", [0])
    if chunks is not None and chunk_index not in chunks:
        return
    if attempts is not None and attempt not in attempts:
        return
    FAULTS.get(str(spec["fault"]))(**params)


def fault_problem(fault: Any) -> Optional[str]:
    """Why a serialized fault spec (``{"fault": name, "params": {...}}``) cannot fire (or None).

    Checked where a fault enters (a cell, a beacon request), never in a
    worker.  A row without fields takes the selectors and its callable's names.
    """
    name = fault.get("fault") if isinstance(fault, Mapping) else None
    if not isinstance(name, str) or name not in FAULTS:
        return f"unknown fault {name!r}; known: {', '.join(FAULTS.names())}"
    params = fault.get("params", {})
    if FAULTS.fields(name) is not None:
        return FAULTS.params_problem(name, params, None)
    problem = schema.problem(FAULT_SELECTORS, params, None)
    if problem is None:
        required, accepted = signature_names(FAULTS.get(name)) or (frozenset(), None)
        given = set(params) - set(FAULT_SELECTORS)
        if not required <= given:
            problem = f"needs params {sorted(required - given)}"
        elif accepted is not None and not given <= accepted:
            problem = f"takes no params {sorted(given - accepted)}; accepted: {sorted(accepted)}"
    return None if problem is None else f"fault {name!r}: {problem}"


# ----------------------------------------------------------------------
def build_behavior_factory(spec: BehaviorSpec, n: Optional[int] = None) -> Callable[..., Any]:
    """Instantiate the behaviour factory a :class:`BehaviorSpec` names.

    Its params are checked against the row's fields at ``n`` (the party
    count of the run, None when unknown), and params the builder cannot take
    are a spec error raised here -- at campaign validation -- not in a trial.
    """
    BEHAVIORS.get(spec.behavior)  # an unknown name is refused first
    problem = BEHAVIORS.params_problem(spec.behavior, spec.params, n)
    if problem is not None:
        raise ExperimentError(problem)
    return BEHAVIORS.build(spec.behavior, spec.params)


def resolve_scheduler(spec: SchedulerSpec, n: int) -> SchedulerSpec:
    """``spec`` with its params checked at ``n`` and its party selectors resolved.

    Every party selector becomes the explicit pid list it names at ``n``, so
    the spec can be built once per trial without re-resolving.  Raises
    :class:`ExperimentError` naming the scheduler and the param.
    """
    SCHEDULERS.get(spec.scheduler)  # an unknown name is refused first
    fields = SCHEDULERS.fields(spec.scheduler)
    problem = SCHEDULERS.params_problem(spec.scheduler, spec.params, n)
    if problem is not None:
        raise ExperimentError(problem)
    return SchedulerSpec(spec.scheduler, schema.resolve(fields, spec.params, n))


def build_scheduler(spec: Optional[SchedulerSpec]) -> Optional[net_scheduler.Scheduler]:
    """Instantiate the scheduler a :class:`SchedulerSpec` names (or ``None``).

    ``spec`` comes from :func:`resolve_scheduler`; campaign validation makes
    this call before any trial runs, so a spec error is never a crash.
    """
    return None if spec is None else SCHEDULERS.build(spec.scheduler, spec.params)


#: Runner arguments the executor supplies itself, never read from ``params``.
_EXECUTOR_SUPPLIED = frozenset(
    {"n", "seed", "scheduler", "corruptions", "director", "session_table"}
)


@lru_cache(maxsize=64)
def signature_names(
    target: Callable[..., Any],
) -> Optional[Tuple[frozenset, Optional[frozenset]]]:
    """``(required, accepted)`` keyword names (``accepted``: None for ``**kwargs``).

    A ``**world`` parameter is read as exactly the keywords of
    :func:`repro.core.api._simulation`, the one declaration of a run's world.
    None when ``target`` cannot be introspected (a C callable).
    """
    try:
        parameters = inspect.signature(target).parameters.values()
    except (TypeError, ValueError):  # builtins / C callables
        return None
    named = {
        p.name: p.default is p.empty
        for p in parameters
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    required = frozenset(name for name, needed in named.items() if needed)
    rest = next((p.name for p in parameters if p.kind is p.VAR_KEYWORD), None)
    if rest == "world":
        return required, frozenset(named) | signature_names(api._simulation)[1]
    if rest is not None:
        return required, None
    return required, frozenset(named)


@lru_cache(maxsize=64)
def runner_signature(runner: Callable[..., Any]) -> Tuple[frozenset, Optional[frozenset]]:
    """``(required, accepted)`` keyword names a registered runner reads from ``params``.

    ``required`` are the names ``params`` must supply (no default, not
    supplied by the executor); ``accepted`` the names it may supply, ``None``
    when the runner takes ``**kwargs`` or cannot be introspected (a C
    callable).
    """
    names = signature_names(runner)
    if names is None:
        return frozenset(), None
    required, accepted = names
    required -= _EXECUTOR_SUPPLIED
    if accepted is None:
        return required, None
    return required, accepted - _EXECUTOR_SUPPLIED


def runner_params_problem(
    protocol: str, params: Mapping[str, Any], n: int
) -> Optional[str]:
    """Why ``RUNNERS[protocol]`` cannot be called with ``params`` at ``n`` (or None).

    A runner that does not take the executor's arguments (``n``, ``seed``
    and the world), a missing or misspelt param, a ``prime`` that is not a
    prime above ``n``, or a value its field refuses at ``n`` is a spec error
    raised at validation (campaign cell, scenario trial, ablation grid,
    beacon request), never in a worker.  The name sets and the primality
    test are cached per runner / modulus.
    """
    runner = RUNNERS.get(protocol)
    names = signature_names(runner)
    if names is not None and names[1] is not None and not _EXECUTOR_SUPPLIED <= names[1]:
        return (
            f"runner {protocol!r} does not take "
            f"{sorted(_EXECUTOR_SUPPLIED - names[1])}; a runner takes n, seed and **world"
        )
    required, accepted = runner_signature(runner)
    if not required.issubset(params):
        return (
            f"runner {protocol!r} needs params "
            f"{sorted(required.difference(params))}"
        )
    if accepted is not None and not accepted.issuperset(params):
        return (
            f"runner {protocol!r} takes no params "
            f"{sorted(set(params) - accepted)}; accepted: {sorted(accepted)}"
        )
    if "prime" in params:
        try:
            ProtocolParams.for_parties(n, prime=params["prime"])
        except ConfigurationError as exc:
            return f"runner {protocol!r} at n={n}: {exc}"
    return RUNNERS.params_problem(protocol, RUNNERS.normalize(protocol, params), n)


# ----------------------------------------------------------------------
# The hostile scheduler family (and the alias rows over it) registers itself
# on import; pulling it in here (at the end, once the registries and builders
# above exist) means campaigns can name targeted_delay / session_starvation /
# partition_heal / rushing / isolate_party ... whether or not repro.scenarios
# was imported first.
import repro.scenarios.schedulers  # noqa: E402,F401  (self-registration)
import repro.scenarios.tamper  # noqa: E402,F401  (registers the tamper behaviour)
