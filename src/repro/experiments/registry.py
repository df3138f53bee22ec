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

Downstream code can extend any registry::

    @RUNNERS.register("my_protocol")
    def run_my_protocol(n, seed=0, scheduler=None, corruptions=None):
        ...
"""

from __future__ import annotations

import inspect
import os
import signal
import time
from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.adversary import attacks, behaviors
from repro.core import api
from repro.core.config import ProtocolParams
from repro.errors import ConfigurationError, ExperimentError, FaultInjectionError
from repro.experiments.spec import BehaviorSpec, SchedulerSpec, is_int, party_key
from repro.net import scheduler as net_scheduler


class Registry:
    """A named mapping from string keys to callables.

    Each entry may carry a *normalizer*: a function applied to the keyword
    arguments before the entry is invoked.  Normalizers repair the lossy bits
    of JSON -- most importantly integer dictionary keys (JSON object keys are
    always strings), e.g. the ``inputs`` maps of the agreement runners.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Callable[..., Any]] = {}
        self._normalizers: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {}

    def register(
        self,
        name: str,
        normalizer: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``name``; re-registration overrides."""

        def install(target: Callable[..., Any]) -> Callable[..., Any]:
            self._entries[name] = target
            if normalizer is not None:
                self._normalizers[name] = normalizer
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

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


RUNNERS = Registry("protocol runner")
BEHAVIORS = Registry("adversary behavior")
SCHEDULERS = Registry("scheduler")
FAULTS = Registry("chaos fault")


# ----------------------------------------------------------------------
# Normalizers
def _int_keyed_inputs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON object keys are strings; party-indexed maps need int keys back.

    An ``inputs`` that is no map, or a key that spells no integer, is kept as
    given, for :func:`runner_params_problem` to refuse.
    """
    inputs = kwargs.get("inputs")
    if isinstance(inputs, Mapping):
        kwargs["inputs"] = {party_key(pid): value for pid, value in inputs.items()}
    return kwargs


# ----------------------------------------------------------------------
# Protocol runners (repro.core.api)
RUNNERS.add("acast", api.run_acast)
RUNNERS.add("svss", api.run_svss)
RUNNERS.add("aba", api.run_aba, normalizer=_int_keyed_inputs)
RUNNERS.add("common_subset", api.run_common_subset)
RUNNERS.add("weak_coin", api.run_weak_coin)
RUNNERS.add("coinflip", api.run_coinflip)
RUNNERS.add("fair_choice", api.run_fair_choice)
RUNNERS.add("fba", api.run_fba, normalizer=_int_keyed_inputs)


# ----------------------------------------------------------------------
# Adversarial behaviours.  Each entry is a ``(**params) -> factory`` builder;
# the returned factory is the ``process -> Behavior`` callable that
# :meth:`repro.net.runtime.Simulation.corrupt` expects.
BEHAVIORS.add("crash", behaviors.CrashBehavior.factory)
BEHAVIORS.add("hard_crash", behaviors.HardCrashBehavior.factory)
BEHAVIORS.add("silent_after", behaviors.SilentAfterBehavior.factory)
BEHAVIORS.add("replay", behaviors.ReplayBehavior.factory)
BEHAVIORS.add("random_noise", behaviors.RandomNoiseBehavior.factory)
BEHAVIORS.add("equivocating", behaviors.EquivocatingBehavior.factory)
BEHAVIORS.add("withholding_dealer", attacks.WithholdingDealerBehavior.factory)
BEHAVIORS.add("bad_share", attacks.BadShareBehavior.factory)
BEHAVIORS.add("point_corrupting", attacks.PointCorruptingBehavior.factory)
BEHAVIORS.add("deterministic_value_dealer", attacks.DeterministicValueDealer.factory)
BEHAVIORS.add("fba_value_injector", attacks.FBAValueInjector.factory)
BEHAVIORS.add("split_equivocator", attacks.SplitBrainEquivocator.factory)


# ----------------------------------------------------------------------
# Schedulers
SCHEDULERS.add("fifo", net_scheduler.FIFOScheduler)
SCHEDULERS.add("random", net_scheduler.RandomScheduler)
SCHEDULERS.add("delay_from_parties", net_scheduler.delay_from_parties)
SCHEDULERS.add("delay_to_parties", net_scheduler.delay_to_parties)


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
    time.sleep(float(seconds))


def _fault_exit(code: int = 3) -> None:
    os._exit(int(code))


def _fault_sigkill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


FAULTS.add("raise", _fault_raise)
FAULTS.add("hang", _fault_hang)
FAULTS.add("exit", _fault_exit)
FAULTS.add("sigkill", _fault_sigkill)

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


# ----------------------------------------------------------------------
def build_behavior_factory(spec: BehaviorSpec) -> Callable[..., Any]:
    """Instantiate the behaviour factory a :class:`BehaviorSpec` names.

    Like :func:`build_scheduler`, params the builder cannot take are a spec
    error raised here -- at campaign validation -- not in a trial.
    """
    builder = BEHAVIORS.get(spec.behavior)
    params = BEHAVIORS.normalize(spec.behavior, spec.params)
    try:
        return builder(**params)
    except TypeError as exc:
        raise ExperimentError(
            f"behavior {spec.behavior!r} cannot be built from params "
            f"{sorted(params)}: {exc}"
        ) from exc


def build_scheduler(spec: Optional[SchedulerSpec]) -> Optional[net_scheduler.Scheduler]:
    """Instantiate the scheduler a :class:`SchedulerSpec` names (or ``None``).

    Params the builder cannot take (a missing or misspelt key, a value of
    the wrong shape) are a spec error, not a crash: campaign validation makes
    this call before any trial runs.  A builder's own :class:`ExperimentError`
    (a bad step budget, overlapping groups) is prefixed with the name the
    spec used, so an alias's errors name the alias.
    """
    if spec is None:
        return None
    builder = SCHEDULERS.get(spec.scheduler)
    params = SCHEDULERS.normalize(spec.scheduler, spec.params)
    try:
        return builder(**params)
    except TypeError as exc:
        raise ExperimentError(
            f"scheduler {spec.scheduler!r} cannot be built from params "
            f"{sorted(params)}: {exc}"
        ) from exc
    except ExperimentError as exc:
        raise ExperimentError(f"scheduler {spec.scheduler!r}: {exc}") from exc


#: Runner arguments the executor supplies itself, never read from ``params``.
_EXECUTOR_SUPPLIED = frozenset(
    {"n", "seed", "scheduler", "corruptions", "director", "session_table"}
)


@lru_cache(maxsize=64)
def runner_signature(
    runner: Callable[..., Any],
) -> Tuple[frozenset, Optional[frozenset], frozenset]:
    """``(required, accepted, extras)`` keyword names of a registered runner.

    ``required`` are the names ``params`` must supply (no default, not
    supplied by the executor); ``accepted`` the names it may supply, ``None``
    when the runner takes ``**kwargs`` or cannot be introspected (a C
    callable); ``extras`` which of ``director`` / ``session_table`` the
    runner takes.  Registered runners are only required to take ``n`` /
    ``seed`` / ``scheduler`` / ``corruptions``: the in-tree
    :mod:`repro.core.api` runners take both extras, a downstream registry
    entry may not, and must keep working without them.
    """
    extras = frozenset({"director", "session_table"})
    try:
        parameters = inspect.signature(runner).parameters.values()
    except (TypeError, ValueError):  # builtins / C callables
        return frozenset(), None, frozenset()
    named = {
        p.name: p.default is p.empty
        for p in parameters
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    required = (
        frozenset(name for name, needed in named.items() if needed)
        - _EXECUTOR_SUPPLIED
    )
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return required, None, extras
    return required, frozenset(named) - _EXECUTOR_SUPPLIED, extras.intersection(named)


#: Observation switches: JSON booleans only (a string such as ``"false"``
#: would be truthy, and ``metrics`` builds a registry from anything else).
_BOOL_PARAMS = ("tracing", "metering", "metrics")
#: Runner params that take Python objects (trace sinks, a coin source),
#: which a plain-JSON spec cannot carry.
_OBJECT_PARAMS = ("sinks", "coin_source")
#: Iteration and size params: the least value each takes, as a non-bool int
#: (a coinflip ``rounds`` of 0 or null would fall back to the paper-scale
#: iteration count; FairChoice needs ``m >= 3`` candidates).
_INT_PARAMS = {"rounds": 1, "coinflip_rounds": 1, "m": 3}


#: Per-party ``inputs`` of the agreement runners: the values one party's
#: input may take (None: any value but None -- an FBA value is any object)
#: and whether every party needs one (an FBA party without one cannot start;
#: a binary-agreement party defaults to 0).
_INPUT_RULES = {"aba": ((0, 1), False), "fba": (None, True)}


def _inputs_problem(protocol: str, inputs: Any, n: int) -> Optional[str]:
    """Why ``inputs`` is no per-party input map of ``protocol`` at ``n`` (or None)."""
    if not isinstance(inputs, Mapping):
        return f"param 'inputs' must map party ids to inputs, got {inputs!r}"
    domain, every = _INPUT_RULES.get(protocol, (None, False))
    seen = set()
    for pid, value in inputs.items():
        party = party_key(pid)
        if not is_int(party) or not 0 <= party < n:
            return f"inputs key {pid!r} is not a party id in 0..{n - 1}"
        seen.add(party)
        if domain is None and value is None:
            return f"the input of party {party} is missing (null)"
        if domain is not None and not (is_int(value) and value in domain):
            return (
                f"the input of party {party} must be one of "
                f"{', '.join(map(str, domain))}, got {value!r}"
            )
    if every and len(seen) < n:
        missing = sorted(set(range(n)) - seen)
        return f"param 'inputs' has no input for parties {missing}"
    return None


def _param_value_problem(params: Mapping[str, Any]) -> Optional[str]:
    """Why a value in ``params`` cannot reach its runner from a JSON spec (or None)."""
    for name in _OBJECT_PARAMS:
        if name in params:
            return f"param {name!r} takes a Python object and cannot be set from a spec"
    for name in _BOOL_PARAMS:
        if name in params and not isinstance(params[name], bool):
            return f"param {name!r} must be true or false, got {params[name]!r}"
    for name, least in _INT_PARAMS.items():
        value = params.get(name, least)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            return f"param {name!r} must be an integer >= {least}, got {value!r}"
    if "epsilon" in params:
        value = params["epsilon"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < 0.5:
            return f"param 'epsilon' must be a number in (0, 1/2), got {value!r}"
    if "secret" in params and not is_int(params["secret"]):
        return f"param 'secret' must be an integer, got {params['secret']!r}"
    return None


def runner_params_problem(
    protocol: str, params: Mapping[str, Any], n: int
) -> Optional[str]:
    """Why ``RUNNERS[protocol]`` cannot be called with ``params`` at ``n`` (or None).

    The runner-side twin of :func:`build_scheduler`'s check: a missing or
    misspelt param, a value of the wrong type or range for a known param
    (:func:`_param_value_problem`), a ``prime`` that is not a prime above
    ``n``, or ``inputs`` that are no input map of the runner at ``n``
    (:func:`_inputs_problem`), is a spec error raised at validation
    (campaign cell, ablation grid, beacon request), not an exception in a
    worker after dispatch.  Two set operations per call, plus a
    :class:`ProtocolParams` build when ``prime`` is given and one pass over
    ``inputs``; the name sets and the primality test are computed once per
    runner / modulus.
    """
    required, accepted, _ = runner_signature(RUNNERS.get(protocol))
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
    problem = _param_value_problem(params)
    if problem is not None:
        return f"runner {protocol!r}: {problem}"
    if "prime" in params:
        try:
            ProtocolParams.for_parties(n, prime=params["prime"])
        except ConfigurationError as exc:
            return f"runner {protocol!r} at n={n}: {exc}"
    if "inputs" in params:
        problem = _inputs_problem(protocol, params["inputs"], n)
        if problem is not None:
            return f"runner {protocol!r} at n={n}: {problem}"
    return None


# ----------------------------------------------------------------------
# The hostile scheduler family (and the alias rows over it) registers itself
# on import; pulling it in here (at the end, once the registries and builders
# above exist) means campaigns can name targeted_delay / session_starvation /
# partition_heal / rushing / isolate_party ... whether or not repro.scenarios
# was imported first.
import repro.scenarios.schedulers  # noqa: E402,F401  (self-registration)
import repro.scenarios.tamper  # noqa: E402,F401  (registers the tamper behaviour)
