"""Declarative safety invariants checked against scenario trial results.

Every adversarial scenario, whatever it throws at the protocol, must leave
the *guaranteed* properties intact: the corruption budget never exceeds the
resilience bound ``t < n/3``, every never-corrupted party terminates within
the step bound, and -- for the protocols that promise it -- honest outputs
agree and are valid.  This module turns those guarantees into executable
checks so a whole campaign grid fails loudly the moment a scenario breaks
one, instead of silently aggregating garbage.

The checks are **protocol-aware**: a weak common coin explicitly does *not*
guarantee agreement (honest parties may output different bits -- that is the
"weak" in the name), so requiring agreement there would reject correct
executions.  :data:`AGREEMENT_PROTOCOLS` lists the runners whose honest
outputs must be identical; the binary/range/validity checks are keyed per
runner the same way.

Entry points:

* :func:`check_result` -- run every applicable invariant against one
  :class:`~repro.net.runtime.SimulationResult`; returns the violations.
* :func:`check_scenario_result` -- convenience wrapper pulling protocol,
  params and director from a :class:`~repro.scenarios.spec.ScenarioSpec`
  and the result's network.
* :func:`assert_invariants` -- raise :class:`~repro.errors.ExperimentError`
  listing every violation (what the campaign runner and the CLI ``--check``
  mode call).
* :func:`run_failure_violation` -- the ``termination`` violation of a trial
  whose run raised :class:`~repro.errors.SimulationError` (the network ran
  dry, or hit its delivery cap) instead of returning a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.core.config import max_faults
from repro.errors import ExperimentError, SimulationError
from repro.net.runtime import SimulationResult

#: Runners whose honest outputs are guaranteed identical.  ``weak_coin`` and
#: ``coinflip`` are deliberately absent: a weak coin only promises *common*
#: outputs with some probability, and Algorithm 1's coin tolerates an
#: epsilon of disagreement -- both are correct even when honest bits differ.
AGREEMENT_PROTOCOLS = frozenset(
    {"acast", "svss", "aba", "common_subset", "fba", "fair_choice"}
)

#: Runners whose honest outputs must be bits.
BINARY_OUTPUT_PROTOCOLS = frozenset({"weak_coin", "coinflip", "aba"})

#: The floor of :func:`delivery_envelope`: ``DEFAULT_STEP_FACTOR * n**2``
#: deliveries, for protocols without a message prediction.  Alone it is too
#: tight for a weak coin at n >= 16 (library scenarios take up to 72% of it
#: at n=32); the envelope keeps every library scenario at n <= 32 ten times
#: under, while still catching runaway executions long before the network's
#: own ``DEFAULT_MAX_STEPS`` safety valve.
DEFAULT_STEP_FACTOR = 120

#: Slack over the closed-form honest message prediction: expectations are
#: over scheduler randomness and a run is a sample.
DELIVERY_SLACK = 3.0


@dataclass(frozen=True)
class InvariantViolation:
    """One broken guarantee.

    Attributes:
        invariant: which check failed (``agreement``, ``validity``,
            ``termination``, ``step_bound``, ``budget``).
        detail: human-readable explanation with the offending values.
    """

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return f"{self.invariant}: {self.detail}"


def default_step_bound(n: int) -> int:
    """The flat ``120 n**2`` floor of :func:`delivery_envelope`."""
    return DEFAULT_STEP_FACTOR * n * n


def delivery_envelope(
    protocol: str, n: int, params: Optional[Mapping[str, Any]] = None
) -> int:
    """The delivery bound of one trial: ``max(120 n**2, ceil(3 * predicted))``.

    ``predicted`` is the honest-execution message count of
    :func:`repro.analysis.complexity.predicted_messages` (each delivery is one
    step); a protocol without a prediction gets the flat floor.  It is the
    one envelope: :func:`check_result`'s step bound per trial and the
    ``termination`` claim (:data:`repro.analysis.claims.CLAIMS`)
    over a cell's mean.
    """
    from repro.analysis.complexity import predicted_messages

    bound = default_step_bound(n)
    predicted = predicted_messages(protocol, n, params or {})
    if predicted is None:
        return bound
    return max(bound, math.ceil(DELIVERY_SLACK * predicted))


def check_result(
    result: SimulationResult,
    protocol: str,
    n: Optional[int] = None,
    director: Optional[Any] = None,
    params: Optional[Mapping[str, Any]] = None,
    step_bound: Optional[int] = None,
) -> List[InvariantViolation]:
    """Evaluate every applicable invariant; return the violations (may be []).

    Args:
        result: the finished trial.
        protocol: runner name the trial executed (selects which guarantees
            apply -- see :data:`AGREEMENT_PROTOCOLS`).
        n: party count (default: read off the result's network).
        director: the trial's :class:`~repro.scenarios.engine.ScenarioDirector`
            (default: the one installed on the network, if any); used for the
            budget check.
        params: runner parameters (``secret``, ``inputs``, ``m``...) that
            sharpen the validity checks.
        step_bound: delivery cap for the termination-by-step-bound check
            (default: :func:`delivery_envelope` of the protocol, ``n`` and
            ``params``).
    """
    network = result.network
    if n is None:
        n = network.params.n
    if director is None:
        director = getattr(network, "director", None)
    params = dict(params or {})
    t = max_faults(n)
    violations: List[InvariantViolation] = []

    # -- budget: the adversary never controls more than t parties. ----------
    ever_corrupted = [p.pid for p in network.processes if p.ever_corrupted]
    if len(ever_corrupted) > t:
        violations.append(InvariantViolation(
            "budget",
            f"adversary controlled {len(ever_corrupted)} parties "
            f"{sorted(ever_corrupted)} but t={t} at n={n}",
        ))
    if director is not None and len(director.corrupted) > director.budget:
        violations.append(InvariantViolation(
            "budget",
            f"director corrupted {len(director.corrupted)} parties over its "
            f"budget of {director.budget}",
        ))

    # -- termination: every never-corrupted party produced an output. -------
    honest = [p.pid for p in network.processes if not p.ever_corrupted]
    missing = sorted(pid for pid in honest if pid not in result.outputs)
    if missing:
        violations.append(InvariantViolation(
            "termination",
            f"honest parties {missing} produced no output after "
            f"{result.steps} deliveries",
        ))

    # -- step bound: the run finished within the declared budget. -----------
    if step_bound is None:
        bound = delivery_envelope(protocol, n, params)
    else:
        bound = int(step_bound)
    if result.steps > bound:
        violations.append(InvariantViolation(
            "step_bound",
            f"trial took {result.steps} deliveries, over the bound of {bound}",
        ))

    # -- agreement: protocols that promise identical honest outputs. --------
    distinct = {repr(v): v for v in result.outputs.values()}
    if protocol in AGREEMENT_PROTOCOLS and len(distinct) > 1:
        violations.append(InvariantViolation(
            "agreement",
            f"{protocol} honest outputs disagree: {result.outputs!r}",
        ))

    violations.extend(_check_validity(result, protocol, params, network))
    return violations


def run_failure_violation(error: SimulationError) -> InvariantViolation:
    """The ``termination`` violation of a trial that raised instead of returning.

    A run that goes quiescent (or hits its delivery cap) before every honest
    party has an output is the same broken guarantee :func:`check_result`
    reports for a run that returned early, found by the network instead.
    """
    network = error.network
    if network is None:  # raised before the run began driving the network
        return InvariantViolation("termination", str(error))
    finished = network.honest_outputs(network.root_recipe[0])
    missing = sorted(set(network.honest_pids()) - set(finished))
    how = "network ran dry" if not network.pending else "delivery cap reached"
    return InvariantViolation(
        "termination",
        f"{how} after {network.step_count} deliveries; "
        f"honest parties without output: {missing}",
    )


def _check_validity(
    result: SimulationResult,
    protocol: str,
    params: Dict[str, Any],
    network: Any,
) -> List[InvariantViolation]:
    """Protocol-specific output-domain and validity checks."""
    violations: List[InvariantViolation] = []
    outputs = result.outputs

    if protocol in BINARY_OUTPUT_PROTOCOLS:
        bad = {pid: v for pid, v in outputs.items() if v not in (0, 1)}
        if bad:
            violations.append(InvariantViolation(
                "validity", f"{protocol} outputs outside {{0, 1}}: {bad!r}"
            ))

    if protocol == "fair_choice" and "m" in params:
        m = int(params["m"])
        bad = {pid: v for pid, v in outputs.items() if v not in range(m)}
        if bad:
            violations.append(InvariantViolation(
                "validity", f"fair_choice outputs outside range({m}): {bad!r}"
            ))

    if protocol == "svss" and "secret" in params and outputs:
        dealer = int(params.get("dealer", 0))
        if not network.processes[dealer].ever_corrupted:
            secret = int(params["secret"])
            bad = {pid: v for pid, v in outputs.items() if v != secret}
            if bad:
                violations.append(InvariantViolation(
                    "validity",
                    f"svss honest dealer shared {secret} but honest parties "
                    f"reconstructed {bad!r}",
                ))

    if protocol == "acast" and "value" in params and outputs:
        sender = int(params.get("sender", 0))
        if not network.processes[sender].ever_corrupted:
            value = params["value"]
            bad = {pid: v for pid, v in outputs.items() if v != value}
            if bad:
                violations.append(InvariantViolation(
                    "validity",
                    f"acast honest sender broadcast {value!r} but honest "
                    f"parties delivered {bad!r}",
                ))

    if protocol in ("aba", "fba") and isinstance(params.get("inputs"), Mapping):
        # Unanimity validity: when every never-corrupted party proposed the
        # same value, that value is the only permissible decision.
        honest_inputs = {
            v
            for pid, v in params["inputs"].items()
            if not network.processes[int(pid)].ever_corrupted
        }
        if len(honest_inputs) == 1 and outputs:
            (value,) = honest_inputs
            bad = {pid: v for pid, v in outputs.items() if v != value}
            if bad:
                violations.append(InvariantViolation(
                    "validity",
                    f"{protocol} unanimous honest input {value!r} but honest "
                    f"parties decided {bad!r}",
                ))

    return violations


def check_scenario_result(
    spec: Any,
    result: SimulationResult,
    n: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
    step_bound: Optional[int] = None,
) -> List[InvariantViolation]:
    """Run :func:`check_result` with protocol/params taken from a scenario spec.

    ``params`` overrides merge over the spec's own (mirroring how
    :func:`~repro.scenarios.engine.run_scenario` builds the runner call);
    input shorthands like ``"alternating"`` are expanded so the unanimity
    check sees real pid maps.
    """
    from repro.scenarios.engine import expand_inputs

    network = result.network
    merged: Dict[str, Any] = dict(getattr(spec, "params", None) or {})
    if params:
        merged.update(params)
    if "inputs" in merged:
        merged["inputs"] = expand_inputs(merged["inputs"], network.params.n)
    return check_result(
        result,
        protocol=getattr(spec, "protocol", None) or "weak_coin",
        n=n,
        params=merged,
        step_bound=step_bound,
    )


def assert_invariants(
    result: SimulationResult,
    protocol: str,
    context: str = "trial",
    **kwargs: Any,
) -> None:
    """Raise :class:`ExperimentError` listing every violated invariant."""
    violations = check_result(result, protocol, **kwargs)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise ExperimentError(
            f"invariant violation in {context}: {listing}"
        )
