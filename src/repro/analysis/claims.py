"""Machine-checked paper claims over campaign results.

Each claim is a falsifiable statement from the paper (or its standard
asynchronous-BA prerequisites) evaluated against the aggregated statistics of
a campaign: the CoinFlip bias bound, FairChoice / FBA fair validity,
``t < n/3`` corruption tolerance, agreement and validity of the
agreement-guaranteeing protocols, the honest message-complexity envelope,
and expected-constant-round termination.

A claim is one row of :data:`CLAIMS` (a :class:`Claim`): its name and
statement, which cells it applies to and why it skips when none does, a
judge of one cell's aggregate that returns a failure or a detail, and, where
the per-cell details say nothing, a pass summary.  :func:`evaluate` composes
the per-cell verdicts into a :class:`ClaimResult`; adding a claim is adding
a row.

The evaluation is deliberately conservative about randomness: probabilistic
claims fail only when the data *statistically refutes* them.  The coin-bias
claim, for example, asserts ``Pr[output = v] >= 1/2 - eps`` for both bits;
it fails only when the 95% Wilson upper confidence bound
(:func:`repro.analysis.binomial.wilson_interval`) on a bit's frequency drops
below the bound -- a handful of honest seeds landing on one side passes, a
genuinely rigged coin does not.  Deterministic claims (agreement, binary
outputs, corruption budgets, step bounds) fail on the first counterexample.

Entry point: :func:`evaluate_claims` produces a :class:`ClaimReport`, which
:mod:`repro.experiments.report` renders; ``repro-experiments ablate`` and
``report --campaign`` gate their exit status on :attr:`ClaimReport.passed`,
which is what the CI smoke job enforces.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.analysis.binomial import wilson_interval
from repro.analysis.complexity import predicted_messages
from repro.analysis.fairness import fba_fair_validity_bound, paper_validity_lower_bound
from repro.core.config import max_faults
from repro.errors import ExperimentError
from repro.scenarios.engine import ScenarioRuntime
from repro.scenarios.invariants import (
    AGREEMENT_PROTOCOLS,
    BINARY_OUTPUT_PROTOCOLS,
    delivery_envelope,
)
from repro.scenarios.library import get_scenario

if TYPE_CHECKING:
    from repro.core.results import TrialAggregate
    from repro.experiments.spec import CampaignSpec, ExperimentSpec

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

#: Default CoinFlip bias target when a cell does not set ``epsilon``:
#: matches the runner's own default.
DEFAULT_EPSILON = 0.25

#: Honest executions may legitimately exceed the closed-form expected message
#: counts (expectations are over scheduler randomness; a run is a sample),
#: so the envelope claim allows this multiplicative slack.
DEFAULT_MESSAGE_SLACK = 3.0


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of evaluating one claim against one campaign.

    Attributes:
        claim: stable machine identifier (``coin_bias``, ``agreement``, ...).
        statement: the paper claim in one human-readable sentence.
        status: ``"pass"``, ``"fail"`` or ``"skip"`` (no applicable cells).
        detail: evidence -- per-cell numbers for passes, the counterexample
            for failures, the reason for skips.
        cells: names of the campaign cells the claim was evaluated on.
    """

    claim: str
    statement: str
    status: str
    detail: str
    cells: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "cells": list(self.cells)}


@dataclass
class ClaimReport:
    """Every claim's verdict for one campaign."""

    campaign: str
    results: List[ClaimResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no claim failed (skips do not fail the gate)."""
        return all(result.status != FAIL for result in self.results)

    @property
    def counts(self) -> Dict[str, int]:
        counts = {PASS: 0, FAIL: 0, SKIP: 0}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "passed": self.passed,
            "counts": self.counts,
            "claims": [result.to_dict() for result in self.results],
        }


Verdict = Tuple[Optional[str], Optional[str]]


@dataclass(frozen=True)
class Claim:
    """One claim, declared as a row.

    Attributes:
        name: the stable identifier a :class:`ClaimResult` carries.
        statement: the claim in one sentence.
        skip: the reason reported when no cell applies.
        applies: ``(cell, data) -> case``: None or False when the claim
            does not apply to the cell, otherwise what the judge needs (a
            bound, a prediction) or True.
        judge: ``(cell, data, case) -> (failure, detail)``: a failure (None
            when the cell passes) fails the claim; the passing cells'
            details are its evidence.
        summary: for claims whose per-cell details say nothing, the pass
            detail ``"<summary> over <trials> trials in <k> cells"``.
    """

    name: str
    statement: str
    skip: str
    applies: Callable[[Any, Any], Any]
    judge: Callable[[Any, Any, Any], Verdict]
    summary: Optional[str] = None


def evaluate(claim: Claim, items: Iterable[Tuple[str, Any, Any]]) -> ClaimResult:
    """Judge ``claim`` over ``(name, cell, data)`` items: skip when none
    applies, fail with every failure, else pass with the evidence."""
    judged = []
    failures = []
    details = []
    for name, cell, data in items:
        case = claim.applies(cell, data)
        if case is None or case is False:
            continue
        judged.append((name, data))
        failure, detail = claim.judge(cell, data, case)
        if failure is not None:
            failures.append(failure)
        elif detail is not None:
            details.append(detail)
    if not judged:
        return ClaimResult(claim.name, claim.statement, SKIP, claim.skip)
    cells = tuple(name for name, _ in judged)
    if failures:
        return ClaimResult(claim.name, claim.statement, FAIL, "; ".join(failures), cells)
    if claim.summary is not None:
        trials = sum(data.trials for _, data in judged)
        details = [f"{claim.summary} over {trials} trials in {len(judged)} cells"]
    return ClaimResult(claim.name, claim.statement, PASS, "; ".join(details), cells)


# ----------------------------------------------------------------------
def _is_honest(cell: ExperimentSpec) -> bool:
    """True when the cell runs without any adversary (scenario or static)."""
    return cell.scenario is None and not cell.adversary


def _honest_with_messages(cell: ExperimentSpec, agg: TrialAggregate) -> bool:
    """An honest cell that collected message statistics (run traced or
    metered; a cell run with neither reports zero messages)."""
    return _is_honest(cell) and agg.total_messages > 0


def _coin_bias_bound(cell: ExperimentSpec, agg: TrialAggregate) -> Optional[float]:
    """``1/2 - eps`` at an honest ``coinflip`` cell's own ``epsilon``."""
    if cell.protocol != "coinflip" or not _is_honest(cell):
        return None
    return 0.5 - float(cell.params.get("epsilon", DEFAULT_EPSILON))


def _judge_coin_bias(cell: ExperimentSpec, agg: TrialAggregate, bound: float) -> Verdict:
    """Theorem 3.5: refuted when a bit's 95% Wilson upper bound falls below
    ``1/2 - eps``."""
    failures = []
    for bit in ("0", "1"):
        count = agg.value_counts.get(bit, 0)
        _low, high = wilson_interval(count, agg.trials)
        if high < bound:
            failures.append(
                f"{cell.name}: Pr[coin={bit}] <= {high:.3f} (95% UCB, "
                f"{count}/{agg.trials}) refutes bound {bound:.3f}"
            )
    freq0 = agg.value_counts.get("0", 0) / agg.trials
    freq1 = agg.value_counts.get("1", 0) / agg.trials
    detail = (
        f"{cell.name}: freq(0)={freq0:.2f} freq(1)={freq1:.2f} "
        f"(bound {bound:.2f}, {agg.trials} trials)"
    )
    return "; ".join(failures) or None, detail


def _honest_wins(
    cell: ExperimentSpec, agg: TrialAggregate
) -> Optional[Tuple[List[str], float]]:
    """The outputs a fair-validity cell counts as honest wins, and their bound.

    ``fair_choice`` (Theorem 4.3): the smallest majority subset
    ``{0 .. m // 2}`` of ``{0 .. m - 1}``, at
    :func:`~repro.analysis.fairness.paper_validity_lower_bound` of ``m``.
    ``fba`` (Theorem 4.5): the honest parties' inputs, when they diverge, at
    :func:`~repro.analysis.fairness.fba_fair_validity_bound`.  None for any
    other cell, and for scenario cells, whose honest set is decided per
    trial.
    """
    if cell.scenario is not None:
        return None
    if cell.protocol == "fair_choice" and "m" in cell.params:
        m = int(cell.params["m"])
        return [repr(value) for value in range(m // 2 + 1)], paper_validity_lower_bound(m)
    inputs = cell.params.get("inputs")
    if cell.protocol == "fba" and isinstance(inputs, Mapping):
        corrupted = {str(pid) for pid in cell.adversary}
        honest = {
            repr(value) for pid, value in inputs.items() if str(pid) not in corrupted
        }
        if len(honest) > 1:
            return sorted(honest), fba_fair_validity_bound(cell.n, max_faults(cell.n))
    return None


def _judge_fair_validity(
    cell: ExperimentSpec, agg: TrialAggregate, target: Tuple[List[str], float]
) -> Verdict:
    """Theorems 4.3 / 4.5: refuted when the 95% Wilson upper bound on the
    honest-win frequency falls below the bound; a trial in which honest
    parties disagree is a loss."""
    wins, bound = target
    count = sum(agg.value_counts.get(value, 0) for value in wins)
    _low, high = wilson_interval(count, agg.trials)
    if high < bound:
        return (
            f"{cell.name}: Pr[honest win] <= {high:.3f} (95% UCB, "
            f"{count}/{agg.trials}) refutes bound {bound:.3f}"
        ), None
    return None, f"{cell.name}: {count}/{agg.trials} honest wins (bound {bound:.3f})"


def _static_corruptions(cell: ExperimentSpec) -> int:
    """Parties every trial of ``cell`` corrupts before it starts.

    The cell's ``adversary`` plus, for a scenario cell, the scenario's static
    plan resolved at the cell's ``n`` -- the map
    :class:`~repro.experiments.runner.CellExecutor` hands the runner.  A
    scenario name that does not resolve adds no plan.
    """
    pids = set(cell.adversary)
    if cell.scenario is not None:
        try:
            scenario = get_scenario(cell.scenario)
        except ExperimentError:
            pass
        else:
            pids.update(ScenarioRuntime(scenario, n=cell.n).static_corruptions())
    return len(pids)


def _judge_corruption_tolerance(cell: ExperimentSpec, agg: TrialAggregate, _: Any) -> Verdict:
    """The resilience model: at most t = floor((n-1)/3) corruptions a trial.

    The evidence is every trial's static corruptions plus the director's
    recorded ``corrupt`` actions, judged against ``t * trials`` (the
    director's budget counts the static plan and makes per-trial overruns
    impossible, so an aggregate overrun means the budget broke).
    """
    t = max_faults(cell.n)
    static = _static_corruptions(cell)
    failures = []
    if static > t:
        failures.append(f"{cell.name}: {static} statically corrupted parties > t={t}")
    corruptions = static * agg.trials + agg.director_actions.get("corrupt", 0)
    budget = t * agg.trials
    if corruptions > budget:
        failures.append(
            f"{cell.name}: {corruptions} corruptions over "
            f"{agg.trials} trials exceeds t*trials={budget}"
        )
    detail = f"{cell.name}: corruptions={corruptions} <= t*trials={budget}"
    return "; ".join(failures) or None, detail


def _judge_agreement(cell: ExperimentSpec, agg: TrialAggregate, _: Any) -> Verdict:
    if agg.disagreements:
        return f"{cell.name}: {agg.disagreements}/{agg.trials} trials disagreed", None
    return None, None


def _judge_output_domain(cell: ExperimentSpec, agg: TrialAggregate, _: Any) -> Verdict:
    stray = sorted(set(agg.value_counts) - {"0", "1"})
    if stray:
        return f"{cell.name}: non-bit outputs {stray}", None
    return None, None


def _predicted(cell: ExperimentSpec, agg: TrialAggregate) -> Optional[float]:
    """The closed-form prediction of an honest cell with message statistics."""
    if not _honest_with_messages(cell, agg):
        return None
    return predicted_messages(cell.protocol, cell.n, cell.params) or None


def _judge_message_complexity(
    cell: ExperimentSpec, agg: TrialAggregate, predicted: float
) -> Verdict:
    ratio = agg.mean_messages / predicted
    if ratio > DEFAULT_MESSAGE_SLACK:
        return (
            f"{cell.name}: {agg.mean_messages:.0f} msgs/trial is "
            f"{ratio:.2f}x the predicted {predicted:.0f} (> {DEFAULT_MESSAGE_SLACK:g}x)"
        ), None
    return None, f"{cell.name}: {ratio:.2f}x of {predicted:.0f}"


def _judge_message_lower_bound(cell: ExperimentSpec, agg: TrialAggregate, _: Any) -> Verdict:
    """Omega(n): with every honest party taking part, a trial delivers at
    least ``n - t`` messages (a party that sends nothing cannot be told from
    a crashed one).  A mean below that floor means the message accounting
    is broken -- results that look impossibly cheap are wrong, not fast."""
    floor = cell.n - max_faults(cell.n)
    if agg.mean_messages < floor:
        return (
            f"{cell.name}: mean {agg.mean_messages:.1f} msgs/trial is "
            f"below the n-t={floor} lower bound (n={cell.n}) -- "
            f"message accounting is broken"
        ), None
    return None, f"{cell.name}: {agg.mean_messages:.0f} >= n-t={floor}"


def _judge_termination(cell: ExperimentSpec, agg: TrialAggregate, bound: int) -> Verdict:
    """Expected-constant-round termination keeps deliveries polynomial with
    a small constant: every cell's mean is held to the per-trial safety
    invariants' own envelope
    (:func:`repro.scenarios.invariants.delivery_envelope`)."""
    if agg.mean_steps > bound:
        return f"{cell.name}: mean {agg.mean_steps:.0f} steps exceeds bound {bound}", None
    return None, f"{cell.name}: {agg.mean_steps:.0f}/{bound}"


#: The shipped campaign claims, in report order.
CLAIMS = (
    Claim(
        "coin_bias",
        "CoinFlip outputs each bit with probability >= 1/2 - epsilon",
        "no honest coinflip cells in campaign",
        _coin_bias_bound,
        _judge_coin_bias,
    ),
    Claim(
        "fair_validity",
        "FairChoice and FBA with divergent honest inputs pick an honest "
        "choice with probability >= the Appendix-E bound",
        "no fair_choice or divergent-input fba cells in campaign",
        _honest_wins,
        _judge_fair_validity,
    ),
    Claim(
        "corruption_tolerance",
        "every adversary stays within the t < n/3 corruption budget",
        "no adversarial cells in campaign",
        lambda cell, agg: not _is_honest(cell),
        _judge_corruption_tolerance,
    ),
    Claim(
        "agreement",
        "agreement-guaranteeing protocols produce identical honest outputs",
        "no agreement-guaranteeing cells in campaign",
        lambda cell, agg: cell.protocol in AGREEMENT_PROTOCOLS,
        _judge_agreement,
        summary="0 disagreements",
    ),
    Claim(
        "output_domain",
        "binary-output protocols (coin, ABA) only output 0 or 1",
        "no binary-output cells in campaign",
        lambda cell, agg: cell.protocol in BINARY_OUTPUT_PROTOCOLS,
        _judge_output_domain,
        summary="all outputs in {0,1}",
    ),
    Claim(
        "message_complexity",
        "honest executions send at most "
        f"{DEFAULT_MESSAGE_SLACK:g}x the analytical expected message count",
        "no honest cells with message stats and predictions",
        _predicted,
        _judge_message_complexity,
    ),
    Claim(
        "message_lower_bound",
        "honest executions deliver at least n - t messages per trial (Omega(n))",
        "no honest cells with message stats",
        _honest_with_messages,
        _judge_message_lower_bound,
    ),
    Claim(
        "termination",
        "protocols terminate within the analytical delivery envelope",
        "no cells with results",
        lambda cell, agg: delivery_envelope(cell.protocol, cell.n, cell.params),
        _judge_termination,
    ),
)


def evaluate_claims(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimReport:
    """Evaluate every shipped claim against a campaign's aggregates.

    ``results`` maps cell names to :class:`TrialAggregate` (e.g. a result
    store's contents); cells without results are ignored by each claim, and
    claims with no applicable cells report ``skip`` rather than vacuous
    success, so a report that passes says what it actually checked.
    """
    items = []
    for cell in campaign.cells:
        aggregate = results.get(cell.name)
        if aggregate is not None and aggregate.trials > 0:
            items.append((cell.name, cell, aggregate))
    return ClaimReport(
        campaign=campaign.name, results=[evaluate(claim, items) for claim in CLAIMS]
    )


# ----------------------------------------------------------------------
def _judge_avss_candidate(name: str, row: Any, _: Any) -> Verdict:
    """A candidate with Secrecy, share-phase Termination and
    ``(2/3 + eps)``-correctness at ``n <= 4t`` all at once would refute
    Theorem 2.2."""
    if not row.consistent_with_theorem:
        failure = row.claim2_wrong_output_rate + row.claim2_no_output_rate
        return (
            f"{name}: secrecy and termination hold yet the attack "
            f"failure rate {failure:.2f} stays within the 1/3 "
            f"correctness budget -- this would refute the theorem"
        ), None
    if row.secrecy_holds and row.termination_rate > 0.99:
        reason = "attacks break correctness"
    elif not row.secrecy_holds:
        reason = "secrecy already fails"
    else:
        reason = "termination already fails"
    return None, f"{name}: consistent ({reason})"


#: Theorem 2.2 as a claim over E6 lower-bound rows.
AVSS_LOWER_BOUND = Claim(
    "avss_lower_bound",
    "no candidate AVSS with secrecy and termination at n <= 4t is "
    "(2/3 + eps)-correct (Theorem 2.2)",
    "no lower-bound rows to evaluate",
    lambda name, row: True,
    _judge_avss_candidate,
)


def avss_lower_bound_claim(rows: Mapping[str, Any]) -> ClaimResult:
    """:data:`AVSS_LOWER_BOUND` over E6 lower-bound rows.

    ``rows`` maps candidate names to
    :class:`~repro.lowerbound.experiment.LowerBoundRow`.  Used by
    ``examples/lower_bound_attack.py`` to gate its exit status.
    """
    return evaluate(
        AVSS_LOWER_BOUND, [(name, name, row) for name, row in sorted(rows.items())]
    )
