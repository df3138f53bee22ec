"""Machine-checked paper claims over campaign results.

Each claim is a falsifiable statement from the paper (or its standard
asynchronous-BA prerequisites) evaluated against the aggregated statistics of
a campaign: the CoinFlip bias bound, FairChoice / FBA fair validity,
``t < n/3`` corruption tolerance, agreement and validity of the
agreement-guaranteeing protocols, the honest message-complexity envelope,
and expected-constant-round termination.

The evaluation is deliberately conservative about randomness: probabilistic
claims fail only when the data *statistically refutes* them.  The coin-bias
claim, for example, asserts ``Pr[output = v] >= 1/2 - eps`` for both bits;
it fails only when the 95% Wilson upper confidence bound
(:func:`repro.analysis.binomial.wilson_interval`) on a bit's frequency drops
below the bound -- a handful of honest seeds landing on one side passes, a
genuinely rigged coin does not.  Deterministic claims (agreement, binary
outputs, corruption budgets, step bounds) fail on the first counterexample.

Entry point: :func:`evaluate_claims` produces a :class:`ClaimReport` with
text / markdown / JSON renderings; ``repro-experiments ablate`` and
``report --claims`` gate their exit status on :attr:`ClaimReport.passed`,
which is what the CI smoke job enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.ablation import predicted_messages
from repro.analysis.binomial import wilson_interval

if TYPE_CHECKING:  # runtime-lazy for the same import-graph reason as ablation
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
        return {
            "claim": self.claim,
            "statement": self.statement,
            "status": self.status,
            "detail": self.detail,
            "cells": list(self.cells),
        }


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

    def render_text(self) -> str:
        lines = [f"claims: {self.campaign}"]
        for result in self.results:
            lines.append(f"[{result.status.upper():4s}] {result.claim}: {result.statement}")
            lines.append(f"       {result.detail}")
        counts = self.counts
        lines.append(
            f"{counts[PASS]} passed, {counts[FAIL]} failed, {counts[SKIP]} skipped"
        )
        return "\n".join(lines) + "\n"

    def render_markdown(self) -> str:
        lines = [
            f"### Claims: {self.campaign}",
            "",
            "| status | claim | statement | evidence |",
            "| --- | --- | --- | --- |",
        ]
        for result in self.results:
            lines.append(
                f"| {result.status} | `{result.claim}` | {result.statement} "
                f"| {result.detail} |"
            )
        counts = self.counts
        lines.append("")
        lines.append(
            f"**{counts[PASS]} passed, {counts[FAIL]} failed, "
            f"{counts[SKIP]} skipped.**"
        )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
def _is_honest(cell: ExperimentSpec) -> bool:
    """True when the cell runs without any adversary (scenario or static)."""
    return cell.scenario is None and not cell.adversary


def _cells_with_results(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> List[Tuple[ExperimentSpec, TrialAggregate]]:
    pairs = []
    for cell in campaign.cells:
        aggregate = results.get(cell.name)
        if aggregate is not None and aggregate.trials > 0:
            pairs.append((cell, aggregate))
    return pairs


def _skip(claim: str, statement: str, reason: str) -> ClaimResult:
    return ClaimResult(claim=claim, statement=statement, status=SKIP, detail=reason)


def check_coin_bias(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Theorem 3 (CoinFlip): each bit appears with probability >= 1/2 - eps.

    Evaluated per honest ``coinflip`` cell at the cell's own ``epsilon``
    (default :data:`DEFAULT_EPSILON`).  Fails only when a bit's 95% Wilson
    upper bound falls below ``1/2 - eps`` -- i.e. the observed frequencies
    are statistically incompatible with the claimed bound.
    """
    claim = "coin_bias"
    statement = "CoinFlip outputs each bit with probability >= 1/2 - epsilon"
    pairs = [
        (cell, agg)
        for cell, agg in _cells_with_results(campaign, results)
        if cell.protocol == "coinflip" and _is_honest(cell)
    ]
    if not pairs:
        return _skip(claim, statement, "no honest coinflip cells in campaign")
    details = []
    failures = []
    for cell, agg in pairs:
        epsilon = float(cell.params.get("epsilon", DEFAULT_EPSILON))
        bound = 0.5 - epsilon
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
        details.append(
            f"{cell.name}: freq(0)={freq0:.2f} freq(1)={freq1:.2f} "
            f"(bound {bound:.2f}, {agg.trials} trials)"
        )
    cells = tuple(cell.name for cell, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


def _honest_wins(cell: ExperimentSpec) -> Optional[Tuple[List[str], float]]:
    """The outputs a fair-validity cell counts as honest wins, and their bound.

    ``fair_choice`` (Theorem 4.3): the smallest majority subset
    ``{0 .. m // 2}`` of ``{0 .. m - 1}``, at
    :func:`~repro.analysis.fairness.paper_validity_lower_bound` of ``m``.
    ``fba`` (Theorem 4.5): the honest parties' inputs, when they diverge, at
    :func:`~repro.analysis.fairness.fba_fair_validity_bound`.  None for any
    other cell, and for scenario cells, whose honest set is decided per
    trial.
    """
    from repro.analysis.fairness import fba_fair_validity_bound, paper_validity_lower_bound
    from repro.core.config import max_faults

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


def check_fair_validity(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Theorems 4.3 / 4.5: an honest choice wins with probability above 1/2.

    FairChoice(m) lands in the smallest majority subset, and FBA with
    divergent honest inputs outputs an honest input, each with probability at
    least the Appendix-E bound (:func:`_honest_wins`).  A trial in which
    honest parties disagree counts as a loss.  Fails only when the 95% Wilson
    upper bound on the honest-win frequency falls below the bound, as
    :func:`check_coin_bias` does.
    """
    claim = "fair_validity"
    statement = (
        "FairChoice and FBA with divergent honest inputs pick an honest "
        "choice with probability >= the Appendix-E bound"
    )
    cases = []
    for cell, agg in _cells_with_results(campaign, results):
        target = _honest_wins(cell)
        if target is not None:
            cases.append((cell, agg) + target)
    if not cases:
        return _skip(
            claim, statement, "no fair_choice or divergent-input fba cells in campaign"
        )
    details = []
    failures = []
    for cell, agg, wins, bound in cases:
        count = sum(agg.value_counts.get(value, 0) for value in wins)
        _low, high = wilson_interval(count, agg.trials)
        if high < bound:
            failures.append(
                f"{cell.name}: Pr[honest win] <= {high:.3f} (95% UCB, "
                f"{count}/{agg.trials}) refutes bound {bound:.3f}"
            )
        details.append(
            f"{cell.name}: {count}/{agg.trials} honest wins (bound {bound:.3f})"
        )
    cells = tuple(cell.name for cell, *_ in cases)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


def check_corruption_tolerance(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Resilience model: the adversary corrupts at most t = floor((n-1)/3) parties.

    Static adversaries are bounded per cell spec; adaptive directors are
    bounded by their recorded ``corrupt`` actions, which may not exceed
    ``t`` per trial on average (the director's budget makes per-trial
    overruns impossible, so an aggregate overrun means the budget broke).
    """
    claim = "corruption_tolerance"
    statement = "every adversary stays within the t < n/3 corruption budget"
    pairs = [
        (cell, agg)
        for cell, agg in _cells_with_results(campaign, results)
        if not _is_honest(cell)
    ]
    if not pairs:
        return _skip(claim, statement, "no adversarial cells in campaign")
    from repro.core.config import max_faults

    details = []
    failures = []
    for cell, agg in pairs:
        t = max_faults(cell.n)
        static = len(cell.adversary)
        if static > t:
            failures.append(
                f"{cell.name}: {static} statically corrupted parties > t={t}"
            )
        corruptions = agg.director_actions.get("corrupt", 0)
        budget = t * agg.trials
        if corruptions > budget:
            failures.append(
                f"{cell.name}: {corruptions} director corruptions over "
                f"{agg.trials} trials exceeds t*trials={budget}"
            )
        details.append(
            f"{cell.name}: corruptions={corruptions} <= t*trials={budget}"
        )
    cells = tuple(cell.name for cell, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


def check_agreement(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Agreement: protocols that guarantee it never let honest outputs differ.

    Applies to every cell (honest or adversarial) whose protocol is in
    :data:`repro.scenarios.invariants.AGREEMENT_PROTOCOLS`; weak coins are
    exempt by design.
    """
    from repro.scenarios.invariants import AGREEMENT_PROTOCOLS

    claim = "agreement"
    statement = "agreement-guaranteeing protocols produce identical honest outputs"
    pairs = [
        (cell, agg)
        for cell, agg in _cells_with_results(campaign, results)
        if cell.protocol in AGREEMENT_PROTOCOLS
    ]
    if not pairs:
        return _skip(claim, statement, "no agreement-guaranteeing cells in campaign")
    failures = [
        f"{cell.name}: {agg.disagreements}/{agg.trials} trials disagreed"
        for cell, agg in pairs
        if agg.disagreements
    ]
    cells = tuple(cell.name for cell, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    total = sum(agg.trials for _, agg in pairs)
    return ClaimResult(
        claim,
        statement,
        PASS,
        f"0 disagreements over {total} trials in {len(pairs)} cells",
        cells,
    )


def check_output_domain(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Validity: binary-output protocols only ever output bits."""
    from repro.scenarios.invariants import BINARY_OUTPUT_PROTOCOLS

    claim = "output_domain"
    statement = "binary-output protocols (coin, ABA) only output 0 or 1"
    pairs = [
        (cell, agg)
        for cell, agg in _cells_with_results(campaign, results)
        if cell.protocol in BINARY_OUTPUT_PROTOCOLS
    ]
    if not pairs:
        return _skip(claim, statement, "no binary-output cells in campaign")
    failures = []
    for cell, agg in pairs:
        stray = sorted(set(agg.value_counts) - {"0", "1"})
        if stray:
            failures.append(f"{cell.name}: non-bit outputs {stray}")
    cells = tuple(cell.name for cell, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    total = sum(agg.trials for _, agg in pairs)
    return ClaimResult(
        claim,
        statement,
        PASS,
        f"all outputs in {{0,1}} over {total} trials in {len(pairs)} cells",
        cells,
    )


def check_message_complexity(
    campaign: CampaignSpec,
    results: Mapping[str, TrialAggregate],
    slack: float = DEFAULT_MESSAGE_SLACK,
) -> ClaimResult:
    """Complexity: honest executions stay within the closed-form envelope.

    Compares measured mean messages per trial against
    :func:`repro.analysis.ablation.predicted_messages` times ``slack`` for
    every honest cell that collected message statistics (cells run without
    tracing *and* without metering report zero messages and are skipped).
    """
    claim = "message_complexity"
    statement = (
        "honest executions send at most "
        f"{slack:g}x the analytical expected message count"
    )
    pairs = []
    for cell, agg in _cells_with_results(campaign, results):
        if not _is_honest(cell) or agg.total_messages == 0:
            continue
        predicted = predicted_messages(cell.protocol, cell.n, cell.params)
        if predicted:
            pairs.append((cell, agg, predicted))
    if not pairs:
        return _skip(
            claim, statement, "no honest cells with message stats and predictions"
        )
    details = []
    failures = []
    for cell, agg, predicted in pairs:
        ratio = agg.mean_messages / predicted
        if ratio > slack:
            failures.append(
                f"{cell.name}: {agg.mean_messages:.0f} msgs/trial is "
                f"{ratio:.2f}x the predicted {predicted:.0f} (> {slack:g}x)"
            )
        else:
            details.append(f"{cell.name}: {ratio:.2f}x of {predicted:.0f}")
    cells = tuple(cell.name for cell, _, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


def check_termination(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Termination: every protocol finishes within the analytical envelope.

    Expected-constant-round termination means delivered-message counts stay
    polynomial with a small constant.  The envelope is the per-trial
    safety invariants' own (:func:`repro.scenarios.invariants.delivery_envelope`:
    ``max(120 n**2, ceil(3 * predicted messages))``), applied to the
    aggregate mean.
    """
    from repro.scenarios.invariants import delivery_envelope

    claim = "termination"
    statement = "protocols terminate within the analytical delivery envelope"
    pairs = _cells_with_results(campaign, results)
    if not pairs:
        return _skip(claim, statement, "no cells with results")
    details = []
    failures = []
    for cell, agg in pairs:
        bound = delivery_envelope(cell.protocol, cell.n, cell.params)
        if agg.mean_steps > bound:
            failures.append(
                f"{cell.name}: mean {agg.mean_steps:.0f} steps exceeds "
                f"bound {bound}"
            )
        else:
            details.append(f"{cell.name}: {agg.mean_steps:.0f}/{bound}")
    cells = tuple(cell.name for cell, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


def check_message_lower_bound(
    campaign: CampaignSpec, results: Mapping[str, TrialAggregate]
) -> ClaimResult:
    """Lower bound: any fault-tolerant protocol sends at least Omega(n) messages.

    The complement of the upper-envelope claim: a protocol in which every
    honest party participates must deliver at least ``n - t`` messages per
    trial (with ``t = floor((n-1)/3)``, a party that sends nothing cannot be
    distinguished from a crashed one, and fewer than ``n - t`` active parties
    cannot carry a ``t``-resilient execution).  A measured mean *below* that
    floor means the message accounting itself is broken -- results that look
    impossibly cheap are wrong, not fast.  Evaluated per honest cell with
    message statistics; deterministic, so one counterexample fails.
    """
    claim = "message_lower_bound"
    statement = (
        "honest executions deliver at least n - t messages per trial (Omega(n))"
    )
    from repro.core.config import max_faults

    pairs = [
        (cell, agg)
        for cell, agg in _cells_with_results(campaign, results)
        if _is_honest(cell) and agg.total_messages > 0
    ]
    if not pairs:
        return _skip(claim, statement, "no honest cells with message stats")
    details = []
    failures = []
    for cell, agg in pairs:
        floor = cell.n - max_faults(cell.n)
        if agg.mean_messages < floor:
            failures.append(
                f"{cell.name}: mean {agg.mean_messages:.1f} msgs/trial is "
                f"below the n-t={floor} lower bound (n={cell.n}) -- "
                f"message accounting is broken"
            )
        else:
            details.append(
                f"{cell.name}: {agg.mean_messages:.0f} >= n-t={floor}"
            )
    cells = tuple(cell.name for cell, _ in pairs)
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


def avss_lower_bound_claim(rows: Mapping[str, Any]) -> ClaimResult:
    """Theorem 2.2 as a claim over E6 lower-bound rows.

    ``rows`` maps candidate names to
    :class:`~repro.lowerbound.experiment.LowerBoundRow`.  The theorem says a
    candidate AVSS with Secrecy and share-phase Termination at ``n <= 4t``
    must violate ``(2/3 + eps)``-correctness; a candidate satisfying all
    three at once would *refute* the paper, so it fails this claim.  Used by
    ``examples/lower_bound_attack.py`` to gate its exit status.
    """
    claim = "avss_lower_bound"
    statement = (
        "no candidate AVSS with secrecy and termination at n <= 4t is "
        "(2/3 + eps)-correct (Theorem 2.2)"
    )
    if not rows:
        return _skip(claim, statement, "no lower-bound rows to evaluate")
    details = []
    failures = []
    for name, row in sorted(rows.items()):
        if not row.consistent_with_theorem:
            failure = row.claim2_wrong_output_rate + row.claim2_no_output_rate
            failures.append(
                f"{name}: secrecy and termination hold yet the attack "
                f"failure rate {failure:.2f} stays within the 1/3 "
                f"correctness budget -- this would refute the theorem"
            )
        else:
            if row.secrecy_holds and row.termination_rate > 0.99:
                reason = "attacks break correctness"
            elif not row.secrecy_holds:
                reason = "secrecy already fails"
            else:
                reason = "termination already fails"
            details.append(f"{name}: consistent ({reason})")
    cells = tuple(sorted(rows))
    if failures:
        return ClaimResult(claim, statement, FAIL, "; ".join(failures), cells)
    return ClaimResult(claim, statement, PASS, "; ".join(details), cells)


#: The shipped claim checks, in report order.
CLAIM_CHECKS = (
    check_coin_bias,
    check_fair_validity,
    check_corruption_tolerance,
    check_agreement,
    check_output_domain,
    check_message_complexity,
    check_message_lower_bound,
    check_termination,
)


def evaluate_claims(
    campaign: CampaignSpec,
    results: Mapping[str, TrialAggregate],
    message_slack: float = DEFAULT_MESSAGE_SLACK,
) -> ClaimReport:
    """Evaluate every shipped claim against a campaign's aggregates.

    ``results`` maps cell names to :class:`TrialAggregate` (e.g. a result
    store's contents); cells without results are ignored by each claim, and
    claims with no applicable cells report ``skip`` rather than vacuous
    success, so a report that passes says what it actually checked.
    """
    report = ClaimReport(campaign=campaign.name)
    for check in CLAIM_CHECKS:
        if check is check_message_complexity:
            report.results.append(check(campaign, results, message_slack))
        else:
            report.results.append(check(campaign, results))
    return report
