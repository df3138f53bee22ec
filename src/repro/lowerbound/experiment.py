"""Experiment E6: empirical reproduction of the Theorem 2.2 lower bound.

For every candidate AVSS this module checks which of the AVSS properties the
candidate satisfies (Secrecy, share-phase Termination) using exact transcript
enumeration, then runs the two Section-2 attacks and reports their success
statistics.  The theorem predicts that any candidate satisfying Secrecy and
Termination must fail ``(2/3 + eps)``-correctness: an honest party outputs a
wrong value (or no value) with probability above ``1/3 - eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.lowerbound.attack import DealerSplitAttack, ReconstructionAttack
from repro.lowerbound.toy_avss import all_candidates
from repro.lowerbound.transcripts import CandidateAVSS, ShareEnumerator

#: Correctness threshold of Theorem 2.2: a (2/3 + eps)-correct AVSS may give a
#: wrong output with probability at most 1/3 - eps.
CORRECTNESS_FAILURE_THRESHOLD = 1.0 / 3.0


@dataclass(frozen=True)
class LowerBoundRow:
    """One candidate's row in the E6 table."""

    candidate: str
    secrecy_a: bool
    secrecy_b: bool
    termination_rate: float
    claim1_split_rate_given_guess: float
    claim1_guess_rate: float
    claim2_wrong_output_rate: float
    claim2_no_output_rate: float

    @property
    def secrecy_holds(self) -> bool:
        """True when no single party's view depends on the secret."""
        return self.secrecy_a and self.secrecy_b

    @property
    def correctness_violated(self) -> bool:
        """True when the measured failure rate exceeds the 1/3 threshold."""
        failure = self.claim2_wrong_output_rate + self.claim2_no_output_rate
        return failure > CORRECTNESS_FAILURE_THRESHOLD

    @property
    def consistent_with_theorem(self) -> bool:
        """Theorem 2.2: Secrecy + Termination implies a correctness violation."""
        if self.secrecy_holds and self.termination_rate > 0.99:
            return self.correctness_violated
        return True


def evaluate_candidate(
    candidate: CandidateAVSS,
    trials: int = 400,
    seed: int = 0,
) -> LowerBoundRow:
    """Run the property checks and both attacks against one candidate."""
    enumerator = ShareEnumerator(candidate, active=("D", "A", "B"))
    dealer_attack = DealerSplitAttack(candidate)
    rec_attack = ReconstructionAttack(candidate)
    claim1 = dealer_attack.success_statistics(trials, seed=seed)
    claim2 = rec_attack.success_statistics(trials, seed=seed + 1)
    return LowerBoundRow(
        candidate=candidate.name,
        secrecy_a=enumerator.secrecy_holds("A"),
        secrecy_b=enumerator.secrecy_holds("B"),
        termination_rate=enumerator.termination_rate(0),
        claim1_split_rate_given_guess=claim1["split_rate_given_guess"],
        claim1_guess_rate=claim1["guess_rate"],
        claim2_wrong_output_rate=claim2["a_wrong_output_rate"],
        claim2_no_output_rate=claim2["a_no_output_rate"],
    )


def run_experiment(trials: int = 400, seed: int = 0) -> Dict[str, LowerBoundRow]:
    """Evaluate every built-in candidate; returns rows keyed by candidate name."""
    rows = {}
    for candidate in all_candidates():
        rows[candidate.name] = evaluate_candidate(candidate, trials=trials, seed=seed)
    return rows


def format_report(rows: Sequence[LowerBoundRow]) -> str:
    """Human-readable report used by the example script."""
    lines = [
        "Lower-bound reproduction (Theorem 2.2, n=4, t=1)",
        "",
        f"{'candidate':<14}{'secrecy':<9}{'term.':<7}"
        f"{'claim1 split|guess':<20}{'claim2 wrong':<14}{'violates 2/3-corr.':<18}",
    ]
    for row in rows:
        lines.append(
            f"{row.candidate:<14}"
            f"{str(row.secrecy_holds):<9}"
            f"{row.termination_rate:<7.2f}"
            f"{row.claim1_split_rate_given_guess:<20.2f}"
            f"{row.claim2_wrong_output_rate:<14.2f}"
            f"{str(row.correctness_violated):<18}"
        )
    lines.append("")
    lines.append(
        "Theorem check: every candidate with secrecy and termination violates "
        "(2/3+eps)-correctness: "
        + str(all(row.consistent_with_theorem for row in rows))
    )
    return "\n".join(lines)
