"""Message/round complexity accounting (experiment E8).

The paper argues its strong coin needs on the order of ``n^4`` SVSS-backed
flips, each of which costs ``O(n^2)`` messages, plus ``n`` BA instances per
CommonSubset.  This module provides closed-form per-protocol message-count
predictions (for honest, failure-free executions) that
``tests/analysis/test_complexity.py`` and the ``message_complexity`` claim
compare against measured counts from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.binomial import coinflip_iterations, fair_choice_bits


def acast_messages(n: int) -> int:
    """A-Cast message count with an honest sender: VALUE + ECHO + READY."""
    return n + 2 * n * n


def svss_share_messages(n: int) -> int:
    """SVSS-Share message count with an honest dealer: rows, points, readies."""
    return n + n * (n - 1) + n * n


def svss_rec_messages(n: int) -> int:
    """SVSS-Rec message count: every party broadcasts its row."""
    return n * n


def aba_messages_per_round(n: int) -> int:
    """Binary BA messages per round: BVAL + AUX broadcasts."""
    return 2 * n * n


def aba_expected_messages(n: int, expected_rounds: float = 3.0) -> float:
    """Expected BA message count, including the DONE termination broadcasts."""
    return expected_rounds * aba_messages_per_round(n) + n * n


def common_subset_expected_messages(n: int, expected_rounds: float = 3.0) -> float:
    """CommonSubset runs one BA per index."""
    return n * aba_expected_messages(n, expected_rounds)


def coinflip_expected_messages(
    n: int, rounds: int, expected_ba_rounds: float = 3.0
) -> float:
    """Expected messages for CoinFlip with ``rounds`` iterations.

    Each iteration: ``n`` SVSS-Share instances, one CommonSubset and at least
    ``n - t`` SVSS-Rec instances; plus one final BA.
    """
    t = (n - 1) // 3
    per_iteration = (
        n * svss_share_messages(n)
        + common_subset_expected_messages(n, expected_ba_rounds)
        + (n - t) * svss_rec_messages(n)
    )
    return rounds * per_iteration + aba_expected_messages(n, expected_ba_rounds)


def coinflip_theoretical_messages(n: int, epsilon: float) -> float:
    """Message count at the paper's full iteration count (reported, not simulated)."""
    return coinflip_expected_messages(n, coinflip_iterations(epsilon, n))


def fair_choice_expected_messages(
    n: int, m: int, coinflip_rounds: int, expected_ba_rounds: float = 3.0
) -> float:
    """FairChoice runs ``l`` CoinFlip instances."""
    return fair_choice_bits(m) * coinflip_expected_messages(
        n, coinflip_rounds, expected_ba_rounds
    )


def fba_expected_messages(
    n: int, coinflip_rounds: int, expected_ba_rounds: float = 3.0
) -> float:
    """FBA: ``n`` A-Casts, one CommonSubset and (at worst) one FairChoice."""
    t = (n - 1) // 3
    m = n - t
    return (
        n * acast_messages(n)
        + common_subset_expected_messages(n, expected_ba_rounds)
        + fair_choice_expected_messages(n, m, coinflip_rounds, expected_ba_rounds)
    )


@dataclass(frozen=True)
class ComplexityRow:
    """One row of the E8 table: predicted vs measured message counts."""

    protocol: str
    n: int
    predicted: float
    measured: float

    @property
    def ratio(self) -> float:
        """measured / predicted (1.0 means the prediction was exact)."""
        if self.predicted == 0:
            return float("inf")
        return self.measured / self.predicted


def predictions_for(n: int, coinflip_rounds: int) -> Dict[str, float]:
    """Closed-form predictions for every protocol at a given system size."""
    return {
        "acast": float(acast_messages(n)),
        "svss_share": float(svss_share_messages(n)),
        "svss_rec": float(svss_rec_messages(n)),
        "aba": aba_expected_messages(n),
        "common_subset": common_subset_expected_messages(n),
        "coinflip": coinflip_expected_messages(n, coinflip_rounds),
        "fba": fba_expected_messages(n, coinflip_rounds),
    }
