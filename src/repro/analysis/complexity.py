"""Message/round complexity accounting (experiment E8).

The paper argues its strong coin needs on the order of ``n^4`` SVSS-backed
flips, each of which costs ``O(n^2)`` messages, plus ``n`` BA instances per
CommonSubset.  This module provides closed-form per-protocol message-count
predictions (for honest, failure-free executions), and
:func:`predicted_messages`, the one per-protocol table over them that the
``message_complexity`` claim, the attack sweep and the delivery envelope of
:mod:`repro.scenarios.invariants` compare measured counts against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

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


def coinflip_iteration_messages(n: int, expected_ba_rounds: float = 3.0) -> float:
    """One CoinFlip iteration (one weak-coin flip): ``n`` SVSS-Share
    instances, one CommonSubset and at least ``n - t`` SVSS-Rec instances."""
    t = (n - 1) // 3
    return (
        n * svss_share_messages(n)
        + common_subset_expected_messages(n, expected_ba_rounds)
        + (n - t) * svss_rec_messages(n)
    )


def coinflip_expected_messages(
    n: int, rounds: int, expected_ba_rounds: float = 3.0
) -> float:
    """Expected messages for CoinFlip with ``rounds`` iterations, plus one final BA."""
    per_iteration = coinflip_iteration_messages(n, expected_ba_rounds)
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


def predicted_messages(
    protocol: str, n: int, params: Mapping[str, Any]
) -> Optional[float]:
    """Closed-form honest-execution message prediction for one cell (or None).

    Maps the registry's protocol names and each runner's iteration-count
    parameters onto the formulas above; ``weak_coin``'s single flip is one
    CoinFlip iteration without the final BA.  Unknown protocols, and a
    ``fair_choice`` cell without ``m``, return None.
    """
    try:
        if protocol == "acast":
            return float(acast_messages(n))
        if protocol == "svss":
            return float(svss_share_messages(n) + svss_rec_messages(n))
        if protocol == "aba":
            return aba_expected_messages(n)
        if protocol == "common_subset":
            return common_subset_expected_messages(n)
        if protocol == "coinflip":
            return coinflip_expected_messages(n, int(params.get("rounds", 5)))
        if protocol == "weak_coin":
            return coinflip_iteration_messages(n)
        if protocol == "fair_choice":
            rounds = int(params.get("coinflip_rounds", 1))
            return fair_choice_expected_messages(n, int(params["m"]), rounds)
        if protocol == "fba":
            return fba_expected_messages(n, int(params.get("coinflip_rounds", 1)))
    except (KeyError, ValueError):
        return None
    return None
