"""The paper's trial-shaped experiments, run once and judged once.

``examples/campaigns/paper.json`` holds one cell per experiment (E1 CoinFlip
bias under attack, E2 strong vs weak coin, E4b FairChoice, E5 FBA validity,
E7 SVSS binding-or-shun, E9 A-Cast and CommonSubset under faults).  The
claims gate (:func:`repro.analysis.claims.evaluate_claims`) judges it; the
tests below keep the floors that no claim holds as strictly on the same
seeds.  A defence-off FBA, whose fair choice always lands on the
adversary's input, must fail ``fair_validity``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.claims import FAIL, PASS, evaluate_claims
from repro.experiments import CampaignSpec, run_campaign
from repro.protocols.fba import FairByzantineAgreement

PAPER = Path(__file__).resolve().parents[2] / "examples" / "campaigns" / "paper.json"

#: The E1 cells at n=4: 24 trials of a 3-iteration CoinFlip each.
E1_CELLS = ("e1-honest", "e1-crash", "e1-bad-share", "e1-constant-dealer")


@pytest.fixture(scope="module")
def paper():
    campaign = CampaignSpec.load(PAPER)
    return campaign, run_campaign(campaign)


def test_every_claim_passes(paper):
    campaign, results = paper
    assert set(results) == {cell.name for cell in campaign.cells}
    report = evaluate_claims(campaign, results)
    assert report.passed, report.to_dict()
    # Every claim has a cell to judge: a skip here means a cell went missing.
    assert {result.claim: result.status for result in report.results} == {
        result.claim: PASS for result in report.results
    }


@pytest.mark.parametrize("cell", E1_CELLS)
def test_e1_no_adversary_fixes_the_coin(paper, cell):
    """Theorem 3.5 under attack: each bit in at least 4 of 24 trials.

    ``coin_bias`` judges honest cells only, and at 24 trials it passes a bit
    seen twice, so this floor stays on every cell."""
    aggregate = paper[1][cell]
    assert aggregate.trials == 24
    assert aggregate.value_counts["0"] >= 4
    assert aggregate.value_counts["1"] >= 4


@pytest.mark.parametrize("cell", E1_CELLS + ("e1-n7", "e2-strong-coin"))
def test_strong_coin_never_disagrees(paper, cell):
    """CoinFlip is not in ``AGREEMENT_PROTOCOLS``, so the claim does not look."""
    assert paper[1][cell].disagreements == 0


@pytest.mark.parametrize("cell", ["e5-unanimous", "e5-unanimous-rushed"])
def test_e5_unanimous_honest_input_always_wins(paper, cell):
    aggregate = paper[1][cell]
    assert aggregate.value_counts[repr("honest")] == aggregate.trials


@pytest.mark.parametrize("cell", ["e5-divergent", "e5-all-honest"])
def test_e5_output_is_some_input(paper, cell):
    campaign, results = paper
    inputs = campaign.cell(cell).params["inputs"]
    assert set(results[cell].value_counts) <= {repr(value) for value in inputs.values()}


def test_e7_shun_accounting(paper):
    """Per-trial SVSS validity is the cells' invariant; the shun counts are here."""
    results = paper[1]
    assert results["e7-honest-dealer"].value_counts["777"] == 12
    assert results["e7-honest-dealer"].total_shun_events == 0
    assert results["e7-bad-share"].value_counts["424242"] == 12
    assert results["e7-bad-share"].total_shun_events < 12 * 16
    assert results["e7-withholding-dealer"].trials == 12


def test_e9_substrates_under_faults(paper):
    results = paper[1]
    assert results["e9-acast-noise"].value_counts[repr("v")] == 10
    subsets = results["e9-common-subset-crash"].outputs
    assert len(subsets) == 10
    assert all(len(subset) >= 3 for subset in subsets)


def test_a_rigged_fair_choice_fails_fair_validity(monkeypatch):
    """Defence off: FBA's fair choice always picks a corrupted member of S."""
    honest_choice = FairByzantineAgreement._on_fair_choice_complete

    def adversary_choice(self, choice):
        ranked = sorted(self.subset, reverse=True)
        processes = self.process.network.processes
        for position, pid in enumerate(ranked):
            if processes[pid].ever_corrupted:
                choice = position
        honest_choice(self, choice)

    monkeypatch.setattr(
        FairByzantineAgreement, "_on_fair_choice_complete", adversary_choice
    )
    paper = CampaignSpec.load(PAPER)
    campaign = CampaignSpec(name="paper-rigged", cells=[paper.cell("e5-divergent")])
    report = evaluate_claims(campaign, run_campaign(campaign))
    (verdict,) = [result for result in report.results if result.claim == "fair_validity"]
    assert verdict.status == FAIL
    assert verdict.detail.startswith("e5-divergent: Pr[honest win]")
