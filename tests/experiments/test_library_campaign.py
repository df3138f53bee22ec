"""The whole scenario library, judged by the claims gate.

``examples/campaigns/library.json`` runs every library scenario at n = 4, 7
and 16 over seeds 0-4 (51 cells, 255 trials).  ``report --campaign`` on its
store must exit 0: an attacked cell is still held to the resilience model,
agreement, the output domain and termination.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import CampaignSpec
from repro.experiments.cli import main
from repro.obs.schema import validate_report
from repro.scenarios.library import scenario_names

LIBRARY = Path(__file__).resolve().parents[2] / "examples" / "campaigns" / "library.json"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    path = tmp_path_factory.mktemp("library") / "library.results.json"
    assert main(["run", str(LIBRARY), "--workers", "2", "--out", str(path), "--quiet"]) == 0
    return path


def test_the_campaign_covers_every_library_scenario():
    campaign = CampaignSpec.load(LIBRARY)
    assert {cell.scenario for cell in campaign.cells} == set(scenario_names())
    assert {cell.n for cell in campaign.cells} == {4, 7, 16}


def test_report_passes_every_claim_and_validates(store, capsys):
    assert main(["report", str(store), "--campaign", str(LIBRARY)]) == 0
    capsys.readouterr()
    assert main(["report", str(store), "--campaign", str(LIBRARY), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert validate_report(payload) == []
    assert payload["claims"]["passed"] is True
    assert len(payload["cells"]) == 3 * len(scenario_names())
