"""Tests for the result store and the campaign CLI."""

from __future__ import annotations

import json

import pytest

from repro.core.results import TrialAggregate
from repro.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.spec import CampaignSpec, ExperimentSpec
from repro.experiments.store import ResultStore


def _aggregate(trials: int = 2) -> TrialAggregate:
    stats = TrialAggregate()
    for _ in range(trials):
        stats.trials += 1
        stats.value_counts["'v'"] += 1
        stats.outputs.append("v")
    return stats


class TestResultStore:
    def test_put_save_open_get_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore(path)
        store.bind_campaign("c")
        store.put("cell", "hash1", _aggregate())
        store.save()

        reloaded = ResultStore.open(path)
        assert reloaded.campaign == "c"
        assert reloaded.cell_names() == ["cell"]
        assert reloaded.has_cell("cell", "hash1")
        assert not reloaded.has_cell("cell", "other")
        assert reloaded.get("cell").to_dict() == _aggregate().to_dict()

    def test_open_missing_file_is_empty(self, tmp_path):
        store = ResultStore.open(tmp_path / "absent.json")
        assert store.cell_names() == []

    def test_get_missing_cell_raises(self, tmp_path):
        with pytest.raises(ExperimentError, match="no cell"):
            ResultStore(tmp_path / "x.json").get("cell")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{broken")
        with pytest.raises(ExperimentError, match="cannot read"):
            ResultStore.open(path)
        path.write_text(json.dumps({"version": 99, "cells": {}}))
        with pytest.raises(ExperimentError, match="version"):
            ResultStore.open(path)

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path / "x.json")
        store.put("cell", "h", _aggregate())
        assert store.delete("cell")
        assert not store.delete("cell")

    def test_save_is_deterministic(self, tmp_path):
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (path_a, path_b):
            store = ResultStore(path)
            store.bind_campaign("c")
            store.put("z", "h", _aggregate())
            store.put("a", "h", _aggregate())
            store.save()
        assert path_a.read_bytes() == path_b.read_bytes()


@pytest.fixture
def campaign_path(tmp_path):
    campaign = CampaignSpec(
        name="cli-test",
        cells=[
            ExperimentSpec(
                name="acast",
                protocol="acast",
                n=4,
                seeds=[0, 1],
                params={"value": "v", "sender": 0},
            )
        ],
    )
    path = tmp_path / "campaign.json"
    campaign.save(path)
    return path


class TestCli:
    def test_run_writes_default_results_path(self, campaign_path, capsys):
        assert main(["run", str(campaign_path), "--quiet"]) == 0
        out_path = campaign_path.with_name("campaign.results.json")
        assert out_path.exists()
        store = ResultStore.open(out_path)
        assert store.campaign == "cli-test"
        assert store.get("acast").trials == 2

    def test_run_resumes_then_fresh_recomputes(self, campaign_path, capsys):
        out = str(campaign_path.parent / "out.json")
        assert main(["run", str(campaign_path), "--out", out]) == 0
        capsys.readouterr()
        assert main(["run", str(campaign_path), "--out", out]) == 0
        assert "resumed 2/2" in capsys.readouterr().err
        assert main(["run", str(campaign_path), "--out", out, "--fresh"]) == 0
        assert "ran 2/2" in capsys.readouterr().err

    def test_report_and_drop(self, campaign_path, capsys):
        out = str(campaign_path.parent / "out.json")
        main(["run", str(campaign_path), "--out", out, "--quiet"])
        capsys.readouterr()

        assert main(["report", out]) == 0
        output = capsys.readouterr().out
        assert "cli-test" in output and "acast" in output

        assert main(["report", out, "--drop", "acast"]) == 0
        assert ResultStore.open(out).cell_names() == []
        assert main(["report", out, "--drop", "acast"]) == 1

    def test_validate(self, campaign_path, tmp_path, capsys):
        assert main(["validate", str(campaign_path)]) == 0
        assert "ok" in capsys.readouterr().out

        bad = CampaignSpec.load(campaign_path)
        bad.cells[0].protocol = "nope"
        bad_path = tmp_path / "bad.json"
        bad.save(bad_path)
        assert main(["validate", str(bad_path)]) == 1
        assert "unknown protocol" in capsys.readouterr().err

    def test_cells_the_runner_cannot_take_fail_closed(self, tmp_path, capsys):
        """``validate`` names cell and param; ``run`` stops before dispatch
        (exit 2, one ``error:`` line, no store, no traceback) instead of
        quarantining each cell after its chunks burnt their retries."""
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps({
            "name": "bad",
            "cells": [
                {"name": "fba-no-inputs", "protocol": "fba", "n": 4, "seeds": [0, 1]},
                {"name": "typo", "protocol": "coinflip", "n": 4, "seeds": [0],
                 "params": {"roundz": 1}},
                {"name": "composite", "protocol": "weak_coin", "n": 4, "seeds": [0],
                 "params": {"prime": 15}},
            ],
        }))
        assert main(["validate", str(bad_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        first, second, third = captured.err.splitlines()
        assert first.startswith("error: cell 'fba-no-inputs': ") and "'inputs'" in first
        assert second.startswith("error: cell 'typo': ") and "'roundz'" in second
        assert third.startswith("error: cell 'composite': ") and "prime=15" in third

        assert main(["run", str(bad_path), "--workers", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cell 'fba-no-inputs': ")
        assert len(captured.err.splitlines()) == 1
        assert not (tmp_path / "bad.results.json").exists()

    def test_missing_campaign_file_errors_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err


def _store_with(campaign_path, bad):
    """A v2 store for the ``campaign_path`` campaign with one section broken."""
    cell = CampaignSpec.load(campaign_path).cells[0]
    data = {"version": 2, "campaign": "cli-test", "cells": {}, "partial": {}, "failures": {}}
    if bad == "trials":
        # Named and hashed as the campaign's cell, so ``run`` resumes (reads) it.
        aggregate = dict(_aggregate().to_dict(), trials="x")
        data["cells"] = {cell.name: {"spec_hash": cell.spec_hash(), "aggregate": aggregate}}
    else:
        section, value = BROKEN_SECTIONS[bad]
        data[section] = value
    path = campaign_path.parent / "broken.results.json"
    path.write_text(json.dumps(data))
    return path


#: name -> (section, its wrong-typed value); ``trials`` is a cell whose
#: aggregate does not decode.
BROKEN_SECTIONS = {
    "cells-list": ("cells", []),
    "cell-not-record": ("cells", {"a": 5}),
    "partial-list": ("partial", []),
    "failures-list": ("failures", []),
}


class TestWrongTypedStores:
    """A store whose sections have the wrong types is one ``error:`` line and
    exit 2 from ``run`` and ``report`` -- not an AttributeError, TypeError or
    ValueError traceback -- and the file is left as it was."""

    @pytest.mark.parametrize("verb", ["run", "report"])
    @pytest.mark.parametrize("bad", sorted(BROKEN_SECTIONS) + ["trials"])
    def test_is_one_error_line(self, verb, bad, campaign_path, capsys):
        path = _store_with(campaign_path, bad)
        before = path.read_bytes()
        args = {
            "run": ["run", str(campaign_path), "--out", str(path), "--quiet"],
            "report": ["report", str(path)],
        }[verb]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        if bad == "trials":
            assert "cell 'acast'" in captured.err
        assert path.read_bytes() == before
        assert not path.with_name(path.name + ".lock").exists()

    @pytest.mark.parametrize("bad", sorted(BROKEN_SECTIONS))
    def test_recover_corrupt_quarantines_it(self, bad, campaign_path, capsys):
        path = _store_with(campaign_path, bad)
        before = path.read_bytes()
        assert main(["run", str(campaign_path), "--out", str(path), "--quiet",
                     "--recover-corrupt"]) == 0
        assert path.with_name(path.name + ".corrupt").read_bytes() == before
        assert ResultStore.open(path).get("acast").trials == 2
