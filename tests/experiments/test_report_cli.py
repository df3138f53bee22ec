"""Structured reports and the ablate/report CLI surfaces."""

from __future__ import annotations

import json

import pytest

from repro.analysis.ablation import build_ablation_campaign
from repro.experiments.cli import main
from repro.experiments.report import (
    build_report,
    histogram_summaries,
    render_report,
)
from repro.experiments.runner import run_campaign
from repro.experiments.store import ResultStore
from repro.obs.schema import validate_report


@pytest.fixture(scope="module")
def campaign():
    return build_ablation_campaign(
        "report-test",
        "coinflip",
        4,
        [1, 2, 3],
        factors=[],
        base_params={"rounds": 1},
    )


@pytest.fixture(scope="module")
def results(campaign):
    return run_campaign(campaign, workers=1)


class TestBuildReport:
    def test_payload_validates_against_schema(self, campaign, results):
        from repro.analysis.claims import evaluate_claims

        payload = build_report(
            campaign.name, results, claims=evaluate_claims(campaign, results)
        )
        assert validate_report(payload) == []
        assert payload["campaign"] == "report-test"
        assert set(payload["cells"]) == {"baseline"}

    def test_payload_is_json_serializable_and_versioned(self, campaign, results):
        payload = build_report(campaign.name, results)
        parsed = json.loads(render_report(payload, "json"))
        assert parsed["report_version"] == 1
        assert validate_report(parsed) == []

    def test_histogram_summaries_expose_percentiles(self, results):
        summaries = histogram_summaries(results)
        assert "baseline" in summaries
        metrics = summaries["baseline"]
        # The metrics registry records completion steps and queue depth.
        assert any(name.startswith("completion_step") for name in metrics)
        assert "queue_depth" in metrics
        for summary in metrics.values():
            assert set(summary) == {"count", "mean", "p50", "p90", "p99", "max"}
            assert summary["count"] > 0

    def test_text_and_markdown_renderings_cover_sections(self, campaign, results):
        from repro.analysis.claims import evaluate_claims

        payload = build_report(
            campaign.name, results, claims=evaluate_claims(campaign, results)
        )
        text = render_report(payload, "text")
        assert "campaign: report-test" in text
        assert "histogram percentiles" in text
        assert "claims:" in text
        markdown = render_report(payload, "markdown")
        assert markdown.startswith("## Campaign `report-test`")
        assert "### Histogram percentiles" in markdown
        assert "### Claims" in markdown

    def test_unknown_format_rejected(self, campaign, results):
        payload = build_report(campaign.name, results)
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(payload, "yaml")


class TestValidateReport:
    def test_rejects_malformed_payloads(self):
        assert validate_report([]) == ["report is not a JSON object"]
        problems = validate_report({"report_version": 2, "cells": {}})
        assert any("report_version" in problem for problem in problems)
        problems = validate_report(
            {"report_version": 1, "cells": {"c": {"trials": -1}}}
        )
        assert any("non-negative" in problem for problem in problems)
        problems = validate_report(
            {
                "report_version": 1,
                "cells": {},
                "claims": {"passed": "yes", "claims": [{"status": "meh"}]},
            }
        )
        assert any("passed" in problem for problem in problems)
        assert any("status" in problem for problem in problems)


class TestReportCli:
    @pytest.fixture()
    def results_path(self, tmp_path, campaign):
        path = tmp_path / "report-test.results.json"
        store = ResultStore.open(path)
        run_campaign(campaign, workers=1, store=store)
        return path

    def test_report_json_round_trips(self, results_path, capsys):
        assert main(["report", str(results_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_report(payload) == []
        assert payload["campaign"] == "report-test"

    def test_report_markdown(self, results_path, capsys):
        assert main(["report", str(results_path), "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("## Campaign")

    def test_report_with_campaign_evaluates_claims(
        self, results_path, tmp_path, campaign, capsys
    ):
        spec_path = tmp_path / "campaign.json"
        campaign.save(spec_path)
        assert main(
            ["report", str(results_path), "--campaign", str(spec_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "[PASS] coin_bias" in out

    @pytest.mark.parametrize("with_campaign", [False, True])
    @pytest.mark.parametrize(
        "extra", [[], ["--format", "json"], ["--drop", "baseline"]]
    )
    def test_missing_store_fails_closed(
        self, tmp_path, campaign, capsys, extra, with_campaign
    ):
        """A mistyped results path must not read as "no claim refuted"."""
        missing = tmp_path / "typo.results.json"
        argv = ["report", str(missing)] + extra
        if with_campaign:
            spec_path = tmp_path / "campaign.json"
            campaign.save(spec_path)
            argv += ["--campaign", str(spec_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no result store at {missing}\n"
        assert not missing.exists()


class TestAblateCli:
    def test_quick_shape_honest_run_passes(self, tmp_path, capsys):
        args = [
            "ablate",
            "--n", "4",
            "--seeds", "3",
            "--rounds", "1",
            "--factors", "trace_free,metering",
            "--quiet",
            "--out", str(tmp_path / "ablation.results.json"),
        ]
        code = main(args + ["--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_report(payload) == []
        assert set(payload["cells"]) == {"baseline", "no-trace_free", "no-metering"}
        contribution = {row["cell"]: row for row in payload["contribution"]}
        assert contribution["no-trace_free"]["stats_identical"] is True
        assert payload["claims"]["passed"] is True
        # The text report of the same run: every cell resumes from --out.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "per-factor contribution" in out

    def test_biased_run_fails_the_claims_gate(self, capsys):
        code = main(
            ["ablate", "--n", "4", "--seeds", "3", "--rounds", "1", "--biased",
             "--quiet"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "refuted" in captured.err
        assert "[FAIL] coin_bias" in captured.out

    def test_unknown_factor_is_a_usage_error(self, capsys):
        code = main(["ablate", "--factors", "warp_drive", "--quiet"])
        assert code == 2
        assert "unknown factor" in capsys.readouterr().err

    def test_results_store_resumes(self, tmp_path, capsys):
        out_path = tmp_path / "ablation.results.json"
        args = [
            "ablate",
            "--n", "4",
            "--seeds", "2",
            "--rounds", "1",
            "--factors", "trace_free",
            "--out", str(out_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().err
        assert "ran 2/2 trials" in first
        assert main(args) == 0
        second = capsys.readouterr().err
        assert "resumed 2/2" in second

    def test_quarantined_baseline_is_reported_not_hidden(self, capsys):
        """A termination failure is what the claims gate exists to report:
        ROADMAP 1(a)'s first ``restart-storm`` seed runs dry in the baseline
        cell, and the command must list the quarantine and exit 3, not stop
        at the contribution table it cannot build."""
        code = main(
            [
                "ablate",
                "--scenario", "restart-storm",
                "--n", "16",
                "--seed-base", "1045604035",
                "--seeds", "1",
                "--factors", "scenario_timeline",
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "baseline: chunk 0 exception after 3 attempt(s): SimulationError" in captured.err
        assert "network is quiescent" in captured.err
        assert "contribution table needs" not in captured.err
        assert "claims: ablation-restart-storm-n16" in captured.out
        assert "per-factor contribution" not in captured.out
        assert "no-scenario_timeline" in captured.out

    def test_a_quarantined_sweep_cell_is_reported_not_hidden(self, capsys):
        """The sweep runs in the arms' campaign, so its quarantined cell is
        listed and exits 3 like a quarantined arm -- not an empty sweep
        table under a passing verdict."""
        code = main(
            [
                "ablate",
                "--n", "16",
                "--seeds", "1",
                "--seed-base", "1045604035",
                "--rounds", "1",
                "--factors", "",
                "--sweep", "restart-storm",
                "--quiet",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "restart-storm|n=16: chunk 0 exception" in captured.err
        assert "network is quiescent" in captured.err

    def test_json_stdout_parses_with_progress_on(self, capsys):
        """Progress goes to stderr, so ``--format json`` stdout is the
        payload alone, ``--quiet`` or not."""
        code = main(
            ["ablate", "--n", "4", "--seeds", "2", "--rounds", "1",
             "--factors", "trace_free", "--format", "json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert validate_report(payload) == []
        assert "[2/4] baseline: ran 2/2 trials" in captured.err

    def test_the_store_holds_the_sweep_cells(self, tmp_path, capsys):
        out_path = tmp_path / "ablation.results.json"
        args = [
            "ablate",
            "--scenario", "dealer-ambush",
            "--n", "4",
            "--seeds", "2",
            "--factors", "trace_free",
            "--sweep", "dealer-ambush",
            "--out", str(out_path),
        ]
        assert main(args) == 0
        assert set(ResultStore.open(out_path).cell_names()) == {
            "baseline", "no-trace_free", "dealer-ambush|n=4",
        }
        capsys.readouterr()
        assert main(args) == 0
        assert "[6/6] dealer-ambush|n=4: resumed 2/2" in capsys.readouterr().err
