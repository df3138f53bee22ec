"""CLI surfaces: ``python -m repro.obs`` and the scenario sink flags."""

from __future__ import annotations

import json
import os

import pytest

from repro.core import api
from repro.experiments.cli import main as experiments_main
from repro.obs.__main__ import main as obs_main
from repro.obs.sinks import JsonlSink


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    api.run_weak_coin(4, seed=0, sinks=[JsonlSink(path)])
    return path


def test_validate_ok(trace_file, capsys):
    assert obs_main(["validate", str(trace_file)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_flags_problems(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"step": 0, "kind": "bogus"}\n')
    assert obs_main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "INVALID" in captured.out
    assert "bogus" in captured.err


def test_validate_keeps_line_numbered_problems_for_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"step": 0, "kind": "note", "detail": "x"}\nnot json\n3\n')
    assert obs_main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "INVALID (3 events, 2 problems)" in captured.out
    assert "line 2: invalid JSON" in captured.err
    assert "line 3:" in captured.err


def _unreadable(tmp_path):
    path = tmp_path / "unreadable.jsonl"
    path.write_text("{}\n")
    path.chmod(0)
    return path


def _binary(tmp_path):
    path = tmp_path / "binary.jsonl"
    path.write_bytes(b"\xff\xfe\x00")
    return path


@pytest.mark.parametrize("command", ["validate", "timeline"])
@pytest.mark.parametrize(
    "make_path",
    [lambda tmp: tmp / "missing.jsonl", lambda tmp: tmp, _unreadable, _binary],
    ids=["missing", "directory", "unreadable", "not-text"],
)
def test_unreadable_trace_is_one_error_line_and_exit_2(command, make_path, tmp_path, capsys):
    path = make_path(tmp_path)
    if path.name == "unreadable.jsonl" and os.access(path, os.R_OK):
        pytest.skip("running as a user file modes do not bind (root)")
    assert obs_main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]


@pytest.mark.parametrize(
    "line", ["not json", "3", '{"step": 1, "kind": "phase", "party": 0}'],
    ids=["malformed", "not-an-object", "missing-field"],
)
def test_timeline_on_a_bad_line_is_one_error_line_and_exit_2(line, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"step": 0, "kind": "note", "detail": "x"}\n' + line + "\n")
    assert obs_main(["timeline", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: line 2:")


def test_timeline_text(trace_file, tmp_path, capsys):
    assert obs_main(["timeline", str(trace_file)]) == 0
    assert "timeline:" in capsys.readouterr().out
    out = tmp_path / "timeline.txt"
    assert obs_main(["timeline", str(trace_file), "--out", str(out)]) == 0
    assert out.read_text().startswith("timeline:")


def test_timeline_chrome(trace_file, tmp_path):
    out = tmp_path / "timeline.json"
    code = obs_main(
        ["timeline", str(trace_file), "--format", "chrome", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_scenarios_run_with_sinks(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    timeline = tmp_path / "run.txt"
    code = experiments_main(
        [
            "scenarios",
            "--run",
            "dealer-ambush",
            "--n",
            "8",
            "--trace-jsonl",
            str(trace),
            "--timeline",
            str(timeline),
        ]
    )
    assert code == 0
    output = capsys.readouterr().out
    assert "dealer-ambush" in output
    assert trace.exists() and timeline.exists()
    assert obs_main(["validate", str(trace)]) == 0
    assert timeline.read_text().startswith("timeline:")


def test_scenarios_sinks_require_tracing(tmp_path, capsys):
    code = experiments_main(
        [
            "scenarios",
            "--run",
            "dealer-ambush",
            "--no-tracing",
            "--trace-jsonl",
            str(tmp_path / "x.jsonl"),
        ]
    )
    assert code == 2
    assert "tracing" in capsys.readouterr().err
