"""``benchmarks/pairs.py``: alternating parent/change pairs, judged into a file."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import pairs  # noqa: E402


def _pair(parent, change, steps=(10, 10)):
    side = lambda cost, step: {"correct": True, "metrics": {  # noqa: E731
        "op_cost_cu": cost, "steps_per_op": step, "msgs_per_op": 3}}
    return {"parent": side(parent, steps[0]), "change": side(change, steps[1])}


def test_a_claim_is_met_not_met_or_unresolved():
    faster = [_pair(1.0 + i / 100, 0.8) for i in range(8)]
    summary = pairs.summarize(faster, "op_cost_cu<0.95")
    assert summary["verdict"] == "met" and summary["lower_in"] == "8/8"
    assert summary["correct"] and summary["steps_identical"]
    assert pairs.summarize(faster, "op_cost_cu<0.7")["verdict"] == "not met"
    assert pairs.summarize(faster, "op_cost_cu>1.05")["verdict"] == "not met"
    same = [_pair(1.0 + i / 100, 1.035) for i in range(8)]
    assert pairs.summarize(same, "op_cost_cu<1.5")["verdict"] == "unresolved"
    moved = pairs.summarize([_pair(1.0, 0.8, steps=(10, 11))], None)
    assert not moved["steps_identical"] and "verdict" not in moved


def test_a_claim_needs_nine_of_ten_pairs():
    """Six wins of ten are no resolved gain, however far the medians lie apart."""
    six = [_pair(1.0, 0.8) for _ in range(6)] + [_pair(1.0, 1.2) for _ in range(4)]
    summary = pairs.summarize(six, "op_cost_cu<0.95")
    assert summary["lower_in"] == "6/10" and summary["metrics"]["op_cost_cu"]["ratio"] == 0.8
    assert summary["verdict"] == "unresolved"
    nine = [_pair(1.0, 0.8) for _ in range(9)] + [_pair(1.0, 1.2)]
    assert pairs.summarize(nine, "op_cost_cu<0.95")["verdict"] == "met"


def test_a_claim_needs_the_medians_further_apart_than_the_parents_spread():
    """A parent whose quartiles spread wide on one side hides a shift inside them."""
    parent = [1.0, 1.0, 1.0, 1.0, 1.0, 1.3, 1.3, 1.3, 1.3, 1.3]
    skewed = [_pair(cost, cost - 0.2) for cost in parent]
    summary = pairs.summarize(skewed, "op_cost_cu<0.95")
    row = summary["metrics"]["op_cost_cu"]
    assert summary["lower_in"] == "10/10" and row["ratio"] < 0.95
    parent_spread = row["parent"]["q3"] - row["parent"]["q1"]
    assert row["parent"]["median"] - row["change"]["median"] < parent_spread
    assert row["change"]["median"] < row["parent"]["q1"]  # outside the quartiles, yet
    assert summary["verdict"] == "unresolved"
    slower = [_pair(cost, cost + 0.5) for cost in parent]
    assert pairs.summarize(slower, "op_cost_cu<0.95")["verdict"] == "not met"


@pytest.mark.skipif(
    shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")),
    reason="needs a git checkout to build the parent from",
)
def test_two_pairs_of_a_tiny_op_land_in_one_file(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "pairs.py"), "--against", "HEAD",
         "--pairs", "2", "--op", "benchmarks.pair_ops:aba_n4_chunk", "--smoke",
         "--claim", "op_cost_cu<2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("verdict: ")
    [path] = tmp_path.iterdir()
    assert path.name.endswith("-aba_n4_chunk.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line.get("first") for line in lines[:2]] == ["parent", "change"]
    summary = lines[-1]
    assert summary["summary"] and summary["pairs"] == 2 and summary["claim"] == "op_cost_cu<2"
    assert summary["seconds"] == pairs.SMOKE_SECONDS
    assert summary["correct"] and summary["steps_identical"]
    assert summary["verdict"] in ("met", "not met", "unresolved")
