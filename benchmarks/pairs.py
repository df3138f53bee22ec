"""Alternating parent/change pairs: a perf claim as a file.

Runs one operating point on two trees -- the working tree this file sits in
(the *change*) and ``--against REV`` (the *parent*, built with ``git archive``
into a temporary directory, no network) -- K times each, alternating which
side runs first, and appends one JSON line per pair plus a summary line to
``benchmarks/pairs/<change>-<name>.jsonl``::

    python benchmarks/pairs.py --against HEAD~1 --pairs 8 \\
        --workload beacon_closed_n4 --seed 100 --claim 'op_cost_cu<0.95'
    python benchmarks/pairs.py --against HEAD~1 --pairs 8 \\
        --op benchmarks.pair_ops:coin_n32_chunk --claim 'op_cost_cu<1.05'

``--workload W`` runs the ledger's ``run.py --workload W --trace 0`` of each
tree as a subprocess, for ``BENCHMARK.json``'s ``run_seconds``, and reads the
JSON line it prints last; pair ``i`` runs seed ``S + i`` on both sides.
``--op module:callable`` times an operating point that is not a workload for
``OP_SECONDS``: the callable is imported from this tree's root, runs one
operation per call against each side's ``src`` and returns ``(steps,
messages)``; its cost is wall time over the ledger's calibration kernel
(cu), a median over samples -- calibration, a block of about a quarter
second, calibration -- with ``gc.collect()`` between samples, as in the
ledger; ``op_wall_s`` is the raw median beside it.  The run length is not a
flag: every claim file is made at the same one.

The summary holds each metric's medians and quartiles per side, the ratio of
the medians, "change lower in k/K", whether every run was ``correct`` and
whether steps and messages per op were identical pair by pair.  The claim,
registered before the first run, reads ``metric<ratio`` (or ``>``).  It is
*met* when the change is better in at least nine of ten pairs
(``ceil(0.9 K)``), its median is further from the parent's than the parent's
interquartile range is wide, and the ratio of the medians beats the bound;
*unresolved* when neither side is better by that rule; and *not met*
otherwise.  ``--smoke`` is one short check at the ledger's smoke sizes and
``SMOKE_SECONDS`` a run: it prints the verdict and writes a file only into
an ``--out`` named on the command line.

This tool edits nothing under ``benchmarks/ledger/``; it only runs it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "benchmarks", "pairs")

#: Seconds an ``--op`` side measures per run.
OP_SECONDS = 6.0

#: Seconds a ``--smoke`` side measures per run (workload or op).
SMOKE_SECONDS = 1.0

#: Share of the pairs the change must win for a claim to be met.
WIN_SHARE = 0.9

#: Runs ``--op`` in a fresh interpreter against one tree; argv: the tree, the
#: op, the seconds to measure, the path of the calibration kernel.
_OP_HARNESS = r"""
import gc, importlib, importlib.util, json, statistics, sys, time
tree, op, seconds, calib_path = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
sys.path[:0] = [tree + "/src", sys.argv[5]]
spec = importlib.util.spec_from_file_location("pair_calib", calib_path)
calib = importlib.util.module_from_spec(spec)
spec.loader.exec_module(calib)
module, _, name = op.partition(":")
run = getattr(importlib.import_module(module), name)
steps, msgs = run()  # warm-up, untimed
costs, walls, correct = [], [], True
clock = time.perf_counter
deadline = clock() + seconds
while clock() < deadline or len(costs) < 3:
    gc.collect()  # outside the sample, as the ledger does: garbage a side
    before = calib.time_calibration()  # left would slow its yardstick
    began, ops = clock(), 0
    while ops == 0 or clock() - began < 0.25:
        if run() != (steps, msgs):
            correct = False
        ops += 1
    block = (clock() - began) / ops
    walls.append(block)
    costs.append(block / ((before + calib.time_calibration()) / 2))
print(json.dumps({"correct": correct, "metrics": {
    "op_cost_cu": {"value": statistics.median(costs), "unit": "cu"},
    "op_wall_s": {"value": statistics.median(walls), "unit": "s"},
    "steps_per_op": {"value": steps, "unit": "count"},
    "msgs_per_op": {"value": msgs, "unit": "count"}}}))
"""

_CLAIM = re.compile(r"^\s*(\w+)\s*([<>])\s*([0-9.]+)\s*$")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def change_label() -> str:
    """This tree's name: its commit, ``+wip`` when it has uncommitted changes."""
    head = git("rev-parse", "--short", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return head + ("+wip" if dirty else "")


def build_parent(rev: str, into: str) -> str:
    """Extract ``rev``'s committed files into ``into`` (``git archive``)."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    tree = os.path.join(into, "parent")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree)
    return tree


def run_seconds(args: argparse.Namespace) -> float:
    """Seconds per run and side: the benchmark's for a workload, fixed for an op."""
    if args.smoke:
        return SMOKE_SECONDS
    if args.op:
        return OP_SECONDS
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def run_side(tree: str, args: argparse.Namespace, seed: int, seconds: float) -> Dict[str, Any]:
    """One run on ``tree``: ``{"correct": bool, "metrics": {name: value}}``."""
    env = dict(os.environ, PYTHONPATH="")
    if args.op:
        command = [sys.executable, "-c", _OP_HARNESS, tree, args.op, str(seconds),
                   os.path.join(ROOT, "benchmarks", "ledger", "calib.py"), ROOT]
    else:
        command = [sys.executable, os.path.join(tree, "benchmarks", "ledger", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        if args.smoke:
            command.append("--smoke")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: no result line from {tree}:\n{done.stderr[-2000:]}")
    return {"correct": bool(line.get("correct")) and done.returncode == 0,
            "metrics": {name: entry["value"] for name, entry in line["metrics"].items()}}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: List[Dict[str, Any]], claim: Optional[str]) -> Dict[str, Any]:
    """Medians, quartiles and the verdict over ``pairs`` (see the module doc)."""
    names = sorted(set(pairs[0]["parent"]["metrics"]) & set(pairs[0]["change"]["metrics"]))
    metrics = {}
    for name in names:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        metrics[name] = {
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "change_lower": sum(c < p for p, c in zip(parent, change)),
            "change_higher": sum(c > p for p, c in zip(parent, change)),
        }
    summary: Dict[str, Any] = {
        "summary": True,
        "pairs": len(pairs),
        "correct": all(pair[side]["correct"] for pair in pairs for side in ("parent", "change")),
        "steps_identical": all(
            pair["parent"]["metrics"].get(name) == pair["change"]["metrics"].get(name)
            for pair in pairs for name in ("steps_per_op", "msgs_per_op")
        ),
        "metrics": metrics,
        "claim": claim,
    }
    if claim:
        name, sign, bound = _CLAIM.match(claim).groups()  # type: ignore[union-attr]
        summary["verdict"] = verdict(metrics[name], len(pairs), sign, float(bound))
        won = metrics[name]["change_lower" if sign == "<" else "change_higher"]
        summary["lower_in" if sign == "<" else "higher_in"] = f"{won}/{len(pairs)}"
    return summary


def verdict(row: Dict[str, Any], k: int, sign: str, bound: float) -> str:
    """*met*, *not met* or *unresolved* for one metric's summary row."""
    parent, change = row["parent"], row["change"]
    need = math.ceil(WIN_SHARE * k)
    shift = abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
    lower = shift and row["change_lower"] >= need and change["median"] < parent["median"]
    higher = shift and row["change_higher"] >= need and change["median"] > parent["median"]
    ratio = row["ratio"]
    beats = ratio is not None and (ratio < bound if sign == "<" else ratio > bound)
    if (lower if sign == "<" else higher) and beats:
        return "met"
    return "not met" if lower or higher else "unresolved"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python benchmarks/pairs.py", description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision (git)")
    parser.add_argument("--pairs", type=int, default=8)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="a ledger workload, run by each tree's run.py")
    target.add_argument("--op", help="module:callable, one operation per call")
    parser.add_argument("--seed", type=int, default=100, help="pair i runs seed S + i")
    parser.add_argument("--claim", help="registered before the run, e.g. 'op_cost_cu<0.95'")
    parser.add_argument("--smoke", action="store_true",
                        help="the ledger's smoke sizes and SMOKE_SECONDS a run; "
                             "a file only into a named --out")
    parser.add_argument("--out", help="where the .jsonl file goes (default benchmarks/pairs)")
    args = parser.parse_args(argv)
    if args.claim and not _CLAIM.match(args.claim):
        parser.error(f"--claim must read metric<ratio or metric>ratio, got {args.claim!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = run_seconds(args)
    out = args.out or (None if args.smoke else OUT_DIR)
    against = git("rev-parse", "--short", args.against)
    label = change_label()
    name = args.workload or args.op.rpartition(":")[2]
    registered = {"claim": args.claim, "against": against, "label": label,
                  "workload": args.workload, "op": args.op, "seed": args.seed,
                  "seconds": seconds, "pairs": args.pairs}
    print("registered: " + json.dumps(registered, sort_keys=True), flush=True)
    records: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {"parent": build_parent(against, scratch), "change": ROOT}
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            seed = args.seed + index
            record: Dict[str, Any] = {"pair": index, "seed": seed, "first": order[0]}
            for side in order:
                record[side] = run_side(trees[side], args, seed, seconds)
            records.append(record)
            row = {side: record[side]["metrics"].get("op_cost_cu") for side in order}
            print(f"pair {index}: parent {row['parent']:.6g} change {row['change']:.6g} "
                  f"correct {record['parent']['correct']}/{record['change']['correct']}",
                  flush=True)
    summary = dict(summarize(records, args.claim), **registered)
    if out:
        path = os.path.join(out, f"{label}-{name}.jsonl")
        os.makedirs(out, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(dict(record, against=against, label=label),
                                        sort_keys=True) + "\n")
            handle.write(json.dumps(summary, sort_keys=True) + "\n")
    cost = summary["metrics"].get("op_cost_cu", {})
    print(f"verdict: {summary.get('verdict', 'no claim')} -- {args.claim or ''} "
          f"ratio {cost.get('ratio')}, change lower in {cost.get('change_lower')}/{len(records)}, "
          f"correct {summary['correct']}, steps identical {summary['steps_identical']}"
          + (f" ({os.path.relpath(path, ROOT)})" if out else ""))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
