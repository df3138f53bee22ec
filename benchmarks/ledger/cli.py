"""Command line of the perf ledger.

Two ways in, one measuring path:

* the driver contract -- ``run.py --workload W --seed S --seconds T --trace 0|1``
  runs one workload and prints, as its last line, one JSON object with
  ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``);
* the ledger -- ``python -m benchmarks.ledger`` runs all six workloads,
  untraced then traced, prints every metric by name with its unit, direction
  and bound, and writes ``results/latest.json``.  ``--record`` appends the
  run to ``results/history.jsonl``; ``--selfcheck`` runs the set twice and
  requires the two to agree: every end-to-end metric within its own bound
  on that workload, every ``*_per_op`` count exactly.

Workloads run strictly one after another, each round in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger import schema
from benchmarks.ledger.measure import summarize
from benchmarks.ledger.spans import render_table
from benchmarks.ledger.worker import RESULT_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
DIGESTS = HERE / "expected_digests.json"

#: Share of a traced run spent on paired samples; the probes take the rest.
TRACED_SAMPLING_SHARE = 1 / 3
#: ``setup_s`` may also move by this many seconds before it counts (ISSUE 11).
SETUP_SLACK_S = 0.05


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_round(config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one round in a fresh process and return the result it printed."""
    config = dict(config, spawn_time=time.time())
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.worker", json.dumps(config)],
        cwd=str(ROOT), env=_worker_env(), stdout=subprocess.PIPE, text=True, check=False,
    )
    for line in reversed(completed.stdout.splitlines()):
        if line.startswith(RESULT_MARK):
            return json.loads(line[len(RESULT_MARK):])
    raise RuntimeError(
        f"round {config['round_index']} of {config['name']} printed no result "
        f"(exit code {completed.returncode})"
    )


def load_digests() -> Dict[str, Dict[str, List[str]]]:
    """``{seed: {workload: per-round digests}}`` as pinned on disk."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> Dict[str, Any]:
    """Measure one workload: three untraced rounds, or one traced round with probes."""
    RESULTS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=str(RESULTS))
    try:
        base = {"name": name, "seed": seed, "smoke": smoke, "scratch": scratch}
        if traced:
            rounds = [run_round(dict(
                base, round_index=0, budget_s=seconds * TRACED_SAMPLING_SHARE,
                trace_path=str(RESULTS / f"trace-{name}.json"),
            ))]
        else:
            rounds = [
                run_round(dict(base, round_index=index, budget_s=seconds / schema.ROUNDS))
                for index in range(schema.ROUNDS)
            ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcome = summarize(rounds, schema.ledger_bound("op_cost_cu", name))
    outcome["workload"] = name
    pinned = None if smoke else load_digests().get(str(seed), {}).get(name)
    outcome["digest_pinned"] = pinned is not None
    if pinned is not None and outcome["round_digests"] != pinned[:len(rounds)]:
        # The simulated world changed under a pinned seed: nothing timed on it
        # can be compared with the ledger's history.
        outcome["failed"] = outcome["attempted"]
        outcome["metrics"]["ok_ratio"] = 0.0
        outcome["errors"].insert(0, "digest differs from expected_digests.json")
    outcome["correct"] = outcome["failed"] == 0
    if traced:
        result = rounds[0]
        plain = statistics.median(row["cost_cu"] for row in result["samples"])
        under_spans = statistics.median(row["cost_cu"] for row in result["traced_samples"])
        layers = dict(result["layers"], **outcome["host"])
        layers["host.trace_overhead_ratio"] = under_spans / plain
        outcome["layers"] = {key: layers[key] for key in schema.LAYER_NAMES}
        outcome["span_table"] = result["span_table"]
    return outcome


# ----------------------------------------------------------------------
# Printing
def _metric_lines(values: Dict[str, float], definitions: Sequence[schema.Metric],
                  workload: str) -> List[str]:
    lines = []
    for metric in definitions:
        bound = "" if metric.bound is None else \
            f"  bound {schema.ledger_bound(metric.name, workload):.0%}"
        lines.append(
            f"  {metric.name:<44}{values[metric.name]:>16.6g} {metric.unit:<6}"
            f"{metric.better:<7}{bound}"
        )
    return lines


def describe(outcome: Dict[str, Any]) -> str:
    """Everything one run measured, metric by metric, as text."""
    verdict = "correct" if outcome["correct"] else "INCORRECT"
    lines = [
        f"{outcome['workload']}: {verdict}, {outcome['attempted']} operations attempted, "
        f"{outcome['failed']} failed, {outcome['samples']} samples "
        f"(spread {outcome['sample_spread']:.3f}), calibration "
        f"{outcome['host']['host.calib_ms']:.2f} ms (spread "
        f"{outcome['host']['host.calib_spread']:.3f})"
        # The traced pass reports no end-to-end number for the guard to protect.
        + (", NOISY: no clean number" if outcome["noisy"] and "layers" not in outcome else ""),
        f"  digest {' '.join(d[:12] for d in outcome['round_digests'])}"
        + (" (pinned)" if outcome["digest_pinned"] else ""),
        f"  latency over {outcome['operations']} operations, cu: "
        + " ".join(f"p{q}={v:.4g}" for q, v in outcome["latency_cu"].items()),
    ]
    lines += [f"  error: {error}" for error in outcome["errors"]]
    lines += [f"  passed over (attack deadlocked, next seed derived): {seed}"
              for seed in outcome["passed_over"]]
    if "layers" in outcome:
        lines += _metric_lines(outcome["layers"], schema.PER_LAYER, outcome["workload"])
        lines.append(render_table(outcome["span_table"]))
    else:
        lines += _metric_lines(outcome["metrics"], schema.END_TO_END, outcome["workload"])
    return "\n".join(lines)


def driver_line(outcome: Dict[str, Any]) -> str:
    """The last line the driver reads."""
    values = outcome["layers"] if "layers" in outcome else outcome["metrics"]
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": schema.UNITS[name]} for name, value in values.items()
        },
    })


# ----------------------------------------------------------------------
# The ledger proper
def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_set(names: Sequence[str], seed: int, seconds: float, traced: bool,
            smoke: bool) -> Dict[str, Dict[str, Any]]:
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, seed, seconds, traced, smoke)
        print(describe(outcomes[name]), flush=True)
    return outcomes


def _document(seed: int, seconds: float, smoke: bool,
              untraced: Dict[str, Dict[str, Any]],
              traced: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    workloads: Dict[str, Any] = {}
    for name in schema.WORKLOAD_NAMES:
        entry: Dict[str, Any] = {}
        if name in untraced:
            plain = untraced[name]
            entry.update(
                end_to_end=plain["metrics"], digest=plain["round_digests"],
                noisy=plain["noisy"], samples=plain["samples"],
                operations=plain["operations"], sample_spread=plain["sample_spread"],
                attempted=plain["attempted"], failed=plain["failed"],
                setup_wall_s=plain["setup_wall_s"],
                import_rss_mb=plain["import_rss_mb"], passed_over=plain["passed_over"],
            )
        if name in traced:
            entry.update(per_layer=traced[name]["layers"],
                         span_table=traced[name]["span_table"])
        workloads[name] = entry
    return {
        "schema": "benchmarks.ledger/v1",
        "commit": _commit(),
        "python": platform.python_version(),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": workloads,
    }


def compare_sets(first: Dict[str, Dict[str, Any]],
                 second: Dict[str, Dict[str, Any]]) -> List[str]:
    """Why two runs of the same code disagree (empty when they agree).

    Outcomes of the untraced pass are compared on the end-to-end metrics,
    outcomes of the traced pass on their ``*_per_op`` counts.
    """
    problems = []
    for name, a in first.items():
        b = second[name]
        if "layers" in a:
            if not (a["correct"] and b["correct"]):
                problems.append(f"{name}: a traced pass failed verification")
            for key in schema.PER_OP_NAMES:
                if a["layers"][key] != b["layers"][key]:
                    problems.append(f"{name}: {key} {a['layers'][key]!r} vs "
                                    f"{b['layers'][key]!r} must repeat exactly")
            continue
        for outcome, label in ((a, "first"), (b, "second")):
            if outcome["noisy"]:
                problems.append(f"{name}: {label} set is noisy")
            if outcome["metrics"]["ok_ratio"] != 1.0:
                problems.append(f"{name}: {label} set has ok_ratio "
                                f"{outcome['metrics']['ok_ratio']}")
        for metric in schema.END_TO_END:
            x, y = a["metrics"][metric.name], b["metrics"][metric.name]
            if metric.name in schema.EXACT_NAMES:
                agree = x == y
            else:
                allowed = schema.ledger_bound(metric.name, name) * min(x, y)
                if metric.name == "setup_s":
                    allowed = max(allowed, SETUP_SLACK_S)
                agree = abs(x - y) <= allowed
            if not agree:
                problems.append(f"{name}: {metric.name} {x:.6g} vs {y:.6g} "
                                f"is outside its bound")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="End-to-end and per-layer benchmark of the whole stack.",
    )
    parser.add_argument("--workload", choices=schema.WORKLOAD_NAMES,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=schema.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(schema.LEDGER_SECONDS),
                        help="seconds one run of one workload measures (the driver passes "
                             f"{schema.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass and reports per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="ledger mode: run only the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n <= 8, 2 samples); digests are not pinned")
    parser.add_argument("--record", action="store_true",
                        help="append this run to results/history.jsonl")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the whole set twice; fail unless the two agree")
    args = parser.parse_args(argv)

    if args.workload:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.smoke)
        print(describe(outcome))
        print(driver_line(outcome), flush=True)
        return 0 if outcome["correct"] else 1

    names = schema.WORKLOAD_NAMES
    if args.selfcheck:
        # The counts come from the traced pass; its pinned samples and probes
        # run whatever the budget, so the shortest traced pass has them all.
        first = run_set(names, args.seed, args.seconds, False, args.smoke)
        first_traced = run_set(names, args.seed, 0.0, True, args.smoke)
        second = run_set(names, args.seed, args.seconds, False, args.smoke)
        second_traced = run_set(names, args.seed, 0.0, True, args.smoke)
        problems = compare_sets(first, second) + compare_sets(first_traced, second_traced)
        (RESULTS / "selfcheck.json").write_text(json.dumps({
            "agree": not problems,
            "problems": problems,
            "first": _document(args.seed, args.seconds, args.smoke, first, first_traced),
            "second": _document(args.seed, args.seconds, args.smoke, second, second_traced),
        }, indent=1, sort_keys=True) + "\n")
        print("\n".join(problems) if problems else
              "selfcheck: the two sets agree on every end-to-end metric and every count")
        return 1 if problems else 0

    untraced = {} if args.traced else run_set(names, args.seed, args.seconds, False, args.smoke)
    traced = run_set(names, args.seed, args.seconds, True, args.smoke)
    document = _document(args.seed, args.seconds, args.smoke, untraced, traced)
    (RESULTS / "latest.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if args.record:
        row = dict(document)
        for entry in row["workloads"].values():
            entry.pop("span_table", None)
        with (RESULTS / "history.jsonl").open("a") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    outcomes = list(untraced.values()) + list(traced.values())
    return 0 if all(outcome["correct"] for outcome in outcomes) else 1
