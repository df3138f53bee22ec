"""Tier-1 checks of the perf ledger at smoke sizes (n <= 8, 2 samples, in-process).

They pin what later PRs rely on: the vocabulary agrees with ``BENCHMARK.json``
and stays inside the driver's limits, every workload runs and verifies its
outputs, digests are a function of the seed alone, and span self-times add
up to their parents.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from benchmarks.ledger import cli, schema
from benchmarks.ledger.measure import (
    digest_of, measure_round, median_is_noisy, quantile, summarize,
)
from benchmarks.ledger.spans import SpanRecorder
from benchmarks.ledger.workloads import REGISTRY

ROOT = Path(__file__).resolve().parents[2]


def smoke_round(name, seed, scratch, trace_path=None):
    return measure_round(
        name=name, seed=seed, round_index=0, budget_s=0.0, smoke=True,
        spawn_time=time.time(), scratch=str(scratch), trace_path=trace_path,
    )


def test_vocabulary_is_within_the_driver_limits():
    assert 2 <= len(schema.WORKLOADS) <= 8
    assert 1 <= len(schema.END_TO_END) <= 16
    assert 1 <= len(schema.PER_LAYER) <= 128
    names = schema.WORKLOAD_NAMES + schema.E2E_NAMES + schema.LAYER_NAMES
    assert len(set(names)) == len(names)
    assert all(schema.NAME_PATTERN.match(name) for name in names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in schema.WORKLOADS)
    for metric in schema.END_TO_END + schema.PER_LAYER:
        assert metric.unit and len(metric.unit) <= 16
        assert metric.better in ("lower", "higher")
    assert all(0 < m.bound <= 0.25 for m in schema.END_TO_END)
    assert all(m.bound is None for m in schema.PER_LAYER)
    setup = next(m for m in schema.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in schema.END_TO_END)


def test_benchmark_json_repeats_the_schema():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == schema.benchmark_json()
    # 4 + 22 runs per workload, each run_seconds plus set-up, inside the cap.
    runs = 4 + 22 * len(on_disk["workloads"])
    assert runs * (on_disk["run_seconds"] + 10) <= 3420


def test_both_seeds_are_pinned_for_every_workload():
    pinned = cli.load_digests()
    for seed in (schema.DEFAULT_SEED, schema.HELD_OUT_SEED):
        assert set(pinned[str(seed)]) == set(schema.WORKLOAD_NAMES)
        assert all(len(d) == schema.ROUNDS for d in pinned[str(seed)].values())


@pytest.mark.parametrize("name", schema.WORKLOAD_NAMES)
def test_workload_runs_verifies_and_repeats(name, tmp_path):
    first = smoke_round(name, 11, tmp_path)
    again = smoke_round(name, 11, tmp_path)
    assert first["failed"] == 0 and first["attempted"] >= 2, first["errors"]
    assert first["pinned"] == again["pinned"]
    outcome = summarize([first], cost_bound=0.15)
    assert set(outcome["metrics"]) == set(schema.E2E_NAMES)
    assert all(math.isfinite(v) and v > 0 for v in outcome["metrics"].values())
    assert outcome["metrics"]["ok_ratio"] == 1.0


@pytest.mark.parametrize("name", ["coin_n32", "fba_n8", "coin_n16_observed"])
def test_digest_depends_on_the_seed(name, tmp_path):
    def digest(seed):
        workload = REGISTRY[name](seed, True, str(tmp_path))
        workload.setup()
        return digest_of(workload.sample(0).ops)

    assert digest(11) == digest(11) != digest(12)


def test_traced_pass_agrees_reports_every_layer_and_writes_spans(tmp_path):
    trace_path = tmp_path / "trace.json"
    result = smoke_round("scenario_mix_n16", 11, tmp_path, trace_path=str(trace_path))
    assert result["failed"] == 0, result["errors"]  # traced == untraced, op by op
    assert set(result["layers"]) == set(schema.LAYER_NAMES)
    assert all(math.isfinite(value) for value in result["layers"].values())
    total = result["layers"]["net.bare_share"] + result["layers"]["crypto.est_share"] \
        + result["layers"]["protocols.residual_share"]
    assert total == pytest.approx(1.0)
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert {"net.delivery_loop", "scenarios.invariants"} <= {e["name"] for e in events}
    # Self time is what is left of a span after its children: over the whole
    # table it must add up to the time under the root spans.
    roots = sum(e["dur"] for e in events if e["args"]["parent"] is None)
    table_self = sum(row["self_s"] for row in result["span_table"])
    assert table_self * 1e6 == pytest.approx(roots, rel=1e-6)


def test_span_self_times_sum_to_their_parent():
    spans = SpanRecorder()
    with spans.span("op", new_trace=True) as op:
        with spans.span("a"):
            with spans.span("a.inner"):
                time.sleep(0.001)
        with spans.span("b") as b:
            time.sleep(0.001)
        spans.child_of_last("b.tail", b.end - 0.0005, b.end)
    own = spans.self_times()
    by_parent = {}
    for span in spans.spans:
        by_parent.setdefault(span.parent, []).append(span)
    for span in spans.spans:
        children = by_parent.get(span.id, [])
        assert own[span.id] + sum(c.duration for c in children) == pytest.approx(span.duration)
        assert all(c.trace == span.trace for c in children)
    assert sum(own.values()) == pytest.approx(op.duration)


def test_peak_rss_belongs_to_the_workload(tmp_path):
    # ru_maxrss survives fork and exec, so it would read the spawning
    # command's peak on every workload alike; VmHWM of the round's own
    # process, plus its largest child once that is waited for, does not.
    def rss(name):
        return cli.run_round({"name": name, "seed": 11, "round_index": 0, "budget_s": 0.0,
                              "smoke": True, "scratch": str(tmp_path)})["rss_mb"]

    with ThreadPoolExecutor(2) as pool:  # two fresh processes, side by side
        coin, beacon = pool.map(rss, ["coin_n32", "beacon_closed_n4"])
    assert 10 < coin < beacon  # the beacon's shards are children; a coin has none


def test_a_failed_operation_has_no_latency(tmp_path, monkeypatch):
    from benchmarks.ledger import workloads

    checked = []

    def fail_the_second(op, *args, **kwargs):
        checked.append(op)
        if len(checked) == 2:  # the first is the warm-up sample's
            op.ok, op.error = False, "made to fail"

    monkeypatch.setattr(workloads, "check_invariants", fail_the_second)
    result = smoke_round("fba_n8", 11, tmp_path)
    assert result["failed"] == 1 and result["errors"] == ["made to fail"]
    assert len(result["lat_cu"]) == len(result["lat_s"]) == result["attempted"] - 1
    assert quantile([], 0.5) == math.inf  # nothing succeeded: every latency bound missed


def test_a_deadlocked_attack_is_passed_over_and_the_next_seed_derived(tmp_path, monkeypatch):
    from repro.errors import SimulationError
    from benchmarks.ledger import workloads

    workload = REGISTRY["scenario_mix_n16"](11, True, str(tmp_path))
    workload.setup()
    executor = workload.executors["restart-storm"]
    first_seed = workloads.derive_seed(11, workload.name, 0, 0)
    real_run = executor.run

    def run(seed):
        if seed == first_seed:
            raise SimulationError("network is quiescent but the stop condition is not met")
        return real_run(seed)

    monkeypatch.setattr(executor, "run", run)
    sample = workload.sample(0)
    assert all(op.ok for op in sample.ops) and len(sample.ops) == len(schema.SCENARIOS)
    assert workload.passed_over == [f"restart-storm n=4 seed {first_seed}"]
    # Any other error, or deadlock after deadlock, is a failed operation.
    monkeypatch.setattr(executor, "run", lambda seed: run(first_seed))
    assert [op.ok for op in workload.sample(0).ops].count(False) == 1


def _outcome(**metrics):
    values = {"setup_s": 1.0, "op_cost_cu": 10.0, "latency_p50_cu": 10.0,
              "latency_p90_cu": 12.0, "steps_per_op": 100.0, "msgs_per_op": 120.0,
              "ok_ratio": 1.0, "peak_rss_mb": 80.0}
    values.update(metrics)
    return {"metrics": values, "noisy": False}


def test_selfcheck_applies_each_metric_its_own_bound_on_each_workload():
    base = {"coin_n32": _outcome()}
    assert cli.compare_sets(base, {"coin_n32": _outcome(op_cost_cu=11.4, setup_s=1.2)}) == []
    assert cli.compare_sets(base, {"coin_n32": _outcome(op_cost_cu=11.6)})
    assert cli.compare_sets(base, {"coin_n32": _outcome(steps_per_op=100.5)})  # exact
    assert cli.compare_sets(base, {"coin_n32": _outcome(ok_ratio=0.99)})
    assert cli.compare_sets(base, {"coin_n32": dict(_outcome(), noisy=True)})
    # setup_s: max(25 %, 0.05 s)
    small = {"coin_n32": _outcome(setup_s=0.10)}
    assert cli.compare_sets(small, {"coin_n32": _outcome(setup_s=0.14)}) == []
    # The beacon repeats half as well and is judged by the driver's wider bound.
    beacon = {"beacon_closed_n4": _outcome()}
    assert cli.compare_sets(beacon, {"beacon_closed_n4": _outcome(op_cost_cu=11.6)}) == []
    for (workload, metric), bound in schema.LEDGER_BOUNDS.items():
        assert 0 < bound < schema.BOUNDS[metric] and workload in schema.WORKLOAD_NAMES


def test_noise_guard_follows_the_bound_the_median_is_judged_by():
    assert not median_is_noisy(0.22, 25, 0.15)  # the widest recorded normal run
    assert median_is_noisy(0.283, 18, 0.15)     # a bad moment of the box, fba_n8
    assert not median_is_noisy(0.307, 16, 0.25)  # the beacon is judged at 25 %
    assert median_is_noisy(0.476, 15, 0.25)


def test_selfcheck_requires_every_count_per_operation_to_repeat_exactly():
    assert len(schema.PER_OP_NAMES) >= 10
    layers = dict.fromkeys(schema.LAYER_NAMES, 1.0)
    base = {"w": {"layers": layers, "correct": True}}
    moved_time = dict(layers, **{"net.ns_per_delivery": 2.0})
    assert cli.compare_sets(base, {"w": {"layers": moved_time, "correct": True}}) == []
    moved_count = dict(layers, **{"obs.events_per_op": 1.0000001})
    assert cli.compare_sets(base, {"w": {"layers": moved_count, "correct": True}})
    assert cli.compare_sets(base, {"w": {"layers": layers, "correct": False}})
