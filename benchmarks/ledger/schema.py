"""Names, units, directions and regression bounds of everything the ledger reports.

This module is the single definition of the benchmark's vocabulary.
``BENCHMARK.json`` at the repository root repeats it for the driver (the
test suite asserts the two agree), the README explains it, and every result
file is keyed by these names.

A **layer** is one package under ``src/repro``; ``host`` is the machine the
benchmark runs on.  ``adversary``, ``analysis`` and ``lowerbound`` are off
every hot path and get no metrics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Seed used when none is given; its digests are pinned in
#: ``expected_digests.json``.
DEFAULT_SEED = 20200803
#: Second pinned seed, never used while tuning: claims are confirmed on it.
HELD_OUT_SEED = 7331

#: Seconds one driver run measures (``run_seconds`` in ``BENCHMARK.json``).
RUN_SECONDS = 12
#: Seconds one workload measures when the ledger runs on its own
#: (``--record``, ``--selfcheck``): it is judged by tighter bounds than the
#: driver's and is not held to the driver's time cap, so it takes twice the
#: samples.
LEDGER_SECONDS = 24
#: Fresh processes per untraced run: each sets up once and measures a third
#: of the run, so ``setup_s`` is a median of three set-ups.
ROUNDS = 3

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse;
    #: None for per-layer metrics, which explain and are never gated.
    bound: Optional[float] = None
    why: str = ""


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "coin_n32",
        "weak coin at n=32 (scale preset): SVSS-dominated, thousands in flight, "
        "so net rank-select/fan-out, protocols.svss and the vectorised crypto plane do the work",
    ),
    Workload(
        "fba_n8",
        "the paper's end product (Algorithm 3) at n=8: aba handlers and per-message dispatch "
        "dominate, queue shallow, crypto scalar; bypasses crypto-plane and deep-queue changes",
    ),
    Workload(
        "coin_n16_observed",
        "strong coin at n=16 with tracing, metrics and a ring sink on: instrumented loop, "
        "flat per-message queue, obs hot; pays for any fast-path win bought from the traced path",
    ),
    Workload(
        "scenario_mix_n16",
        "six library attacks at n=16 with invariants on: scenario director, hostile schedulers "
        "and the two/three-class queues, the other consumers of the delivery loop",
    ),
    Workload(
        "campaign_small_w2",
        "campaign of four cells of 1-10 ms trials on 2 workers with a store: supervisor, chunk "
        "pickling, checkpoints and core aggregation are a visible share of the wall time",
    ),
    Workload(
        "beacon_closed_n4",
        "resident 2-shard beacon, closed loop with 2 clients, weak_coin/aba at n=4: execution is "
        "under 1 ms so front-end poll loop, pipe, pickle and canonical payload are a third or more",
    ),
)

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "fresh-process start to first timed sample (import, world/pool/service build, "
           "warm-up), in reference-box seconds: cu x 25 ms"),
    Metric("op_cost_cu", "cu", "lower", 0.25,
           "median wall cost of one operation in calibration units; the headline"),
    Metric("latency_p50_cu", "cu", "lower", 0.25,
           "median latency of a single operation (beacon: submit to take_response)"),
    Metric("latency_p90_cu", "cu", "lower", 0.25,
           "90th percentile latency of a single operation"),
    Metric("steps_per_op", "count", "lower", 0.08,
           "simulated deliveries per operation over the pinned seed list; repeats exactly per seed"),
    Metric("msgs_per_op", "count", "lower", 0.08,
           "simulated messages sent per operation; the paper's message-complexity axis"),
    Metric("ok_ratio", "ratio", "higher", 0.01,
           "operations whose output was verified correct over operations attempted"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           "peak resident memory of the workload process after its imports, plus its largest child"),
)

#: The six attacks of ``scenario_mix_n16`` (each runs its own library protocol).
SCENARIOS: Tuple[str, ...] = (
    "reactive-rush",
    "restart-storm",
    "tamper-on-share",
    "dealer-ambush",
    "rushing-coalition",
    "partition-heal",
)


def _layer(prefix: str, rows: List[Tuple[str, str, str, str]]) -> List[Metric]:
    return [
        Metric(f"{prefix}.{name}", unit, better, None, why)
        for name, unit, better, why in rows
    ]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("net", [
        ("ns_per_delivery", "ns", "lower", "delivery-loop wall time over deliveries, inside real trials"),
        ("bare_delivery_random_ns", "ns", "lower", "submit+step with no protocol hosted, random queue, at the workload's mean depth"),
        ("bare_delivery_twoclass_ns", "ns", "lower", "same on the two-class (delay scheduler) queue"),
        ("bare_delivery_traced_ns", "ns", "lower", "same on the random queue with tracing on"),
        ("fanout_submit_ns", "ns", "lower", "submit_broadcast cost per receiver"),
        ("world_build_us", "us", "lower", "Simulation.build_network() at the workload's n"),
        ("loop_share", "ratio", "lower", "delivery loop over the whole build+start+run span"),
        ("queue_depth_mean", "count", "lower", "mean in-flight messages (sampled every 64 deliveries)"),
        ("queue_depth_max", "count", "lower", "largest sampled in-flight depth"),
        ("bare_share", "ratio", "lower", "deliveries x bare ns over loop time: the queue+loop share"),
    ])
    + _layer("crypto", [
        ("deal_rows_us", "us", "lower", "EvalPlan.bivariate_rows for one dealer"),
        ("row_miss_us", "us", "lower", "CryptoPlane.validate_row+row_evals on an unseen row"),
        ("row_hit_ns", "ns", "lower", "the same on a cached row"),
        ("reconstruct_miss_us", "us", "lower", "reconstruct_at_zero on an unseen party set"),
        ("reconstruct_hit_ns", "ns", "lower", "the same on a cached party set"),
        ("row_misses_per_op", "count", "lower", "plane row-cache misses per operation"),
        ("eval_hits_per_op", "count", "higher", "plane eval-cache hits per operation"),
        ("weight_misses_per_op", "count", "lower", "plane weight-cache misses per operation"),
        ("vector_calls_per_op", "count", "lower", "batched numpy kernel calls per operation"),
        ("scalar_calls_per_op", "count", "lower", "plain-int kernel calls per operation"),
        ("plane_hit_ratio", "ratio", "higher", "plane cache hits over probes"),
        ("est_share", "ratio", "lower", "sum of count x unit cost over loop time (an estimate)"),
    ])
    + _layer("protocols", [
        ("aba_ns_per_delivery", "ns", "lower", "api.run_aba loop time per delivery at the workload's n"),
        ("svss_ns_per_delivery", "ns", "lower", "api.run_svss loop time per delivery at the workload's n"),
        ("sessions_per_op", "count", "lower", "protocol sessions completed per operation"),
        ("residual_share", "ratio", "lower", "1 - net.bare_share - crypto.est_share (an estimate)"),
    ])
    + _layer("scenarios", [
        ("runtime_build_us", "us", "lower", "ScenarioRuntime(spec, n)"),
        ("director_build_us", "us", "lower", "build_director + build_scheduler per trial"),
        ("invariants_us", "us", "lower", "assert_invariants on a finished trial"),
        ("actions_per_op", "count", "lower", "director actions per scenario trial"),
        ("drops_per_op", "count", "lower", "dropped deliveries per scenario trial"),
    ])
    + [
        Metric(f"scenarios.overhead_ratio.{name}", "ratio", "lower", None,
               "scenario trial over the plain trial of the same protocol, n and seed")
        for name in SCENARIOS
    ]
    + _layer("obs", [
        ("tracing_overhead_ratio", "ratio", "lower", "tracing on over off, same seeds"),
        ("metrics_overhead_ratio", "ratio", "lower", "metrics registry on over off"),
        ("sink_overhead_ratio", "ratio", "lower", "ring sink attached over plain tracing"),
        ("meter_overhead_ratio", "ratio", "lower", "group meter on over off"),
        ("events_per_op", "count", "lower", "trace events emitted per traced trial"),
        ("jsonl_bytes_per_op", "B", "lower", "bytes a JSONL sink writes per traced trial (events x mean line size)"),
    ])
    + _layer("core", [
        ("aggregate_add_us", "us", "lower", "TrialAggregate.add of one result"),
        ("aggregate_merge_us", "us", "lower", "TrialAggregate.merge of two chunk aggregates"),
        ("transport_roundtrip_us", "us", "lower", "to_transport_dict, pickle, unpickle, from_transport_dict"),
        ("transport_bytes", "B", "lower", "pickled size of one chunk aggregate"),
    ])
    + _layer("experiments", [
        ("executor_build_us", "us", "lower", "CellExecutor(cell)"),
        ("inline_overhead_ratio", "ratio", "lower", "run_campaign(workers=1) over the bare executor.run loop"),
        ("parallel_efficiency", "ratio", "higher", "inline wall over 2 x parallel wall"),
        ("first_chunk_ms", "ms", "lower", "run_campaign start to first progress callback"),
        ("store_put_chunk_us", "us", "lower", "ResultStore.put_chunk"),
        ("store_save_ms", "ms", "lower", "ResultStore.save of a finished campaign"),
        ("store_bytes", "B", "lower", "size of the saved store"),
        ("chunks_per_op", "count", "lower", "chunks dispatched per campaign trial"),
        ("retries", "count", "lower", "chunk retries during the campaign"),
    ])
    + _layer("service", [
        ("start_ms", "ms", "lower", "BeaconService.start()"),
        ("cold_ms", "ms", "lower", "first request of a shape"),
        ("exec_ms_p50", "ms", "lower", "in-process ShardState.execute on the same requests"),
        ("roundtrip_overhead_ms", "ms", "lower", "1-client closed-loop p50 minus exec p50"),
        ("wait_ms_p50", "ms", "lower", "2-client latency minus in-process exec of the same request, median"),
        ("wait_ms_p95", "ms", "lower", "the same at the 95th percentile: head-of-line plus IPC"),
        ("codec_us", "us", "lower", "BeaconRequest to_dict/from_dict plus canonical_payload"),
        ("request_bytes", "B", "lower", "pickled request envelope"),
        ("response_bytes", "B", "lower", "pickled ok reply"),
        ("warm_hit_ratio", "ratio", "higher", "warm hits over ok responses"),
        ("shed", "count", "lower", "requests shed by backpressure"),
        ("retries", "count", "lower", "request retries"),
        ("restarts", "count", "lower", "shard restarts"),
    ])
    + _layer("host", [
        ("calib_ms", "ms", "lower", "median wall time of one calibration pass"),
        ("calib_spread", "ratio", "lower", "IQR over median of every calibration pass of the run"),
        ("ops_per_s", "1/s", "higher", "raw wall-clock throughput; reported, never gated"),
        ("latency_p50_ms", "ms", "lower", "raw median latency of one operation"),
        ("latency_p95_ms", "ms", "lower", "raw 95th percentile latency of one operation"),
        ("trace_overhead_ratio", "ratio", "lower", "traced pass over untraced pass op cost, same seeds"),
    ])
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)
E2E_NAMES: Tuple[str, ...] = tuple(m.name for m in END_TO_END)
LAYER_NAMES: Tuple[str, ...] = tuple(m.name for m in PER_LAYER)
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
BOUNDS: Dict[str, float] = {m.name: m.bound for m in END_TO_END}
#: End-to-end metrics that two runs of one seed must agree on exactly.
EXACT_NAMES: Tuple[str, ...] = ("steps_per_op", "msgs_per_op", "ok_ratio")
#: Per-layer counts per operation: functions of the seed alone, so two runs
#: of one seed must agree on them exactly.
PER_OP_NAMES: Tuple[str, ...] = tuple(n for n in LAYER_NAMES if n.endswith("_per_op"))

#: Where the ledger judges a metric more finely than ``Metric.bound`` allows
#: (``--selfcheck``, the noise guard, the bound printed beside every number).
#: ``Metric.bound`` is one figure per metric for all six workloads, has to be
#: three times the widest spread over runs of *different* seeds, and is what
#: the driver gates on; this is per workload, for two runs of **one seed**.
#: ISSUE 11 asked 10 %.  Six 12 s runs of one seed spanned 6-14 % on five workloads
#: and 22 % on ``beacon_closed_n4`` (four processes on two cores), which stays
#: at 25 %; ``latency_p90_cu`` spanned 11-30 % and stays at 25 % everywhere.
LEDGER_BOUNDS: Dict[Tuple[str, str], float] = {
    (workload, metric): 0.15
    for workload in WORKLOAD_NAMES if workload != "beacon_closed_n4"
    for metric in ("op_cost_cu", "latency_p50_cu")
}


def ledger_bound(metric: str, workload: str) -> float:
    """Share by which ``metric`` may move between two runs of one seed of ``workload``."""
    if metric in EXACT_NAMES:
        return 0.0
    return LEDGER_BOUNDS.get((workload, metric), BOUNDS[metric])


def benchmark_json() -> Dict[str, object]:
    """The contents ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
