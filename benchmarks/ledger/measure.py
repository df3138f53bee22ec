"""The measuring loop of one workload process, and the arithmetic on its samples.

A run of a workload is a few **rounds**, each a fresh process
(:mod:`benchmarks.ledger.worker`) that sets the workload up once, runs one
untimed warm-up sample and then measures for its share of the run.  A
**sample** is ``calibration pass, timed block, calibration pass``; its cost
is the block's wall time over the mean of the two passes, per operation.
Adjacent samples share the pass between them.

The first ``pinned_samples`` samples of every round always run, whatever the
time budget, over seeds that depend only on ``--seed``: the digest,
``steps_per_op`` and ``msgs_per_op`` are computed over those, so they repeat
exactly on any machine.  Samples after them add timing evidence and are
verified like the rest.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.ledger.calib import REFERENCE_CU_S, Calibrator
from benchmarks.ledger.spans import SpanRecorder
from benchmarks.ledger.workloads import REGISTRY, Op, Sample, Workload

#: A round's samples are indexed ``round * stride + position``.
ROUND_STRIDE = 100_000
#: Index (within a round) of the untimed warm-up sample.
WARMUP_POSITION = ROUND_STRIDE - 1

def median_is_noisy(sample_spread: float, samples: int, bound: float) -> bool:
    """Noise guard: is the median of these samples too loose to be judged by ``bound``?

    A median over ``samples`` roughly normal samples whose quartiles are
    ``sample_spread`` of it apart has a standard error of 0.93 x
    ``sample_spread`` / sqrt(``samples``) of itself.  The run is ``noisy`` --
    no clean number -- when the bound it is to be judged by is less than three
    of those.  With the 25 samples and the 15 % of a single-process workload
    that is a sample spread above 0.27; recorded runs on the reference box
    show 0.10-0.22, and its bad moments 0.27-0.48.

    ISSUE 11 proposed a flat 0.10, and 0.15 on the spread of the
    calibrations.  Here calibrations spread by 0.07-0.63 -- slow drift, which
    is exactly what dividing removes (the run with 0.63 had a sample spread
    of 0.11 and agreed with its repeat) -- so that spread is reported
    (``host.calib_spread``) and not judged.
    """
    return 0.93 * sample_spread / math.sqrt(samples) > bound / 3


def quantile(values: Sequence[float], q: float) -> float:
    """The value at rank ``ceil(q * N)`` of the sorted values (nearest rank).

    Infinite for no values: a run in which no operation succeeded misses
    every latency bound.
    """
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles over the median (0 for under 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def own_peak_kib() -> int:
    """Peak resident set of this process's own address space, in KiB.

    ``VmHWM`` belongs to the address space, so it starts afresh at ``exec``.
    ``ru_maxrss`` does not: it survives fork and exec, so a round's process
    would start at the peak of the command that spawned it.  It is the
    fallback where ``/proc`` is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reset_own_peak() -> None:
    """Start this process's peak afresh at what is resident now (Linux 4.0 on).

    Importing ``repro.scenarios.library`` validates every library scenario at
    n = 2^20, a transient 40 MB: a process that has imported the system peaks
    at 80 MB and settles at 37 MB, and most workloads here need less than the
    43 MB between, so without this they read 80 MB to the KiB.
    Where the reset is refused the import's peak stays in the figure.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB.

    ``RUSAGE_CHILDREN`` counts only children that have been waited for:
    call this after the workload's processes are stopped.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_peak_kib() + children) / 1024.0  # Linux reports KiB


def digest_of(ops: Sequence[Op]) -> str:
    sha = hashlib.sha256()
    for op in ops:
        sha.update(op.line().encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _sample_row(sample: Sample, cu_s: float) -> Dict[str, Any]:
    weight = sum(op.weight for op in sample.ops)
    return {
        "wall_s": sample.wall_s,
        "cu_s": cu_s,
        "ops": weight,
        "cost_cu": sample.wall_s / cu_s / weight,
    }


def measure_round(name: str, seed: int, round_index: int, budget_s: float, smoke: bool,
                  spawn_time: float, scratch: str, trace_path: Optional[str] = None,
                  start_cu_s: Optional[float] = None,
                  calibrating_s: float = 0.0) -> Dict[str, Any]:
    """Set ``name`` up, warm it, measure for ``budget_s`` seconds and verify every output.

    With ``trace_path`` every sample is run twice on the same seeds, plain
    and under spans, the two must agree, the per-layer probes run afterwards
    and the spans are written to ``trace_path`` as chrome://tracing JSON.

    ``spawn_time`` is when the parent started this process.  ``setup_s`` runs
    from there to the end of the warm-up sample, less ``calibrating_s`` (the
    calibration the worker took at its start, ``start_cu_s``), and is
    reported in reference-box seconds like every other time here is in
    calibration units: a set-up timed while the box is slow is not slower.
    """
    import_rss_mb = own_peak_kib() / 1024.0
    reset_own_peak()  # peak_rss_mb is the workload's: set-up, samples, verification
    workload: Workload = REGISTRY[name](seed, smoke, scratch)
    calibrator = Calibrator(workload.parallelism)
    try:
        workload.setup()
        workload.sample(round_index * ROUND_STRIDE + WARMUP_POSITION)
        setup_wall_s = time.time() - spawn_time - calibrating_s
        pinned = workload.smoke_samples if smoke else workload.pinned_samples
        spans = SpanRecorder() if trace_path else None

        samples: List[Sample] = []
        traced_samples: List[Sample] = []
        rows: List[Dict[str, Any]] = []
        traced_rows: List[Dict[str, Any]] = []

        def calibrate() -> float:
            gc.collect()  # outside every timed window
            calibs.append(calibrator.measure())
            return calibs[-1]

        calibs: List[float] = []
        started = time.perf_counter()
        before = calibrate()
        setup_cu_s = before if start_cu_s is None else (start_cu_s + before) / 2
        while len(samples) < pinned or (
            not smoke and time.perf_counter() - started < budget_s
        ):
            index = round_index * ROUND_STRIDE + len(samples)
            sample = workload.sample(index)
            after = calibrate()
            samples.append(sample)
            rows.append(_sample_row(sample, (before + after) / 2))
            before = after
            if spans is not None:
                twin = workload.sample(index, spans)
                after = calibrate()
                traced_samples.append(twin)
                traced_rows.append(_sample_row(twin, (before + after) / 2))
                before = after

        workload.verify(samples + traced_samples)
        for sample, twin in zip(samples, traced_samples):
            if digest_of(sample.ops) != digest_of(twin.ops):
                for op in sample.ops:
                    op.ok = False
                    op.error = "traced pass diverged from the untraced pass"
        ops = [op for sample in samples for op in sample.ops]
        pinned_ops = [op for sample in samples[:pinned] for op in sample.ops]

        result: Dict[str, Any] = {
            "round": round_index,
            "setup_s": setup_wall_s / setup_cu_s * REFERENCE_CU_S,
            "setup_wall_s": setup_wall_s,
            "calibs": calibs,
            "samples": rows,
            # A failed or refused operation has no latency: it is counted by
            # ``ok_ratio`` alone, never as a fast one.
            "lat_s": [op.wall_s / op.weight for op in ops if op.ok],
            "lat_cu": [
                op.wall_s / op.weight / row["cu_s"]
                for sample, row in zip(samples, rows) for op in sample.ops if op.ok
            ],
            "pinned": {
                "ops": sum(op.weight for op in pinned_ops),
                "steps": sum(op.steps for op in pinned_ops),
                "msgs": sum(op.msgs or 0 for op in pinned_ops),
                "digest": digest_of(pinned_ops),
            },
            "attempted": sum(op.weight for op in ops),
            "failed": sum(op.weight for op in ops if not op.ok),
            "errors": [op.error for op in ops if not op.ok][:5],
            "passed_over": workload.passed_over,
        }
        if spans is not None:
            from benchmarks.ledger.layers import layer_metrics

            result["traced_samples"] = traced_rows
            result["span_table"] = spans.table()
            result["layers"] = layer_metrics(workload, samples)
            spans.write_chrome_trace(trace_path)
    finally:
        workload.close()
        calibrator.close()
    # Every child has been waited for by now, so the children's peak is whole.
    result["rss_mb"] = peak_rss_mb()
    result["import_rss_mb"] = import_rss_mb
    return result


def summarize(rounds: Sequence[Dict[str, Any]], cost_bound: float) -> Dict[str, Any]:
    """Fold the rounds of one run into the end-to-end metrics and the noise verdict.

    ``cost_bound`` is the bound ``op_cost_cu`` is judged by on this workload.
    """
    rows = [row for result in rounds for row in result["samples"]]
    costs = [row["cost_cu"] for row in rows]
    lat_cu = [value for result in rounds for value in result["lat_cu"]]
    lat_s = [value for result in rounds for value in result["lat_s"]]
    calibs = [value for result in rounds for value in result["calibs"]]
    pinned_ops = sum(result["pinned"]["ops"] for result in rounds)
    attempted = sum(result["attempted"] for result in rounds)
    failed = sum(result["failed"] for result in rounds)
    calib_spread = spread(calibs)
    sample_spread = spread(costs)
    wall = sum(row["wall_s"] for row in rows)
    return {
        "metrics": {
            "setup_s": statistics.median(result["setup_s"] for result in rounds),
            "op_cost_cu": statistics.median(costs),
            "latency_p50_cu": quantile(lat_cu, 0.50),
            "latency_p90_cu": quantile(lat_cu, 0.90),
            "steps_per_op": sum(r["pinned"]["steps"] for r in rounds) / pinned_ops,
            "msgs_per_op": sum(r["pinned"]["msgs"] for r in rounds) / pinned_ops,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": max(result["rss_mb"] for result in rounds),
        },
        "host": {
            "host.calib_ms": statistics.median(calibs) * 1e3,
            "host.calib_spread": calib_spread,
            "host.ops_per_s": sum(row["ops"] for row in rows) / wall,
            "host.latency_p50_ms": quantile(lat_s, 0.50) * 1e3,
            "host.latency_p95_ms": quantile(lat_s, 0.95) * 1e3,
        },
        "round_digests": [result["pinned"]["digest"] for result in rounds],
        "setup_wall_s": statistics.median(result["setup_wall_s"] for result in rounds),
        "import_rss_mb": max(result["import_rss_mb"] for result in rounds),
        "attempted": attempted,
        "failed": failed,
        "errors": [error for result in rounds for error in result["errors"]][:5],
        "passed_over": [seed for result in rounds for seed in result["passed_over"]],
        "samples": len(rows),
        "operations": len(lat_cu),
        "latency_cu": {q: quantile(lat_cu, q / 100) for q in (50, 75, 90, 95, 99)},
        "sample_spread": sample_spread,
        "noisy": median_is_noisy(sample_spread, len(rows), cost_bound),
    }
