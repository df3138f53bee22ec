"""Structured metrics: cheap counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is attached to one simulation (``metrics=True`` on
:class:`~repro.net.runtime.Simulation` or the :mod:`repro.core.api` runners).
The network drives it through two pre-bound hooks -- completion steps per
session root and periodic queue-depth samples -- and the registry's snapshot
additionally gathers the crypto-plane cache statistics and evaluation-plan
dispatch counts (:mod:`repro.crypto.kernels`).

Determinism: every recorded value is a function of the deterministic
execution (steps, queue depths, cache traffic), never of wall-clock time, and
:meth:`MetricsRegistry.snapshot` emits keys in sorted order -- two runs of
the same seed produce byte-identical snapshots.  Attaching a registry never
changes delivery order: the run stays on the network's one delivery loop,
which then stores the step counter per delivery (completion steps read it)
and wakes every ``queue_depth_every`` deliveries for the depth sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

#: Default bucket bounds for completion-step histograms (deliveries).
STEP_BUCKETS: Tuple[int, ...] = (64, 256, 1024, 4096, 16384, 65536, 262144)
#: Default bucket bounds for queue-depth histograms (in-flight messages).
DEPTH_BUCKETS: Tuple[int, ...] = (16, 64, 256, 1024, 4096, 16384)


class CounterMetric:
    """A monotone integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins numeric value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Any = None

    def set(self, value: Any) -> None:
        self.value = value


class Histogram:
    """A fixed-bound bucket histogram with count/sum/max aggregates.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket catches
    everything above the last bound.  Buckets are fixed at construction so
    recording is one bisect plus three integer updates.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "max_value")

    def __init__(self, bounds: Sequence[int]) -> None:
        self.bounds: Tuple[int, ...] = tuple(sorted(bounds))
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.max_value: Optional[int] = None

    def observe(self, value: int) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def to_dict(self) -> Dict[str, Any]:
        buckets = {f"<={bound}": count for bound, count in zip(self.bounds, self.bucket_counts)}
        buckets[f">{self.bounds[-1]}"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max_value,
            "mean": round(self.total / self.count, 2) if self.count else None,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Named metrics for one simulated execution.

    Args:
        queue_depth_every: sample the in-flight queue depth every k-th
            delivery (0 disables sampling; negative raises ValueError).
        completion_steps: record a per-session-root histogram of the step at
            which each party completed each session.
    """

    def __init__(self, queue_depth_every: int = 64, completion_steps: bool = True) -> None:
        if int(queue_depth_every) < 0:
            raise ValueError(
                f"queue_depth_every must be >= 0 (0 disables sampling), "
                f"got {queue_depth_every!r}"
            )
        self.queue_depth_every = int(queue_depth_every)
        self.completion_steps = completion_steps
        self._counters: Dict[str, CounterMetric] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._crypto: Optional[Dict[str, Any]] = None
        self._plan_baseline: Optional[Dict[str, int]] = None
        self._lagrange_baseline: Tuple[int, int] = (0, 0)

    # ------------------------------------------------------------------
    # Metric accessors (get-or-create).
    # ------------------------------------------------------------------
    def counter(self, name: str) -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = CounterMetric()
        return metric

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment the named counter (get-or-create convenience)."""
        self.counter(name).inc(amount)

    def counter_values(self) -> Dict[str, int]:
        """Current counter values by name, sorted (no full snapshot needed).

        The campaign runner uses a registry for its supervision counters --
        ``runner.retries``, ``runner.timeouts``, ``runner.worker_restarts``,
        ``runner.quarantined_cells`` -- which the CLI reads back through
        this accessor.
        """
        return {name: metric.value for name, metric in sorted(self._counters.items())}

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str, bounds: Sequence[int] = STEP_BUCKETS) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(bounds)
        return metric

    # ------------------------------------------------------------------
    # Network hooks (pre-bound by Network at construction).
    # ------------------------------------------------------------------
    def on_complete(self, step: int, pid: int, session: Any) -> None:
        """Record the delivery step at which ``pid`` completed ``session``."""
        root = session[0] if session else None
        self.histogram(f"completion_step.{root}", STEP_BUCKETS).observe(step)
        self.counter("completions").inc()

    def on_queue_depth(self, step: int, depth: int) -> None:
        """Record one in-flight queue-depth sample."""
        self.histogram("queue_depth", DEPTH_BUCKETS).observe(depth)
        self.gauge("queue_depth_last").set(depth)
        self.counter("queue_depth_samples").inc()

    # ------------------------------------------------------------------
    # Crypto-plane statistics (process-wide tables need a baseline delta).
    # ------------------------------------------------------------------
    def capture_baseline(self, network: Any) -> None:
        """Snapshot process-wide crypto counters before the run starts.

        The evaluation plan and the Lagrange-basis LRU are shared across
        trials of one process, so per-trial numbers are deltas against this
        baseline.  Building the plan here is deterministic (pure tables, no
        RNG) and is exactly what the first SVSS row would have done.
        """
        from repro.crypto.kernels import get_eval_plan, lagrange_cache_info

        params = network.params
        plan = get_eval_plan(params.prime, params.n)
        self._plan_baseline = dict(plan.stats)
        info = lagrange_cache_info()
        self._lagrange_baseline = (info.hits, info.misses)

    def finalize(self, network: Any) -> Dict[str, Any]:
        """Gather end-of-run crypto statistics and return the full snapshot."""
        from repro.crypto.kernels import get_eval_plan, lagrange_cache_info

        params = network.params
        plan = get_eval_plan(params.prime, params.n)
        baseline = self._plan_baseline or {}
        crypto: Dict[str, Any] = {
            "plan_mode": plan.mode,
            "plan_dispatch": {
                key: value - baseline.get(key, 0)
                for key, value in sorted(plan.stats.items())
            },
        }
        info = lagrange_cache_info()
        base_hits, base_misses = self._lagrange_baseline
        crypto["lagrange_cache"] = {
            "hits": info.hits - base_hits,
            "misses": info.misses - base_misses,
        }
        # The plane (per-network, hence per-trial) carries absolute counters.
        plane = getattr(network, "_crypto_plane", None)
        if plane is not None:
            crypto["plane_cache"] = {
                **{key: value for key, value in sorted(plane.stats.items())},
                "row_cache_size": len(plane.row_cache),
                "eval_cache_size": len(plane.eval_cache),
                "row_tags_size": len(plane.row_tags),
            }
        self._crypto = crypto
        return self.snapshot()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All metrics as a JSON-compatible dict with deterministic key order."""
        data: Dict[str, Any] = {
            "counters": {
                name: metric.value for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.to_dict()
                for name, metric in sorted(self._histograms.items())
            },
        }
        if self._crypto is not None:
            data["crypto"] = self._crypto
        return data


# ----------------------------------------------------------------------
# Aggregation helpers over serialized Histogram.to_dict() payloads.  The
# campaign layer carries histograms across process boundaries (and across
# trials) in exactly that shape, so merging and quantile extraction operate
# on the dict form rather than on live Histogram objects.
def _bucket_bound(label: str) -> float:
    """Sort key for a bucket label: ``"<=64"`` -> 64, ``">262144"`` -> +inf."""
    if label.startswith("<="):
        return float(label[2:])
    return math.inf


def merge_histogram_dicts(
    target: Optional[Mapping[str, Any]], incoming: Mapping[str, Any]
) -> Dict[str, Any]:
    """Combine two :meth:`Histogram.to_dict` payloads (bucketwise sums).

    ``target`` may be None (returns a copy of ``incoming``).  Both payloads
    must share bucket bounds -- they do by construction, since every
    histogram of a given metric name uses the same fixed bounds.  The
    ``mean`` is recomputed from the merged count/sum, so merging is
    associative and order-independent.
    """
    if target is None:
        merged = dict(incoming)
        merged["buckets"] = dict(incoming.get("buckets", {}))
        return merged
    buckets = dict(target.get("buckets", {}))
    for label, count in incoming.get("buckets", {}).items():
        buckets[label] = buckets.get(label, 0) + count
    count = target.get("count", 0) + incoming.get("count", 0)
    total = target.get("sum", 0) + incoming.get("sum", 0)
    maxes = [m for m in (target.get("max"), incoming.get("max")) if m is not None]
    return {
        "count": count,
        "sum": total,
        "max": max(maxes) if maxes else None,
        "mean": round(total / count, 2) if count else None,
        "buckets": buckets,
    }


def histogram_quantile(hist: Mapping[str, Any], q: float) -> Optional[float]:
    """Conservative q-quantile from a bucketed payload (upper bucket edge).

    Returns the inclusive upper bound of the first bucket whose cumulative
    count reaches ``q * count`` -- an upper estimate, exact to bucket
    granularity.  For the overflow bucket the recorded ``max`` is returned.
    None when the histogram is empty.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    count = hist.get("count") or 0
    if not count:
        return None
    target = math.ceil(q * count)
    cumulative = 0
    buckets = sorted(hist.get("buckets", {}).items(), key=lambda kv: _bucket_bound(kv[0]))
    for label, bucket_count in buckets:
        cumulative += bucket_count
        if cumulative >= target:
            bound = _bucket_bound(label)
            if math.isinf(bound):
                break
            return bound
    maximum = hist.get("max")
    return float(maximum) if maximum is not None else None


def summarize_histogram(hist: Mapping[str, Any]) -> Dict[str, Any]:
    """Headline percentiles for reporting: count, mean, p50/p90/p99, max."""
    return {
        "count": hist.get("count", 0),
        "mean": hist.get("mean"),
        "p50": histogram_quantile(hist, 0.50),
        "p90": histogram_quantile(hist, 0.90),
        "p99": histogram_quantile(hist, 0.99),
        "max": hist.get("max"),
    }
