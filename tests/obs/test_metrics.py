"""Unit and integration tests for the structured metrics registry."""

from __future__ import annotations

import pytest

from repro.core import api
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    STEP_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.scenarios import run_scenario


def test_histogram_bucketing_and_aggregates():
    hist = Histogram(bounds=(10, 100))
    for value in (0, 10, 11, 100, 101, 5000):
        hist.observe(value)
    data = hist.to_dict()
    assert data["count"] == 6
    assert data["sum"] == 5222
    assert data["max"] == 5000
    assert data["buckets"] == {"<=10": 2, "<=100": 2, ">100": 2}
    assert data["mean"] == round(5222 / 6, 2)


def test_empty_histogram_mean_is_none():
    data = Histogram(bounds=(1,)).to_dict()
    assert data["count"] == 0
    assert data["mean"] is None
    assert data["max"] is None


def test_registry_get_or_create_and_snapshot_order():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.counter("a").inc()
    assert registry.counter("b") is registry.counter("b")
    registry.gauge("depth").set(7)
    registry.histogram("h", (1, 2)).observe(1)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]  # sorted, deterministic
    assert snap["counters"] == {"a": 1, "b": 2}
    assert snap["gauges"] == {"depth": 7}
    assert snap["histograms"]["h"]["count"] == 1
    assert "crypto" not in snap  # only present after finalize()


def test_registry_hooks():
    registry = MetricsRegistry()
    registry.on_complete(40, 1, ("weak_coin",))
    registry.on_complete(90, 2, ("weak_coin",))
    registry.on_queue_depth(10, 33)
    snap = registry.snapshot()
    assert snap["counters"]["completions"] == 2
    assert snap["histograms"]["completion_step.weak_coin"]["count"] == 2
    assert snap["histograms"]["queue_depth"]["count"] == 1
    assert snap["gauges"]["queue_depth_last"] == 33


def test_end_to_end_metrics_attached_to_result():
    result = api.run_weak_coin(8, seed=0, metrics=True)
    metrics = result.metrics
    assert metrics is not None
    # Every party completes the root session plus the per-dealer subsessions.
    assert metrics["counters"]["completions"] >= 8
    assert metrics["counters"]["queue_depth_samples"] > 0
    assert "completion_step.weak_coin" in metrics["histograms"]
    hist = metrics["histograms"]["completion_step.weak_coin"]
    assert hist["max"] <= result.steps
    crypto = metrics["crypto"]
    assert crypto["plan_mode"] in ("scalar", "matmul", "split")
    assert sum(crypto["plan_dispatch"].values()) > 0
    assert "plane_cache" in crypto
    assert crypto["plane_cache"]["row_misses"] >= 0


@pytest.mark.parametrize("name", ["late-crash-quorum", "silence-heal"])
def test_queue_depth_is_sampled_under_a_step_triggered_director(name):
    """A director with step triggers shares the delivery loop's wake-up step
    with the registry's depth sample; the samples and completion steps are
    taken in that run as in any."""
    result = run_scenario(
        name, n=8, seed=1, params={"metrics": True}, tracing=False
    )
    histograms = result.metrics["histograms"]
    assert histograms["queue_depth"]["count"] == result.steps // 64
    completed = histograms[f"completion_step.{result.session[0]}"]
    assert 0 < completed["max"] <= result.steps


def test_metrics_snapshots_are_deterministic():
    first = api.run_weak_coin(8, seed=1, metrics=True).metrics
    second = api.run_weak_coin(8, seed=1, metrics=True).metrics
    # Lagrange/plan deltas are baselined per-trial, so even the crypto
    # section must agree between two runs of the same seed.
    assert first == second


def test_metrics_off_leaves_result_field_none():
    assert api.run_weak_coin(4, seed=0).metrics is None


def test_custom_registry_instance_is_used():
    registry = MetricsRegistry(queue_depth_every=16)
    result = api.run_weak_coin(8, seed=0, metrics=registry)
    assert result.metrics == registry.snapshot()
    coarse = api.run_weak_coin(
        8, seed=0, metrics=MetricsRegistry(queue_depth_every=256)
    ).metrics
    fine = registry.snapshot()
    assert (
        fine["counters"]["queue_depth_samples"]
        > coarse["counters"]["queue_depth_samples"]
    )


def test_a_negative_depth_period_is_rejected():
    """A negative period is an error, not "sample every delivery"; 0 turns
    sampling off."""
    with pytest.raises(ValueError, match="queue_depth_every must be >= 0"):
        MetricsRegistry(queue_depth_every=-1)
    assert MetricsRegistry(queue_depth_every=0).queue_depth_every == 0
    result = api.run_weak_coin(4, seed=0, metrics=MetricsRegistry(queue_depth_every=0))
    assert "queue_depth" not in result.metrics["histograms"]


def test_default_buckets_are_sorted():
    assert list(STEP_BUCKETS) == sorted(STEP_BUCKETS)
    assert list(DEPTH_BUCKETS) == sorted(DEPTH_BUCKETS)
