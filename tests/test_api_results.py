"""Tests for the one-call API and the result aggregation helpers."""

from __future__ import annotations

import pytest

from repro.core import api
from repro.core.results import TrialAggregate, aggregate


class TestRunners:
    def test_run_many_aggregates(self):
        stats = api.run_many(api.run_coinflip, range(4), n=4, rounds=1)
        assert stats.trials == 4
        assert stats.disagreement_rate == 0.0
        assert stats.frequency(0) + stats.frequency(1) == pytest.approx(1.0)

    def test_run_many_with_acast(self):
        stats = api.run_many(api.run_acast, range(3), n=4, value="v", sender=0)
        assert stats.trials == 3
        assert stats.frequency("v") == 1.0

    def test_default_coinflip_rounds_applied(self):
        result = api.run_coinflip(4, seed=0)
        instance = result.network.processes[0].protocol(("coinflip",))
        assert instance.rounds == api.DEFAULT_COINFLIP_ROUNDS

    @pytest.mark.parametrize(
        "run",
        [
            lambda: api.run_aba(4, {0: 1, 1: 1, 2: 0, 3: 1}, prime=15),
            lambda: api.run_weak_coin(4, prime=15),
            lambda: api.run_svss(4, 7, prime=15),
            lambda: api.run_acast(4, "v", sender=0, prime=15),
            lambda: api.run_common_subset(4, [0, 1, 2, 3], prime=15),
            lambda: api.run_coinflip(4, rounds=1, prime=15),
            lambda: api.run_fair_choice(4, 3, prime=15),
            lambda: api.run_fba(4, {0: 1, 1: 1, 2: 0, 3: 1}, prime=15),
        ],
        ids=["aba", "weak_coin", "svss", "acast", "common_subset", "coinflip", "fair_choice", "fba"],
    )
    def test_a_composite_modulus_fails_before_the_run(self, run):
        """Every runner builds ProtocolParams first, so a composite prime is a
        ConfigurationError whether or not the protocol does field arithmetic."""
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="prime integer, got prime=15"):
            run()


class TestThroughput:
    def test_trials_record_elapsed_and_throughput(self):
        results = [api.run_acast(4, "x", sender=0, seed=seed) for seed in range(3)]
        assert all(result.elapsed_s > 0 for result in results)
        stats = aggregate(results)
        assert stats.total_elapsed_s == pytest.approx(
            sum(result.elapsed_s for result in results)
        )
        assert stats.deliveries_per_s == pytest.approx(
            stats.total_steps / stats.total_elapsed_s
        )
        assert stats.summary()["deliveries_per_s"] == round(stats.deliveries_per_s)

    def test_timing_stays_out_of_deterministic_dict(self):
        stats = aggregate(api.run_acast(4, "x", sender=0, seed=s) for s in range(2))
        payload = stats.to_dict()
        assert "total_elapsed_s" not in payload
        reloaded = TrialAggregate.from_dict(payload)
        assert reloaded.deliveries_per_s is None
        assert reloaded.summary()["deliveries_per_s"] is None

    def test_merge_sums_elapsed(self):
        a = aggregate([api.run_acast(4, "x", sender=0, seed=0)])
        b = aggregate([api.run_acast(4, "x", sender=0, seed=1)])
        merged = a.merge(b)
        assert merged.total_elapsed_s == pytest.approx(
            a.total_elapsed_s + b.total_elapsed_s
        )

    def test_store_round_trips_elapsed(self, tmp_path):
        from repro.experiments.store import ResultStore

        stats = aggregate([api.run_acast(4, "x", sender=0, seed=0)])
        store = ResultStore.open(tmp_path / "out.json")
        store.put("cell", "hash", stats)
        store.save()
        reloaded = ResultStore.open(tmp_path / "out.json").get("cell")
        assert reloaded.total_elapsed_s == pytest.approx(
            stats.total_elapsed_s, abs=1e-3
        )
        assert reloaded.deliveries_per_s is not None


class TestAggregate:
    def test_mean_metrics(self):
        results = [api.run_acast(4, "x", sender=0, seed=seed) for seed in range(3)]
        stats = aggregate(results)
        assert stats.trials == 3
        assert stats.mean_messages > 0
        assert stats.mean_steps > 0
        assert stats.mean_shun_events == 0.0

    def test_hit_rate(self):
        results = [api.run_coinflip(4, seed=seed, rounds=1) for seed in range(6)]
        stats = aggregate(results)
        total = stats.hit_rate(lambda v: v == 0) + stats.hit_rate(lambda v: v == 1)
        assert total == pytest.approx(1.0)

    def test_summary_keys(self):
        stats = TrialAggregate()
        stats.add(api.run_acast(4, "x", sender=0, seed=0))
        summary = stats.summary()
        assert {"trials", "disagreement_rate", "mean_messages"} <= set(summary)

    def test_disagreement_counted(self):
        stats = aggregate([api.run_weak_coin(4, seed=seed) for seed in range(6)])
        assert 0.0 <= stats.disagreement_rate <= 1.0
        assert stats.trials == 6


class TestMerge:
    def _parts(self):
        results = [api.run_coinflip(4, seed=seed, rounds=1) for seed in range(6)]
        return (
            aggregate(results[:2]),
            aggregate(results[2:5]),
            aggregate(results[5:]),
            aggregate(results),
        )

    def test_merge_equals_single_pass(self):
        a, b, c, whole = self._parts()
        merged = a.merge(b).merge(c)
        assert merged.to_dict() == whole.to_dict()

    def test_merge_is_associative(self):
        a, b, c, _ = self._parts()
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    def test_merge_preserves_output_order(self):
        a, b, _, whole = self._parts()
        assert a.merge(b).outputs == whole.outputs[:5]

    def test_empty_is_identity(self):
        _, b, _, _ = self._parts()
        empty = TrialAggregate.empty()
        assert empty.merge(b).to_dict() == b.to_dict()
        assert b.merge(empty).to_dict() == b.to_dict()

    def test_merge_of_empties_is_empty(self):
        merged = TrialAggregate.empty().merge(TrialAggregate.empty())
        assert merged.trials == 0
        assert merged.disagreement_rate == 0.0
        assert merged.mean_messages == 0.0
        assert merged.frequency(0) == 0.0

    def test_merge_does_not_mutate_operands(self):
        a, b, _, _ = self._parts()
        before_a, before_b = a.to_dict(), b.to_dict()
        a.merge(b)
        assert a.to_dict() == before_a
        assert b.to_dict() == before_b


class TestSerialization:
    def test_round_trip_through_json(self):
        import json

        stats = api.run_many(api.run_coinflip, range(4), n=4, rounds=1)
        restored = TrialAggregate.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert restored.to_dict() == stats.to_dict()
        assert restored.trials == stats.trials
        assert restored.frequency(0) == stats.frequency(0)
        assert restored.mean_messages == stats.mean_messages

    def test_empty_round_trip(self):
        restored = TrialAggregate.from_dict(TrialAggregate.empty().to_dict())
        assert restored.trials == 0
        assert restored.to_dict() == TrialAggregate.empty().to_dict()

    def test_restored_aggregate_can_keep_accumulating(self):
        stats = TrialAggregate.from_dict(
            api.run_many(api.run_acast, range(2), n=4, value="v").to_dict()
        )
        stats.add(api.run_acast(4, "v", seed=9))
        assert stats.trials == 3
        assert stats.frequency("v") == 1.0

    def test_non_json_outputs_fall_back_to_repr(self):
        stats = TrialAggregate()
        stats.add(api.run_common_subset(4, ready_parties=[0, 1, 2], seed=0))
        data = stats.to_dict()
        assert isinstance(data["outputs"][0], (list, str))


class TestParallelRunMany:
    def test_workers_match_sequential_statistics(self):
        # 10 seeds > DEFAULT_CHUNK_TRIALS, so the pool path genuinely runs.
        sequential = api.run_many(api.run_coinflip, range(10), n=4, rounds=1)
        parallel = api.run_many(api.run_coinflip, range(10), n=4, rounds=1, workers=2)
        assert parallel.to_dict() == sequential.to_dict()
        assert parallel.outputs == sequential.outputs

    def test_workers_preserve_output_types(self):
        # Pickled (not JSON-ified) chunk transport: non-primitive outputs such
        # as CommonSubset's frozensets survive the pool unchanged.
        stats = api.run_many(
            api.run_common_subset,
            range(3),
            n=4,
            ready_parties=[0, 1, 2],
            workers=2,
            chunk_trials=1,
        )
        assert all(isinstance(output, frozenset) for output in stats.outputs)
        assert stats.hit_rate(lambda s: s == frozenset({0, 1, 2})) == 1.0

    def test_workers_one_is_sequential_path(self):
        stats = api.run_many(api.run_acast, range(2), workers=1, n=4, value="v")
        assert stats.trials == 2

    def test_empty_aggregate(self):
        stats = TrialAggregate()
        assert stats.frequency("anything") == 0.0
        assert stats.disagreement_rate == 0.0
        assert stats.mean_messages == 0.0
