"""Beacon service happy paths: warm reuse, byte identity, metrics, shutdown."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.errors import ServiceError
from repro.experiments.spec import canonical_json
from repro.obs.schema import validate_service_metrics
from repro.service import (
    BeaconRequest,
    BeaconService,
    ServicePolicy,
    cold_payload,
)
from repro.service.shard import EXECUTOR_CACHE_SIZE, ShardState


def make_service(**kwargs) -> BeaconService:
    kwargs.setdefault("shards", 2)
    return BeaconService(ServicePolicy(**kwargs))


def no_leaked_children() -> bool:
    return not multiprocessing.active_children()


class TestHappyPath:
    def test_response_matches_cold_oneshot_byte_for_byte(self):
        request = BeaconRequest(protocol="weak_coin", n=4, seed=21)
        oracle = cold_payload(BeaconRequest(protocol="weak_coin", n=4, seed=21))
        with make_service() as service:
            response = service.call(request, timeout_s=60)
        assert response.ok
        assert canonical_json(response.payload) == canonical_json(oracle)
        assert response.attempts == 1

    def test_second_same_shape_request_is_warm(self):
        with make_service() as service:
            first = service.call(
                BeaconRequest(protocol="weak_coin", n=4, seed=1), timeout_s=60
            )
            second = service.call(
                BeaconRequest(protocol="weak_coin", n=4, seed=2), timeout_s=60
            )
        assert first.ok and second.ok
        assert first.warm is False
        assert second.warm is True

    def test_mixed_protocols_one_service(self):
        with make_service() as service:
            for protocol, params in (
                ("coin", {"rounds": 2}),
                ("weak_coin", {}),
                ("aba", {"inputs": {p: p % 2 for p in range(4)}}),
                ("fba", {"inputs": {p: 1 for p in range(4)},
                         "coinflip_rounds": 1}),
            ):
                request = BeaconRequest(protocol=protocol, n=4, seed=5,
                                        params=dict(params))
                oracle = cold_payload(
                    BeaconRequest(protocol=protocol, n=4, seed=5,
                                  params=dict(params))
                )
                response = service.call(request, timeout_s=60)
                assert response.ok, (protocol, response.to_dict())
                assert canonical_json(response.payload) == canonical_json(oracle)

    def test_same_shape_routes_to_same_shard(self):
        with make_service(shards=2) as service:
            shards = {
                service.call(
                    BeaconRequest(protocol="weak_coin", n=4, seed=seed),
                    timeout_s=60,
                ).shard
                for seed in range(4)
            }
        assert len(shards) == 1


class TestMetrics:
    def test_dump_validates_and_conserves_requests(self):
        with make_service() as service:
            for seed in range(3):
                service.call(
                    BeaconRequest(protocol="weak_coin", n=4, seed=seed),
                    timeout_s=60,
                )
            dump = service.metrics_dump()
        assert validate_service_metrics(dump) == []
        assert dump["counters"]["service.requests"] == 3
        assert dump["counters"]["service.ok"] == 3
        assert dump["latency_ms"]["count"] == 3
        assert dump["latency_ms"]["summary"]["p50"] is not None

    def test_empty_service_dump_still_validates(self):
        with make_service(shards=1) as service:
            dump = service.metrics_dump()
        assert validate_service_metrics(dump) == []


class TestAdmission:
    @pytest.mark.parametrize(
        "protocol, params",
        [
            ("coinflip", {"roundz": 1}),
            ("fba", {}),
            ("weak_coin", {"knobs": {}}),
            ("weak_coin", {"prime": 15}),
        ],
    )
    def test_params_the_runner_cannot_take_never_reach_a_shard(self, protocol, params):
        """Rejected at ``submit``, not answered ``error`` after the request
        ran (and failed) on a shard once per attempt."""
        with make_service() as service:
            with pytest.raises(ServiceError, match="runner"):
                service.call(
                    BeaconRequest(protocol=protocol, n=4, seed=1, params=params),
                    timeout_s=60,
                )
            assert not any(service.metrics.counter_values().values())
            assert [
                (stats["served"], stats["executors"]) for stats in service.shard_stats()
            ] == [(0, 0), (0, 0)]
            good = service.call(
                BeaconRequest(protocol="weak_coin", n=4, seed=1), timeout_s=60
            )
        assert good.ok and good.attempts == 1


class TestShardCache:
    def test_distinct_params_keep_the_executor_cache_bounded(self):
        """A stream of distinct secrets evicts the least recently served
        executor: the cache never passes its bound, the hot shape stays warm,
        and every answer equals its cold re-run."""
        shard = ShardState(0)
        hot = BeaconRequest(protocol="weak_coin", n=4, seed=3)
        for secret in range(200):
            request = BeaconRequest(protocol="svss", n=4, seed=secret,
                                    params={"secret": secret})
            payload, warm = shard.execute(request)
            assert not warm
            assert canonical_json(payload) == canonical_json(cold_payload(request))
            assert len(shard.executors) <= EXECUTOR_CACHE_SIZE
            assert shard.execute(hot)[1] == (secret > 0)
        stats = shard.stats()
        assert stats["executors"] == EXECUTOR_CACHE_SIZE
        assert stats["evictions"] == 201 - EXECUTOR_CACHE_SIZE
        assert stats["served"] == 400 and stats["warm_hits"] == 199


class TestLifecycle:
    def test_submit_before_start_raises(self):
        service = BeaconService(ServicePolicy(shards=1))
        with pytest.raises(ServiceError, match="not running"):
            service.submit(BeaconRequest(protocol="weak_coin", n=4, seed=1))

    def test_submit_after_stop_raises(self):
        service = make_service(shards=1).start()
        service.stop()
        with pytest.raises(ServiceError, match="not running"):
            service.submit(BeaconRequest(protocol="weak_coin", n=4, seed=1))

    def test_stop_is_idempotent_and_leaks_nothing(self):
        service = make_service().start()
        service.call(BeaconRequest(protocol="weak_coin", n=4, seed=1),
                     timeout_s=60)
        service.stop()
        service.stop()
        assert no_leaked_children()

    def test_restart_requires_new_instance(self):
        service = make_service(shards=1).start()
        service.stop()
        with pytest.raises(ServiceError, match="stopped"):
            service.start()

    def test_policy_rejects_nonsense(self):
        with pytest.raises(ServiceError):
            ServicePolicy(shards=0)
        with pytest.raises(ServiceError):
            ServicePolicy(queue_depth=0)
        with pytest.raises(ServiceError):
            ServicePolicy(max_retries=-1)
        # Every field is checked as written, by the one schema.
        for field, value in [
            ("request_timeout_s", -1), ("request_timeout_s", 0),
            ("heartbeat_interval_s", 0), ("heartbeat_timeout_s", -5.0),
            ("drain_timeout_s", 0), ("shed_retry_after_s", -0.05),
            ("backoff_base_s", -0.01), ("heartbeat_interval_s", "2"),
            ("shards", True), ("queue_depth", 1.5), ("max_retries", False),
        ]:
            with pytest.raises(ServiceError, match=f"policy: {field} must be"):
                ServicePolicy(**{field: value})
        assert ServicePolicy(shards=2, queue_depth=64).queue_depth == 64
        assert ServicePolicy(backoff_base_s=0, request_timeout_s=None).backoff_base_s == 0

    def test_serve_refuses_a_negative_timeout_before_starting(self, capsys):
        from repro.experiments.cli import main

        code = main(["serve", "--requests", "4", "--shards", "1",
                     "--timeout", "-1", "--quiet"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: policy: request_timeout_s must be")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert no_leaked_children()
