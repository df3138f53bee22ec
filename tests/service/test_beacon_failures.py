"""Beacon failure paths: shard death, hangs, saturation, shutdown, chaos load.

The robustness contract under test: execution-plane failures (a SIGKILLed or
hung shard, a saturated queue, a stop mid-flight) cost latency or surface as
structured responses -- they never change a computed result and never leak a
process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

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
from repro.service.loadgen import build_requests, run_load


def make_service(**kwargs) -> BeaconService:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("request_timeout_s", 10.0)
    return BeaconService(ServicePolicy(**kwargs))


def no_leaked_children() -> bool:
    return not multiprocessing.active_children()


def faulted(protocol: str, seed: int, fault: str, **fault_params) -> BeaconRequest:
    params = {"attempts": [0], **fault_params}
    return BeaconRequest(
        protocol=protocol,
        n=4,
        seed=seed,
        fault={"fault": fault, "params": params},
    )


class TestShardDeath:
    def test_sigkill_mid_request_retries_to_byte_identical_result(self):
        oracle = cold_payload(BeaconRequest(protocol="weak_coin", n=4, seed=31))
        with make_service(backoff_base_s=0.01) as service:
            response = service.call(
                faulted("weak_coin", 31, "sigkill"), timeout_s=60
            )
            counters = service.metrics_dump()["counters"]
        assert response.ok, response.to_dict()
        assert response.attempts == 2
        assert canonical_json(response.payload) == canonical_json(oracle)
        assert counters["service.retries"] == 1
        assert counters["service.shard_restarts"] == 1
        assert no_leaked_children()

    def test_worker_exit_fault_also_recovers(self):
        with make_service(backoff_base_s=0.01) as service:
            response = service.call(
                faulted("weak_coin", 32, "exit"), timeout_s=60
            )
        assert response.ok
        assert response.attempts == 2

    def test_raise_fault_is_retried_not_fatal(self):
        with make_service(backoff_base_s=0.01) as service:
            response = service.call(
                faulted("weak_coin", 33, "raise"), timeout_s=60
            )
            counters = service.metrics_dump()["counters"]
        assert response.ok
        # An exception does not kill the shard -- no restart, just a retry.
        assert counters["service.shard_restarts"] == 0
        assert counters["service.retries"] == 1

    def test_exhausted_retries_surface_structured_error(self):
        request = BeaconRequest(
            protocol="weak_coin",
            n=4,
            seed=34,
            # attempts "all": the fault fires on every dispatch, so retries
            # cannot recover and the request must fail cleanly.
            fault={"fault": "raise", "params": {"attempts": None}},
        )
        with make_service(max_retries=1, backoff_base_s=0.01) as service:
            response = service.call(request, timeout_s=60)
            counters = service.metrics_dump()["counters"]
        assert not response.ok
        assert response.status == "error"
        assert response.error == "exception"
        assert response.attempts == 2
        assert counters["service.errors"] == 1


class TestHangs:
    def test_hung_shard_hits_deadline_and_is_replaced(self):
        oracle = cold_payload(BeaconRequest(protocol="weak_coin", n=4, seed=41))
        with make_service(
            request_timeout_s=0.5, backoff_base_s=0.01
        ) as service:
            response = service.call(
                faulted("weak_coin", 41, "hang", seconds=30.0), timeout_s=60
            )
            counters = service.metrics_dump()["counters"]
        assert response.ok, response.to_dict()
        assert canonical_json(response.payload) == canonical_json(oracle)
        assert counters["service.timeouts"] == 1
        assert counters["service.shard_restarts"] == 1
        assert no_leaked_children()

    def test_permanent_hang_ends_as_timeout_error(self):
        request = BeaconRequest(
            protocol="weak_coin",
            n=4,
            seed=42,
            fault={"fault": "hang",
                   "params": {"attempts": None, "seconds": 30.0}},
        )
        with make_service(
            request_timeout_s=0.3, max_retries=1, backoff_base_s=0.01
        ) as service:
            response = service.call(request, timeout_s=60)
        assert response.status == "error"
        assert response.error == "timeout"
        assert no_leaked_children()

    def test_call_that_gives_up_leaves_no_response_behind(self):
        request = faulted("weak_coin", 43, "hang", seconds=0.5)
        with make_service() as service:
            with pytest.raises(ServiceError, match="no response"):
                service.call(request, timeout_s=0.1)
            service.run_until_idle(timeout_s=60)
            # The request ran to completion and is counted; its response,
            # which nobody will take, is not kept.
            assert service.poll(0) == 0
            assert service.take_response(request.request_id) is None
            dump = service.metrics_dump()
        assert dump["counters"]["service.ok"] == 1
        assert validate_service_metrics(dump) == []


class TestHeartbeats:
    """A SIGSTOPped shard keeps its pipe open, so only its heartbeat can
    tell it is wedged: it must be replaced, and take no request meanwhile."""

    POLICY = dict(shards=1, heartbeat_interval_s=0.05, heartbeat_timeout_s=0.5)

    @staticmethod
    def _kill_stopped(pid: int) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def test_wedged_idle_shard_is_replaced_within_the_heartbeat_timeout(self):
        service = make_service(**self.POLICY).start()
        pid = service._pool.workers[0].process.pid
        try:
            os.kill(pid, signal.SIGSTOP)
            began = time.monotonic()
            while service._pool.workers[0].process.pid == pid:
                # interval + timeout, plus slack for a loaded machine
                assert time.monotonic() - began < 0.55 + 2.0, "never replaced"
                service.poll(0.01)
            counters = service.metrics_dump()["counters"]
            assert counters["service.heartbeat_failures"] == 1
            assert counters["service.shard_restarts"] == 1
            request = BeaconRequest(protocol="weak_coin", n=4, seed=51)
            response = service.call(request, timeout_s=60)
        finally:
            self._kill_stopped(pid)
            service.stop()
        assert response.ok and response.attempts == 1
        assert canonical_json(response.payload) == canonical_json(
            cold_payload(request)
        )
        assert no_leaked_children()

    def test_shard_owing_a_pong_takes_no_request(self):
        service = make_service(**self.POLICY).start()
        stopped = service._pool.workers[0]
        pid = stopped.process.pid
        try:
            os.kill(pid, signal.SIGSTOP)
            give_up = time.monotonic() + 10.0
            while stopped.ping_at is None:
                assert time.monotonic() < give_up, "no ping went out"
                service.poll(0.01)
            request = BeaconRequest(protocol="weak_coin", n=4, seed=52)
            response = service.call(request, timeout_s=5)
            counters = service.metrics_dump()["counters"]
        finally:
            self._kill_stopped(pid)
            service.stop()
        # Served by the replacement on its first dispatch, not retried off
        # the wedged shard after a request deadline.
        assert response.ok and response.attempts == 1
        assert canonical_json(response.payload) == canonical_json(
            cold_payload(request)
        )
        assert counters["service.heartbeat_failures"] == 1
        assert counters["service.shard_restarts"] == 1
        assert counters["service.retries"] == 0
        assert no_leaked_children()


class TestBackpressure:
    def test_saturation_sheds_with_counter_and_retry_hint(self):
        with make_service(shards=1, queue_depth=2) as service:
            shed = []
            for seed in range(6):
                response = service.submit(
                    BeaconRequest(protocol="weak_coin", n=4, seed=seed)
                )
                if response is not None:
                    shed.append(response)
            service.run_until_idle(timeout_s=60)
            counters = service.metrics_dump()["counters"]
        assert len(shed) == 4
        assert all(r.shed for r in shed)
        assert all(r.retry_after_s > 0 for r in shed)
        assert counters["service.shed"] == 4
        assert counters["service.ok"] == 2

    def test_shed_requests_succeed_on_resubmit(self):
        with make_service(shards=1, queue_depth=1) as service:
            report = run_load(
                service,
                build_requests(8, n=4, protocols=("weak_coin",)),
                verify=True,
            )
        assert report.ok == 8
        assert report.shed_events > 0
        assert not report.divergent


class TestShutdown:
    def test_graceful_stop_drains_inflight_work(self):
        service = make_service(shards=1).start()
        requests = [
            BeaconRequest(protocol="weak_coin", n=4, seed=seed)
            for seed in range(4)
        ]
        for request in requests:
            assert service.submit(request) is None
        service.stop(drain=True)
        for request in requests:
            response = service.take_response(request.request_id)
            assert response is not None and response.ok, request.request_id
        assert no_leaked_children()

    def test_hard_stop_surfaces_shutdown_errors(self):
        service = make_service(shards=1).start()
        requests = [
            BeaconRequest(protocol="weak_coin", n=4, seed=seed)
            for seed in range(3)
        ]
        for request in requests:
            service.submit(request)
        service.stop(drain=False)
        statuses = [
            service.take_response(r.request_id) for r in requests
        ]
        assert all(s is not None for s in statuses)
        assert all(s.error == "shutdown" for s in statuses if not s.ok)
        assert any(not s.ok for s in statuses)
        assert no_leaked_children()


class TestChaosLoad:
    """Mini version of the CI chaos gate: load + faults, zero divergence."""

    @pytest.mark.parametrize("fault", ["sigkill", "hang"])
    def test_chaos_load_zero_divergence(self, fault):
        policy = dict(shards=2, queue_depth=32, backoff_base_s=0.01)
        if fault == "hang":
            policy["request_timeout_s"] = 0.75
        with make_service(**policy) as service:
            report = run_load(
                service,
                build_requests(30, n=4, inject=fault, inject_every=6),
                verify=True,
            )
            counters = service.metrics_dump()["counters"]
        assert report.ok == 30, report.to_dict()
        assert not report.divergent
        assert report.availability == 1.0
        assert counters["service.shard_restarts"] >= 1
        assert counters["service.retries"] >= 1
        assert no_leaked_children()
