"""Dispatch policy: one admission queue, bound to a shard when one is idle.

A request's *home* shard (``BeaconRequest.shard_slot``) is a preference: the
head of the queue runs there if that shard is idle and on the lowest idle
shard otherwise.  Every test here is deterministic -- the chaos ``hang``
fault holds a shard for as long as the test needs, so there are no sleeps
and no timing asserts (deadlines only bound how long a *failing* run waits).
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List

from repro.experiments.spec import canonical_json
from repro.obs.schema import validate_service_metrics
from repro.service import (
    BeaconRequest,
    BeaconResponse,
    BeaconService,
    ServicePolicy,
    build_requests,
    cold_payload,
)

HANG_S = 30.0


def make_service(**kwargs) -> BeaconService:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("request_timeout_s", 10.0)
    return BeaconService(ServicePolicy(**kwargs))


def weak_coin(seed: int, hang: bool = False) -> BeaconRequest:
    fault = None
    if hang:
        fault = {"fault": "hang", "params": {"attempts": [0], "seconds": HANG_S}}
    return BeaconRequest(protocol="weak_coin", n=4, seed=seed, fault=fault)


def assert_cold(request: BeaconRequest, response: BeaconResponse) -> None:
    assert response is not None and response.ok, request.request_id
    # The oracle reads (protocol, n, params, seed) only: faults and the
    # attempt counter are execution-plane and never reach it.
    assert canonical_json(response.payload) == canonical_json(cold_payload(request))


def closed_loop(service: BeaconService, requests: List[BeaconRequest],
                clients: int) -> Dict[str, BeaconResponse]:
    """``clients`` requests in flight; the next is sent when one returns."""
    todo = list(requests)
    inflight: List[str] = []
    responses: Dict[str, BeaconResponse] = {}
    give_up = time.monotonic() + 120
    while todo or inflight:
        assert time.monotonic() < give_up, "closed loop never finished"
        while todo and len(inflight) < clients:
            request = todo.pop(0)
            assert service.submit(request) is None
            inflight.append(request.request_id)
        service.poll()
        for request_id in list(inflight):
            response = service.take_response(request_id)
            if response is not None:
                inflight.remove(request_id)
                responses[request_id] = response
    return responses


class TestWorkConserving:
    def test_request_does_not_wait_behind_its_busy_home_shard(self):
        hung, plain = weak_coin(1, hang=True), weak_coin(2)
        assert hung.shard_slot(2) == plain.shard_slot(2)
        service = make_service().start()
        try:
            assert service.submit(hung) is None
            response = service.call(plain, timeout_s=5)
            assert_cold(plain, response)
            assert response.shard != hung.shard_slot(2)
            # The hung request is still in flight: nothing waited for it.
            assert service.pending_count == 1
            assert service.take_response(hung.request_id) is None
            assert service.metrics_dump()["counters"]["service.spills"] == 1
        finally:
            service.stop(drain=False)

    def test_binding_happens_at_dispatch_not_at_submit(self):
        # Shortest-queue-at-submit would put B on the free shard and strand
        # C behind the hung A; late binding serves both on the free shard.
        hung, second, third = weak_coin(1, hang=True), weak_coin(2), weak_coin(3)
        service = make_service().start()
        try:
            assert service.submit(hung) is None
            assert service.submit(second) is None
            assert_cold(third, service.call(third, timeout_s=5))
            # FIFO: the third was answered, so the second was before it.
            assert_cold(second, service.take_response(second.request_id))
            assert service.pending_count == 1
        finally:
            service.stop(drain=False)

    def test_shapes_sharing_a_home_still_use_both_shards(self):
        requests = build_requests(40, n=4, protocols=("weak_coin", "aba"))
        # The premise: both default-param shapes hash to one slot of two.
        assert len({request.shard_slot(2) for request in requests}) == 1
        with make_service() as service:
            responses = closed_loop(service, requests, clients=2)
            stats = service.shard_stats()
            dump = service.metrics_dump()
        for request in requests:
            assert_cold(request, responses[request.request_id])
        assert len(stats) == 2
        assert all(shard["served"] > 0 for shard in stats), stats
        assert sum(shard["served"] for shard in stats) == 40
        assert validate_service_metrics(dump) == []
        assert 0 < dump["counters"]["service.spills"] < 40


class TestAdmissionBound:
    def test_capacity_is_pooled_over_the_shards(self):
        requests = [weak_coin(seed) for seed in range(8)]
        home = requests[0].shard_slot(2)
        with make_service(queue_depth=2) as service:
            answers = [service.submit(request) for request in requests]
            service.run_until_idle(timeout_s=60)
            accepted = [
                service.take_response(request.request_id)
                for request in requests[:4]
            ]
            counters = service.metrics_dump()["counters"]
        # One hot shape gets the whole service: 2 shards x depth 2.
        assert answers[:4] == [None] * 4
        shed = answers[4:]
        assert all(r is not None and r.shed for r in shed)
        assert all(r.retry_after_s > 0 and r.shard == home for r in shed)
        for request, response in zip(requests, accepted):
            assert_cold(request, response)
        assert counters["service.shed"] == 4
        assert counters["service.ok"] == 4


class TestAffinityKept:
    def test_serial_same_shape_calls_never_spill(self):
        with make_service() as service:
            responses = [
                service.call(weak_coin(seed), timeout_s=60) for seed in range(6)
            ]
            counters = service.metrics_dump()["counters"]
        assert {r.shard for r in responses} == {weak_coin(0).shard_slot(2)}
        assert [r.warm for r in responses] == [False] + [True] * 5
        assert counters["service.spills"] == 0

    def test_retry_after_sigkill_is_served_by_whichever_shard_is_idle(self):
        killed = BeaconRequest(
            protocol="weak_coin", n=4, seed=11,
            fault={"fault": "sigkill", "params": {"attempts": [0]}},
        )
        behind = [weak_coin(seed) for seed in (12, 13, 14)]
        with make_service(backoff_base_s=0.01) as service:
            for request in [killed] + behind:
                assert service.submit(request) is None
            service.run_until_idle(timeout_s=60)
            response = service.take_response(killed.request_id)
            others = [service.take_response(r.request_id) for r in behind]
            counters = service.metrics_dump()["counters"]
        assert_cold(killed, response)
        assert response.attempts == 2
        for request, other in zip(behind, others):
            assert_cold(request, other)
            assert other.attempts == 1
        assert counters["service.retries"] == 1
        assert counters["service.shard_restarts"] == 1
        assert not multiprocessing.active_children()

    def test_idle_shard_found_dead_at_dispatch_burns_no_attempt(self):
        request = weak_coin(21)
        with make_service() as service:
            victim = service._pool.workers[request.shard_slot(2)].process
            victim.kill()
            victim.join(timeout=10)
            assert not victim.is_alive()
            response = service.call(request, timeout_s=60)
            counters = service.metrics_dump()["counters"]
        assert_cold(request, response)
        assert response.attempts == 1
        assert counters["service.retries"] == 0
        assert counters["service.shard_restarts"] == 1
        assert not multiprocessing.active_children()

    def test_stop_turns_the_admission_queue_into_shutdown_errors(self):
        requests = [weak_coin(1, hang=True), weak_coin(2), weak_coin(3)]
        service = make_service(shards=1).start()
        for request in requests:
            assert service.submit(request) is None
        service.poll(0)  # the hung request is in flight, two are queued
        assert service.pending_count == 3
        service.stop(drain=False)
        responses = [service.take_response(r.request_id) for r in requests]
        assert [r.error for r in responses] == ["shutdown"] * 3
        # Only the first was ever bound to a shard.
        assert [r.shard for r in responses] == [0, None, None]
        assert service.pending_count == 0
        assert validate_service_metrics(service.metrics_dump()) == []
        assert not multiprocessing.active_children()
