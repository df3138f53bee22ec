"""Resident shard state: warm executors behind a pool worker.

Each shard is a long-lived worker of the beacon's
:class:`~repro.experiments.pool.WorkerPool` whose handler is a
:class:`ShardState`: a cache of
:class:`~repro.experiments.runner.CellExecutor` instances keyed by the
request's :meth:`~repro.service.requests.BeaconRequest.warm_key` -- the
per-(prime, n) evaluation plans, behaviour factories and interned session
tables built once and reused for every subsequent request of the same shape.
Request N+1 skips world-building entirely; only the seeded trial runs.  The
key includes the request's params, so the cache is a bounded LRU
(:data:`EXECUTOR_CACHE_SIZE`): a stream of distinct secrets evicts the
least recently served executor instead of growing the shard.  An evicted
shape is simply cold again -- warm and cold answers are equal.

The pool's worker loop owns the pipe and crash isolation: a request dict
is answered ``("ok", (payload, warm, elapsed_ms))`` or ``("error", (name,
message, traceback))``, and a heartbeat ping is answered with
:meth:`ShardState.stats`.

Chaos faults ride inside the request (``fault`` field) and fire *before* the
trial, exactly like the campaign's chunk hook -- an injected SIGKILL or
hang takes the shard down mid-request and exercises the pool's
replace-and-retry machinery, never the result.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Tuple

from repro.service.requests import BeaconRequest, canonical_payload

#: Warm executors one shard keeps; past it the least recently served goes.
EXECUTOR_CACHE_SIZE = 64


class ShardState:
    """Warm-executor cache plus serve counters for one shard process."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.executors: "OrderedDict[str, Any]" = OrderedDict()
        self.served = 0
        self.warm_hits = 0
        self.evictions = 0

    def __call__(self, body: Dict[str, Any]) -> Tuple[Dict[str, Any], bool, float]:
        """Pool handler: one request dict -> ``(payload, warm, elapsed_ms)``."""
        request = BeaconRequest.from_dict(body)
        started = time.monotonic()
        payload, warm = self.execute(request)
        return payload, warm, (time.monotonic() - started) * 1000.0

    def execute(self, request: BeaconRequest) -> Tuple[Dict[str, Any], bool]:
        """Run one request, reusing (or building) its warm executor."""
        # Imported lazily, like the supervisor's worker body: the runner pulls
        # in the whole protocol stack and must not load at service-import time.
        from repro.experiments.registry import inject_fault
        from repro.experiments.runner import CellExecutor

        inject_fault(request.fault, 0, request.attempt)
        key = request.warm_key()
        executors = self.executors
        executor = executors.get(key)
        warm = executor is not None
        if warm:
            executors.move_to_end(key)
        else:
            executor = executors[key] = CellExecutor(request.cell())
            if len(executors) > EXECUTOR_CACHE_SIZE:
                executors.popitem(last=False)
                self.evictions += 1
        with executor.trial(request.seed) as result:
            payload = canonical_payload(result)
        self.served += 1
        if warm:
            self.warm_hits += 1
        return payload, warm

    def stats(self) -> Dict[str, Any]:
        return {
            "shard": self.shard_id,
            "served": self.served,
            "warm_hits": self.warm_hits,
            "executors": len(self.executors),
            "evictions": self.evictions,
        }
