"""Beacon front-end: dispatch, retries, health checks, backpressure.

:class:`BeaconService` runs its resident shards on the one
:class:`~repro.experiments.pool.WorkerPool` -- the same code that spawns,
times, kills, replaces and retries the campaign's workers -- with a
:class:`~repro.service.shard.ShardState` as each shard's handler, and adds in
a single-threaded event loop what a *long-lived* service needs and a
run-to-completion campaign does not:

* **routing**: accepted requests wait in one send-ordered admission queue
  and are bound to a shard at *dispatch*, not at submit: the head of the
  queue goes to its home shard
  (:meth:`~repro.service.requests.BeaconRequest.shard_slot`, a stable content
  hash of (protocol, n, prime), so same-shaped traffic reuses one shard's
  warm executors) if that shard is idle, else to the lowest-numbered idle
  shard -- FIFO, and no shard idles while a request waits.  An answer is a
  pure function of the request, so *where* it runs is performance policy;
* **a fixed slot per shard**: all shards start with the service, and the
  pool replaces a dead, hung or wedged one on its own slot.  A request past
  ``request_timeout_s`` is re-dispatched up to ``max_retries`` times after
  the pool's deterministic backoff;
* **health checks**: idle shards are pinged every ``heartbeat_interval_s``;
  a shard whose pong is outstanding takes no request, and one that misses
  ``heartbeat_timeout_s`` is killed and replaced.  Warm state is a cache,
  so a replacement shard is merely cold, never wrong;
* **backpressure**: queued plus in-flight requests are bounded by
  ``shards * queue_depth``, pooled over the shards; :meth:`submit` answers
  a full service with a structured ``"shed"`` response carrying
  ``retry_after_s`` instead of queueing unboundedly;
* **graceful shutdown**: :meth:`stop` drains in-flight work (bounded by
  ``drain_timeout_s``), asks shards to exit, then kills stragglers -- no
  leaked processes, and anything still unfinished surfaces as a structured
  ``"shutdown"`` error response.

Failure handling never changes *what* a request computes: trials are seeded
explicitly and warm caches are pure, so a response that survived three shard
deaths is byte-identical to a cold one-shot run (asserted end-to-end by
``tests/service`` and the ``beacon-smoke`` CI job).

All counters and latency histograms live on a
:class:`~repro.obs.metrics.MetricsRegistry` under ``service.*`` and are
exported by :meth:`metrics_dump` (declared as
:data:`repro.obs.schema.SERVICE_METRICS`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro import schema
from repro.errors import ServiceError
from repro.experiments.backoff import DEFAULT_BACKOFF_BASE_S
from repro.experiments.pool import POLL_INTERVAL_S, WorkerPool
from repro.obs.metrics import MetricsRegistry, summarize_histogram
from repro.obs.schema import SERVICE_COUNTERS, SERVICE_METRICS_SCHEMA
from repro.service.requests import ERROR, OK, SHED, BeaconRequest, BeaconResponse
from repro.service.shard import ShardState

#: The dump's counters by short name: ``COUNTER.ok`` is ``"service.ok"``.
COUNTER = SimpleNamespace(**{name.split(".", 1)[1]: name for name in SERVICE_COUNTERS})
#: The pool's counters, under their service names.
_COUNTERS = {
    "retries": COUNTER.retries,
    "timeouts": COUNTER.timeouts,
    "restarts": COUNTER.shard_restarts,
}
#: Latency histogram bucket bounds (milliseconds).
LATENCY_BUCKETS_MS: Tuple[int, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)


@dataclass(frozen=True)
class ServicePolicy:
    """Robustness knobs for one :class:`BeaconService`.

    Every knob is data, so a policy can be logged, diffed and reproduced.
    ``request_timeout_s`` is the per-dispatch deadline (None disables the
    sweep); ``max_retries`` bounds *re*-dispatches, so a request runs at most
    ``max_retries + 1`` times.
    """

    shards: int = 2
    queue_depth: int = 16
    request_timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 5.0
    drain_timeout_s: float = 30.0
    shed_retry_after_s: float = 0.05

    #: Each field's check: counts are ints, delays are positive seconds.
    FIELDS = {
        "shards": schema.Int(1),
        "queue_depth": schema.Int(1),
        "request_timeout_s": schema.Real(0, null=True),
        "max_retries": schema.Int(0),
        "backoff_base_s": schema.Real(0, lo_closed=True),
        "heartbeat_interval_s": schema.Real(0),
        "heartbeat_timeout_s": schema.Real(0),
        "drain_timeout_s": schema.Real(0),
        "shed_retry_after_s": schema.Real(0),
    }

    def __post_init__(self) -> None:
        problem = schema.problem(self.FIELDS, vars(self), None, "{}")
        if problem is not None:
            raise ServiceError(f"policy: {problem}")


@dataclass
class _Pending:
    """One accepted request plus its service-side bookkeeping.

    ``slot`` is the shard serving the request, set at each dispatch (None
    while it has never left the admission queue).
    """

    request: BeaconRequest
    accepted_at: float
    slot: Optional[int] = None


class BeaconService:
    """Long-lived sharded front-end for deterministic beacon requests.

    Single-threaded: callers drive the event loop through :meth:`poll` /
    :meth:`run_until_idle` / :meth:`call`.  Usable as a context manager
    (``with BeaconService(...) as svc``) -- exit stops with drain.
    """

    def __init__(
        self,
        policy: Optional[ServicePolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.policy = policy if policy is not None else ServicePolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            queue_depth_every=0, completion_steps=False
        )
        # One slot per shard; a replacement comes up cold on the same slot --
        # warm executors are a pure cache keyed by request shape, so losing
        # them costs latency, never correctness.
        self._pool = WorkerPool(ShardState, self.policy.shards,
                                self.policy.backoff_base_s, self.metrics,
                                _COUNTERS)
        self._queue: Deque[_Pending] = deque()  # admission queue, send order
        self._responses: Dict[str, BeaconResponse] = {}
        self._abandoned: Set[str] = set()  # ids whose call() gave up waiting
        self._started = False
        self._closed = False
        self._started_at: Optional[float] = None
        # Pre-create the headline histograms so empty dumps still carry them.
        self.metrics.histogram("service.latency_ms", LATENCY_BUCKETS_MS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "BeaconService":
        if self._closed:
            raise ServiceError("service is stopped; build a new one")
        if not self._started:
            self._started = True
            self._started_at = time.monotonic()
            for slot in range(self.policy.shards):
                self._pool.spawn(slot)
        return self

    def __enter__(self) -> "BeaconService":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop(drain=exc_type is None)

    def _inc(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: BeaconRequest) -> Optional[BeaconResponse]:
        """Accept ``request`` for execution, or shed it immediately.

        Returns ``None`` when accepted (the response arrives via
        :meth:`poll` / :meth:`take_response`) or a ``"shed"``
        :class:`BeaconResponse` when the service already holds
        ``shards * queue_depth`` queued or in-flight requests -- the caller
        should back off ``retry_after_s`` and resubmit.
        Malformed requests raise :class:`~repro.errors.ServiceError`.
        """
        if not self._started or self._closed:
            raise ServiceError("service is not running (call start())")
        request.validate()
        self._inc(COUNTER.requests)
        depth = len(self._queue) + self._pool.busy()
        if depth >= self.policy.shards * self.policy.queue_depth:
            self._inc(COUNTER.shed)
            return BeaconResponse(
                request_id=request.request_id,
                status=SHED,
                shard=request.shard_slot(self.policy.shards),
                retry_after_s=self.policy.shed_retry_after_s,
            )
        self._queue.append(_Pending(request, time.monotonic()))
        return None

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------
    def _respond(self, response: BeaconResponse) -> None:
        """Hold ``response`` for its caller -- unless :meth:`call` gave up."""
        if response.request_id in self._abandoned:
            self._abandoned.discard(response.request_id)
        else:
            self._responses[response.request_id] = response

    def _finish_ok(self, pending: _Pending, payload: Dict[str, Any],
                   warm: bool, exec_ms: float) -> None:
        elapsed_ms = (time.monotonic() - pending.accepted_at) * 1000.0
        self._inc(COUNTER.ok)
        if warm:
            self._inc(COUNTER.warm_hits)
        # latency_ms is acceptance-to-answer (queueing, retries and all);
        # exec_ms is the shard-measured pure execution time of the final,
        # successful attempt.  The gap between the two is the queue.
        self.metrics.histogram("service.latency_ms", LATENCY_BUCKETS_MS).observe(
            elapsed_ms
        )
        self.metrics.histogram("service.exec_ms", LATENCY_BUCKETS_MS).observe(
            exec_ms
        )
        steps = payload.get("steps")
        if isinstance(steps, int):
            self.metrics.histogram("service.steps").observe(steps)
        self._respond(BeaconResponse(
            request_id=pending.request.request_id,
            status=OK,
            payload=payload,
            shard=pending.slot,
            attempts=pending.request.attempt + 1,
            warm=warm,
            elapsed_ms=round(elapsed_ms, 3),
        ))

    def _finish_error(self, pending: _Pending, kind: str, error: str,
                      message: str) -> None:
        self._inc(COUNTER.errors)
        self._respond(BeaconResponse(
            request_id=pending.request.request_id,
            status=ERROR,
            error=kind,
            message=f"{error}: {message}" if error else message,
            shard=pending.slot,
            attempts=pending.request.attempt + 1,
            elapsed_ms=round((time.monotonic() - pending.accepted_at) * 1000.0, 3),
        ))

    def _fail(self, pending: _Pending, kind: str, error: str,
              message: str) -> None:
        """Retry after the pool's backoff, or emit the terminal error."""
        request = pending.request
        if self._pool.retry(pending, request.attempt, self.policy.max_retries):
            request.attempt += 1
        else:
            self._finish_error(pending, kind, error, message)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def poll(self, timeout_s: float = POLL_INTERVAL_S) -> int:
        """Run one event-loop cycle; returns the number of responses ready.

        One cycle: promote due retries, dispatch to idle shards, wait (up to
        ``timeout_s``, shortened to the nearest deadline / heartbeat /
        retry), consume shard replies and deaths, ping idle shards.
        """
        if not self._started:
            raise ServiceError("service is not running (call start())")
        pool = self._pool
        queue = self._queue

        # Promote due retries to the front of the queue, oldest first (a
        # retried request is older than anything queued behind it).
        due = pool.due()
        due.sort(key=lambda pending: pending.accepted_at, reverse=True)
        queue.extendleft(due)

        # Dispatch: the head of the queue goes to its home shard if that one
        # is idle, else to the lowest-numbered idle shard.  Only the head is
        # ever bound, so nothing overtakes; the loop ends when the queue is
        # empty or no shard is idle, so none idles while a request waits.
        while queue:
            idle = pool.idle()
            if not idle:
                break
            home = queue[0].request.shard_slot(self.policy.shards)
            shard = next((s for s in idle if s.index == home), idle[0])
            pending = queue[0]
            if not pool.assign(shard, pending, pending.request.to_dict(),
                               self.policy.request_timeout_s):
                continue  # found dead and replaced; no attempt burns
            queue.popleft()
            pending.slot = shard.index
            if shard.index != home:
                self._inc(COUNTER.spills)

        # Wait for replies, waking for the nearest heartbeat timeout too.
        timeout = self.policy.heartbeat_timeout_s
        pings = [s.ping_at + timeout for s in pool.live() if s.ping_at is not None]
        for kind, shard, pending, detail in pool.wait(
            timeout_s, min(pings) if pings else None
        ):
            if pending is None:
                continue  # an idle shard died; the pool replaced it
            if kind == "ok":
                self._finish_ok(pending, *detail)
            elif kind == "error":
                self._fail(pending, "exception", *detail[:2])
            elif kind == "death":
                self._fail(
                    pending,
                    "shard-death",
                    "ShardDied",
                    f"shard {shard.index} died (exitcode "
                    f"{shard.process.exitcode}) while running "
                    f"{pending.request.request_id}",
                )
            else:
                self._fail(
                    pending,
                    "timeout",
                    "RequestTimeout",
                    f"request {pending.request.request_id} exceeded its "
                    f"{self.policy.request_timeout_s:.3f}s deadline on shard "
                    f"{shard.index}",
                )

        # Heartbeats: ping idle shards, replace the unresponsive.
        now = time.monotonic()
        for shard in pool.live():
            if shard.job is not None:
                continue
            if shard.ping_at is not None:
                if now - shard.ping_at > timeout:
                    self._inc(COUNTER.heartbeat_failures)
                    pool.replace(shard)
            elif now - shard.seen_at >= self.policy.heartbeat_interval_s:
                if not pool.ping(shard):
                    self._inc(COUNTER.heartbeat_failures)

        return len(self._responses)

    # ------------------------------------------------------------------
    # Client conveniences
    # ------------------------------------------------------------------
    def take_response(self, request_id: str) -> Optional[BeaconResponse]:
        """Pop the response for ``request_id`` if it has arrived."""
        return self._responses.pop(request_id, None)

    @property
    def pending_count(self) -> int:
        """Requests accepted but not yet answered (queued/in-flight/retrying)."""
        return len(self._queue) + self._pool.busy() + len(self._pool.retries)

    def run_until_idle(self, timeout_s: Optional[float] = None) -> None:
        """Drive the loop until every accepted request has a response."""
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        while self.pending_count:
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"run_until_idle timed out with {self.pending_count} "
                    f"requests outstanding"
                )
            self.poll()

    def call(self, request: BeaconRequest,
             timeout_s: Optional[float] = None) -> BeaconResponse:
        """Submit one request and drive the loop until its response arrives.

        A shed submission is returned as-is (the caller owns backoff) and a
        ``timeout_s`` overrun raises :class:`~repro.errors.ServiceError` and
        abandons the request: it still runs to completion, its response is
        discarded.
        """
        shed = self.submit(request)
        if shed is not None:
            return shed
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        while True:
            response = self.take_response(request.request_id)
            if response is not None:
                return response
            if deadline is not None and time.monotonic() > deadline:
                # The request still runs (and is counted); nobody will take
                # its response, so it is dropped when it lands.
                self._abandoned.add(request.request_id)
                raise ServiceError(
                    f"no response for {request.request_id} within {timeout_s}s"
                )
            self.poll()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_stats(self, timeout_s: float = 5.0) -> List[Dict[str, Any]]:
        """Each live shard's serve counters, fetched with a heartbeat ping;
        a busy shard only reports that it is busy."""
        pool = self._pool
        stats: List[Dict[str, Any]] = []
        probed = []
        for shard in pool.live():
            if shard.job is not None:
                stats.append({"shard": shard.index, "busy": True})
            elif shard.ping_at is not None or pool.ping(shard):
                probed.append(shard)
        deadline = time.monotonic() + timeout_s
        while any(s.ping_at is not None for s in probed) and time.monotonic() < deadline:
            self.poll(0.05)
        # A shard replaced meanwhile died mid-probe and reports nothing.
        stats.extend(s.stats for s in probed if pool.workers[s.index] is s)
        return stats

    def metrics_dump(self) -> Dict[str, Any]:
        """JSON-shaped service metrics (schema ``repro.service.metrics/v1``)."""
        counters = self.metrics.counter_values()
        latency = self.metrics.histogram(
            "service.latency_ms", LATENCY_BUCKETS_MS
        ).to_dict()
        exec_hist = self.metrics.histogram(
            "service.exec_ms", LATENCY_BUCKETS_MS
        ).to_dict()
        dump: Dict[str, Any] = {
            "schema": SERVICE_METRICS_SCHEMA,
            "policy": {
                "shards": self.policy.shards,
                "queue_depth": self.policy.queue_depth,
                "request_timeout_s": self.policy.request_timeout_s,
                "max_retries": self.policy.max_retries,
            },
            "counters": {name: counters.get(name, 0) for name in SERVICE_COUNTERS},
            "latency_ms": {**latency, "summary": summarize_histogram(latency)},
            "exec_ms": {**exec_hist, "summary": summarize_histogram(exec_hist)},
            "pending": self.pending_count,
        }
        if self._started_at is not None:
            uptime = time.monotonic() - self._started_at
            dump["uptime_s"] = round(uptime, 3)
            ok = counters.get(COUNTER.ok, 0)
            dump["requests_per_s"] = round(ok / uptime, 3) if uptime > 0 else None
        return dump

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def stop(self, drain: bool = True) -> None:
        """Stop the service; with ``drain``, finish in-flight work first.

        Draining is bounded by ``policy.drain_timeout_s``.  Whatever is
        still unanswered afterwards (or when ``drain=False``) becomes a
        structured ``"shutdown"`` error response -- a stopped service never
        silently swallows an accepted request.  No shard process survives
        this call.
        """
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        pool = self._pool
        try:
            if drain:
                deadline = time.monotonic() + self.policy.drain_timeout_s
                while self.pending_count and time.monotonic() < deadline:
                    self.poll()
            # Surface anything still outstanding as structured errors.
            leftovers: List[_Pending] = list(self._queue)
            self._queue.clear()
            for shard in pool.live():
                if shard.job is not None:
                    leftovers.append(shard.job)
                    shard.job = None
            leftovers.extend(entry[2] for entry in pool.retries)
            pool.retries.clear()
            for pending in leftovers:
                self._finish_error(
                    pending, "shutdown", "ServiceStopped",
                    "service stopped before the request completed",
                )
        finally:
            pool.close()
