"""Beacon front-end: dispatch, retries, health checks, backpressure.

:class:`BeaconService` owns a pool of resident shard processes
(:mod:`repro.service.shard`) and a single-threaded event loop in the style of
:class:`~repro.experiments.supervisor.WorkerSupervisor` -- pipes plus
:func:`multiprocessing.connection.wait` -- extended with everything a
*long-lived* service needs that a run-to-completion campaign does not:

* **routing**: accepted requests wait in one send-ordered admission queue
  and are bound to a shard at *dispatch*, not at submit: the head of the
  queue goes to its home shard
  (:meth:`~repro.service.requests.BeaconRequest.shard_slot`, a stable content
  hash of (protocol, n, prime), so same-shaped traffic reuses one shard's
  warm executors) if that shard is idle, else to the lowest-numbered idle
  shard -- FIFO, and no shard idles while a request waits.  An answer is a
  pure function of the request, so *where* it runs is performance policy;
* **deadlines and retries**: a request past ``request_timeout_s`` gets its
  shard SIGKILLed and replaced and is re-dispatched up to ``max_retries``
  times after the shared deterministic backoff
  (:func:`~repro.experiments.backoff.backoff_delay`);
* **health checks**: idle shards are pinged every ``heartbeat_interval_s``;
  a shard that misses ``heartbeat_timeout_s`` (or whose pipe reports EOF) is
  killed and replaced.  Warm state is a cache, so a replacement shard is
  merely cold, never wrong;
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
exported by :meth:`metrics_dump` (schema checked by
:func:`repro.obs.schema.validate_service_metrics`).
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ServiceError
from repro.experiments.backoff import DEFAULT_BACKOFF_BASE_S, backoff_delay
from repro.experiments.supervisor import _supervisor_context
from repro.obs.metrics import MetricsRegistry, summarize_histogram
from repro.service.requests import ERROR, OK, SHED, BeaconRequest, BeaconResponse

#: Event-loop poll tick when no deadline/heartbeat/retry is nearer (seconds).
_POLL_INTERVAL_S = 0.25
#: Grace given to a killed shard's ``join`` before it is abandoned.
_JOIN_GRACE_S = 5.0
#: Latency histogram bucket bounds (milliseconds).
LATENCY_BUCKETS_MS: Tuple[int, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)

#: Schema tag stamped on every metrics dump.
METRICS_SCHEMA = "repro.service.metrics/v1"


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

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError(f"policy needs >= 1 shard, got {self.shards}")
        if self.queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_retries < 0:
            raise ServiceError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class _Pending:
    """One accepted request plus its service-side bookkeeping.

    ``slot`` is the shard serving the request, set at each dispatch (None
    while it has never left the admission queue).
    """

    request: BeaconRequest
    accepted_at: float
    slot: Optional[int] = None


class _Shard:
    """One resident shard process: pipe, in-flight state, heartbeat."""

    __slots__ = (
        "slot", "process", "conn", "inflight", "deadline",
        "ping_token", "ping_sent_at", "last_seen",
    )

    def __init__(self, slot: int, context: multiprocessing.context.BaseContext) -> None:
        from repro.service.shard import shard_main

        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = context.Process(
            target=shard_main, args=(child_conn, slot), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.slot = slot
        self.conn = parent_conn
        self.inflight: Optional[_Pending] = None
        self.deadline: Optional[float] = None
        self.ping_token: Optional[int] = None
        self.ping_sent_at: Optional[float] = None
        self.last_seen = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.inflight is not None

    def dispatch(self, pending: _Pending, timeout_s: Optional[float]) -> None:
        pending.slot = self.slot
        self.inflight = pending
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        self.conn.send(("request", pending.request.to_dict()))

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=_JOIN_GRACE_S)
        try:
            self.conn.close()
        except OSError:
            pass


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
        context: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        self.policy = policy if policy is not None else ServicePolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            queue_depth_every=0, completion_steps=False
        )
        self.context = context if context is not None else _supervisor_context()
        self._shards: List[Optional[_Shard]] = [None] * self.policy.shards
        self._queue: Deque[_Pending] = deque()  # admission queue, send order
        self._delayed: List[Tuple[float, int, _Pending]] = []  # retry heap
        self._responses: Dict[str, BeaconResponse] = {}
        self._abandoned: Set[str] = set()  # ids whose call() gave up waiting
        self._tickets = itertools.count()
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
                self._shards[slot] = _Shard(slot, self.context)
        return self

    def __enter__(self) -> "BeaconService":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def _inc(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Shard pool management
    # ------------------------------------------------------------------
    def _replace_shard(self, shard: _Shard) -> _Shard:
        """Kill ``shard`` and boot a cold replacement on the same slot.

        The replacement rebuilds warm state lazily, on first request -- warm
        executors are a pure cache keyed by request shape, so losing them
        costs latency, never correctness.  Queued (not yet dispatched)
        requests belong to the service, not to a shard, so nothing carries
        over.
        """
        shard.kill()
        self._inc("service.shard_restarts")
        fresh = _Shard(shard.slot, self.context)
        self._shards[shard.slot] = fresh
        return fresh

    def _live_shards(self) -> List[_Shard]:
        return [shard for shard in self._shards if shard is not None]

    def _busy_count(self) -> int:
        return sum(shard.busy for shard in self._live_shards())

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
        self._inc("service.requests")
        depth = len(self._queue) + self._busy_count()
        if depth >= self.policy.shards * self.policy.queue_depth:
            self._inc("service.shed")
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
                   warm: bool, shard: _Shard, exec_ms: float) -> None:
        elapsed_ms = (time.monotonic() - pending.accepted_at) * 1000.0
        self._inc("service.ok")
        if warm:
            self._inc("service.warm_hits")
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
            shard=shard.slot,
            attempts=pending.request.attempt + 1,
            warm=warm,
            elapsed_ms=round(elapsed_ms, 3),
        ))

    def _finish_error(self, pending: _Pending, kind: str, error: str,
                      message: str) -> None:
        self._inc("service.errors")
        self._respond(BeaconResponse(
            request_id=pending.request.request_id,
            status=ERROR,
            error=kind,
            message=f"{error}: {message}" if error else message,
            shard=pending.slot,
            attempts=pending.request.attempt + 1,
            elapsed_ms=round((time.monotonic() - pending.accepted_at) * 1000.0, 3),
        ))

    def _handle_failure(self, pending: _Pending, kind: str, error: str,
                        message: str) -> None:
        """Retry with deterministic backoff, or emit the terminal error."""
        request = pending.request
        if request.attempt < self.policy.max_retries:
            self._inc("service.retries")
            request.attempt += 1
            ready_at = time.monotonic() + backoff_delay(
                request.attempt, self.policy.backoff_base_s
            )
            heapq.heappush(self._delayed, (ready_at, next(self._tickets), pending))
        else:
            self._finish_error(pending, kind, error, message)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def poll(self, timeout_s: float = _POLL_INTERVAL_S) -> int:
        """Run one event-loop cycle; returns the number of responses ready.

        One cycle: promote due retries, dispatch to idle shards, wait (up to
        ``timeout_s``, shortened to the nearest deadline / heartbeat /
        retry), consume shard replies, sweep deadlines, ping idle shards.
        """
        if not self._started:
            raise ServiceError("service is not running (call start())")
        now = time.monotonic()
        queue = self._queue

        # Promote due retries to the front of the queue, oldest first (a
        # retried request is older than anything queued behind it).
        due: List[_Pending] = []
        while self._delayed and self._delayed[0][0] <= now:
            due.append(heapq.heappop(self._delayed)[2])
        due.sort(key=lambda pending: pending.accepted_at, reverse=True)
        queue.extendleft(due)

        # Dispatch: the head of the queue goes to its home shard if that one
        # is idle, else to the lowest-numbered idle shard.  Only the head is
        # ever bound, so nothing overtakes; the loop ends when the queue is
        # empty or every shard is busy, so none idles while a request waits.
        while queue:
            idle = [shard for shard in self._live_shards() if not shard.busy]
            if not idle:
                break
            home = queue[0].request.shard_slot(self.policy.shards)
            shard = next((s for s in idle if s.slot == home), idle[0])
            pending = queue.popleft()
            try:
                shard.dispatch(pending, self.policy.request_timeout_s)
            except (BrokenPipeError, OSError):
                # Shard died while idle; replace it and put the request back
                # at the front (it has not been attempted: no attempt burns).
                self._replace_shard(shard)
                queue.appendleft(pending)
                continue
            if shard.slot != home:
                self._inc("service.spills")

        # Wait for replies, waking for the nearest deadline/heartbeat/retry.
        wait_s = max(0.0, timeout_s)
        now = time.monotonic()
        conns = []
        for shard in self._live_shards():
            conns.append(shard.conn)
            if shard.deadline is not None:
                wait_s = min(wait_s, shard.deadline - now)
            if shard.ping_sent_at is not None:
                wait_s = min(
                    wait_s,
                    shard.ping_sent_at + self.policy.heartbeat_timeout_s - now,
                )
        if self._delayed:
            wait_s = min(wait_s, self._delayed[0][0] - now)
        ready = multiprocessing.connection.wait(conns, timeout=max(0.0, wait_s))

        by_conn = {shard.conn: shard for shard in self._live_shards()}
        for conn in ready:
            shard = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Shard death: SIGKILL, os._exit, segfault, injected chaos.
                pending = shard.inflight
                shard.inflight = None
                shard.deadline = None
                self._replace_shard(shard)
                if pending is not None:
                    self._handle_failure(
                        pending,
                        "shard-death",
                        "ShardDied",
                        f"shard {shard.slot} died (exitcode "
                        f"{shard.process.exitcode}) while running "
                        f"{pending.request.request_id}",
                    )
                continue
            shard.last_seen = time.monotonic()
            kind = message[0]
            if kind == "pong":
                if message[1] == shard.ping_token:
                    shard.ping_token = None
                    shard.ping_sent_at = None
            elif kind == "ok":
                pending = shard.inflight
                shard.inflight = None
                shard.deadline = None
                if pending is not None and pending.request.request_id == message[1]:
                    _, _, payload, warm, shard_ms = message
                    self._finish_ok(pending, payload, warm, shard, shard_ms)
            elif kind == "error":
                pending = shard.inflight
                shard.inflight = None
                shard.deadline = None
                if pending is not None and pending.request.request_id == message[1]:
                    _, _, error, detail, _tb = message
                    self._handle_failure(pending, "exception", error, detail)
            # "stats" replies are consumed by shard_stats(); anything else
            # from a confused shard is ignored rather than trusted.

        # Deadline sweep: a shard past its request deadline is hung (or far
        # too slow) -- SIGKILL it, replace it, and retry the request.
        now = time.monotonic()
        for shard in list(self._live_shards()):
            if shard.busy and shard.deadline is not None and now > shard.deadline:
                pending = shard.inflight
                shard.inflight = None
                shard.deadline = None
                self._inc("service.timeouts")
                self._replace_shard(shard)
                self._handle_failure(
                    pending,
                    "timeout",
                    "RequestTimeout",
                    f"request {pending.request.request_id} exceeded its "
                    f"{self.policy.request_timeout_s:.3f}s deadline on shard "
                    f"{shard.slot}",
                )

        # Heartbeats: ping idle shards, replace the unresponsive.
        now = time.monotonic()
        for shard in list(self._live_shards()):
            if shard.busy:
                continue
            if shard.ping_sent_at is not None:
                if now - shard.ping_sent_at > self.policy.heartbeat_timeout_s:
                    self._inc("service.heartbeat_failures")
                    self._replace_shard(shard)
                continue
            if now - shard.last_seen >= self.policy.heartbeat_interval_s:
                token = next(self._tickets)
                try:
                    shard.conn.send(("ping", token))
                except (BrokenPipeError, OSError):
                    self._inc("service.heartbeat_failures")
                    self._replace_shard(shard)
                    continue
                shard.ping_token = token
                shard.ping_sent_at = now

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
        return len(self._queue) + self._busy_count() + len(self._delayed)

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
        """Round-trip ``stats`` probes to every idle live shard."""
        stats: List[Dict[str, Any]] = []
        for shard in self._live_shards():
            if shard.busy:
                stats.append({"shard": shard.slot, "busy": True})
                continue
            token = next(self._tickets)
            try:
                shard.conn.send(("stats", token))
            except (BrokenPipeError, OSError):
                continue
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                if not shard.conn.poll(timeout=0.05):
                    continue
                try:
                    message = shard.conn.recv()
                except (EOFError, OSError):
                    break
                if message[0] == "stats" and message[1] == token:
                    stats.append(message[2])
                    break
                if message[0] == "pong":
                    shard.ping_token = None
                    shard.ping_sent_at = None
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
            "schema": METRICS_SCHEMA,
            "policy": {
                "shards": self.policy.shards,
                "queue_depth": self.policy.queue_depth,
                "request_timeout_s": self.policy.request_timeout_s,
                "max_retries": self.policy.max_retries,
            },
            "counters": {
                name: counters.get(name, 0)
                for name in (
                    "service.requests", "service.ok", "service.errors",
                    "service.shed", "service.retries", "service.timeouts",
                    "service.shard_restarts", "service.heartbeat_failures",
                    "service.warm_hits", "service.spills",
                )
            },
            "latency_ms": {**latency, "summary": summarize_histogram(latency)},
            "exec_ms": {**exec_hist, "summary": summarize_histogram(exec_hist)},
            "pending": self.pending_count,
        }
        if self._started_at is not None:
            uptime = time.monotonic() - self._started_at
            dump["uptime_s"] = round(uptime, 3)
            ok = counters.get("service.ok", 0)
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
        try:
            if drain:
                deadline = time.monotonic() + self.policy.drain_timeout_s
                while self.pending_count and time.monotonic() < deadline:
                    self.poll()
            # Surface anything still outstanding as structured errors.
            leftovers: List[_Pending] = list(self._queue)
            self._queue.clear()
            for shard in self._live_shards():
                if shard.inflight is not None:
                    leftovers.append(shard.inflight)
                    shard.inflight = None
            leftovers.extend(entry[2] for entry in self._delayed)
            self._delayed = []
            for pending in leftovers:
                self._finish_error(
                    pending, "shutdown", "ServiceStopped",
                    "service stopped before the request completed",
                )
        finally:
            # Graceful exit for responsive shards, SIGKILL for the rest.
            shards = self._live_shards()
            for shard in shards:
                try:
                    shard.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            deadline = time.monotonic() + 1.0
            for shard in shards:
                shard.process.join(timeout=max(0.0, deadline - time.monotonic()))
            for shard in shards:
                if shard.process.is_alive():
                    shard.kill()
                try:
                    shard.conn.close()
                except OSError:
                    pass
            self._shards = [None] * self.policy.shards
