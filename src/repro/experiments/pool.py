"""One supervised worker pool: how a worker process lives and dies.

The campaign supervisor (:mod:`repro.experiments.supervisor`) and the beacon
front-end (:mod:`repro.service.frontend`) both run work on processes that may
raise, hang, exit or be SIGKILLed.  Everything that knows about such a
process is here, once:

* the start method (fork where available, else spawn) and one duplex pipe
  per worker, so the pool knows exactly which job a dead worker held;
* the one worker loop (:func:`_worker_main`): a task is answered ``ok`` or
  ``error`` -- every ``BaseException`` becomes a structured reply --, a
  ping gets a pong, ``None`` exits;
* one job per worker at a time, with an optional deadline;
* :meth:`WorkerPool.wait`, which turns pipe readiness, EOF and overrun into
  ``ok`` / ``error`` / ``death`` / ``timeout`` events -- a dead or overdue
  worker is SIGKILLed and replaced on its slot before its event is returned;
* re-dispatch after the shared deterministic
  :func:`~repro.experiments.backoff.backoff_delay`, decided by the one
  :func:`retry_delay`;
* teardown: ``None`` to idle workers, one second for all to exit, SIGKILL
  for the rest -- no leaked processes whatever aborted the client.

The clients add policy only.  The campaign merges chunks by index, cancels
quarantined cells and grows the pool lazily; the beacon keeps one fixed slot
per shard, routes to a home slot, times heartbeats, sheds and drains.  The
pool counts ``retries``, ``timeouts`` and ``restarts`` under the counter
names its client gives it.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import multiprocessing.connection
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.backoff import backoff_delay

#: Wait tick when no deadline, retry or wake-up is nearer (seconds).
POLL_INTERVAL_S = 0.25
#: Grace given to a killed worker's ``join`` before it is abandoned.
_JOIN_GRACE_S = 5.0

#: ``(kind, worker, job, detail)`` from :meth:`WorkerPool.wait`.  ``kind`` is
#: ``"ok"`` (detail: the handler's return value), ``"error"`` (detail:
#: ``(error class name, message, traceback)``), ``"death"`` or ``"timeout"``
#: (detail: None).  ``job`` is None for a worker that died idle.
Event = Tuple[str, "Worker", Any, Any]


def retry_delay(attempt: int, max_retries: int, base_s: float) -> Optional[float]:
    """Backoff before re-running a job whose dispatch ``attempt`` (0 = the
    first) failed, or ``None`` when that was the last one allowed."""
    if attempt >= max_retries:
        return None
    return backoff_delay(attempt + 1, base_s)


def _worker_main(conn: multiprocessing.connection.Connection, handler: Any) -> None:
    """Serve ``("task", body)`` with ``handler(body)`` until told to stop.

    Replies are ``("ok", result)`` or ``("error", (name, message,
    traceback))``; ``("ping", None)`` gets ``("pong", handler.stats())``
    (``None`` for a handler without ``stats``); ``None`` exits.  Every
    exception -- an injected fault's ``SystemExit`` included -- is a reply;
    only a broken pipe (pool gone) or ``KeyboardInterrupt`` ends the loop
    silently.
    """
    stats = getattr(handler, "stats", None)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            conn.close()
            return
        kind, body = message
        if kind == "ping":
            reply: Tuple[Any, ...] = ("pong", stats() if stats is not None else None)
        else:
            try:
                reply = ("ok", handler(body))
            except KeyboardInterrupt:
                return
            except BaseException as exc:  # noqa: BLE001 -- crash isolation is the point
                reply = ("error", (type(exc).__name__, str(exc), traceback.format_exc()))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class Worker:
    """One worker process on slot ``index``: pipe, job, deadline, heartbeat."""

    __slots__ = ("index", "process", "conn", "job", "deadline", "ping_at",
                 "seen_at", "stats")

    def __init__(self, index: int, context: Any, handler: Any) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(child_conn, handler), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.index = index
        self.conn = parent_conn
        self.job: Any = None
        self.deadline: Optional[float] = None
        #: When the unanswered ping went out (None: no ping outstanding).
        self.ping_at: Optional[float] = None
        self.seen_at = time.monotonic()
        #: The handler's ``stats()`` as of the last pong.
        self.stats: Any = None

    def kill(self) -> None:
        self.job = self.deadline = self.ping_at = None
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=_JOIN_GRACE_S)
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Up to ``size`` supervised workers; slot ``i`` runs ``handler(i)``.

    ``handler(i)`` is built in the parent and must be picklable (a
    module-level function or a plain instance) under the spawn start method.
    ``counters`` maps ``"retries"`` / ``"timeouts"`` / ``"restarts"`` to the
    client's counter names on ``metrics`` (None: count nothing).
    """

    def __init__(
        self,
        handler: Callable[[int], Any],
        size: int,
        backoff_base_s: float,
        metrics: Optional[Any],
        counters: Dict[str, str],
    ) -> None:
        # Prefer fork (cheap, inherits ``sys.path``); fall back to spawn.
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.handler = handler
        self.workers: List[Optional[Worker]] = [None] * size
        self.backoff_base_s = backoff_base_s
        self.metrics = metrics
        self.counters = counters
        #: Jobs waiting out their backoff: a heap of (ready_at, ticket, job).
        self.retries: List[Tuple[float, int, Any]] = []
        self._tickets = itertools.count()

    def _inc(self, what: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(self.counters[what]).inc()

    # ------------------------------------------------------------------
    # Workers
    def spawn(self, index: int) -> Worker:
        worker = Worker(index, self._context, self.handler(index))
        self.workers[index] = worker
        return worker

    def grow(self) -> Optional[Worker]:
        """Spawn on the first empty slot; None when every slot is taken."""
        for index, worker in enumerate(self.workers):
            if worker is None:
                return self.spawn(index)
        return None

    def replace(self, worker: Worker) -> Worker:
        """SIGKILL ``worker`` and spawn a fresh one on its slot."""
        worker.kill()
        self._inc("restarts")
        return self.spawn(worker.index)

    def live(self) -> List[Worker]:
        return [worker for worker in self.workers if worker is not None]

    def idle(self) -> List[Worker]:
        """Live workers free for a job.  A worker with an unanswered ping is
        not: it may be wedged, and its heartbeat timeout will tell."""
        return [worker for worker in self.workers if worker is not None
                and worker.job is None and worker.ping_at is None]

    def busy(self) -> int:
        return sum(1 for worker in self.workers
                   if worker is not None and worker.job is not None)

    def _send(self, worker: Worker, message: Any) -> bool:
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            self.replace(worker)
            return False
        return True

    def assign(self, worker: Worker, job: Any, body: Any,
               timeout_s: Optional[float]) -> bool:
        """Send ``body`` to an idle ``worker`` and hold ``job`` against it.

        False when the worker was found dead: it is replaced, and the job
        has not been attempted.
        """
        if not self._send(worker, ("task", body)):
            return False
        worker.job = job
        worker.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        return True

    def ping(self, worker: Worker) -> bool:
        """Send a heartbeat; False when the worker was found dead (replaced)."""
        if not self._send(worker, ("ping", None)):
            return False
        worker.ping_at = time.monotonic()
        return True

    # ------------------------------------------------------------------
    # Retries
    def retry(self, job: Any, attempt: int, max_retries: int) -> bool:
        """Queue ``job`` to run again after the backoff for failed dispatch
        ``attempt``; False when its retries are spent."""
        delay = retry_delay(attempt, max_retries, self.backoff_base_s)
        if delay is None:
            return False
        self._inc("retries")
        heapq.heappush(
            self.retries, (time.monotonic() + delay, next(self._tickets), job)
        )
        return True

    def due(self) -> List[Any]:
        """Pop every job whose backoff has elapsed, earliest first."""
        now = time.monotonic()
        jobs = []
        while self.retries and self.retries[0][0] <= now:
            jobs.append(heapq.heappop(self.retries)[2])
        return jobs

    # ------------------------------------------------------------------
    # Events
    def wait(self, timeout_s: float = POLL_INTERVAL_S,
             wake_at: Optional[float] = None) -> List[Event]:
        """Block up to ``timeout_s`` -- less when a deadline, a due retry or
        ``wake_at`` comes first -- then report replies, deaths and overruns.

        Pongs are consumed here (clearing ``ping_at``, refreshing ``stats``).
        """
        live = self.live()
        now = time.monotonic()
        until = [now + timeout_s]
        until.extend(worker.deadline for worker in live if worker.deadline is not None)
        if self.retries:
            until.append(self.retries[0][0])
        if wake_at is not None:
            until.append(wake_at)
        ready = multiprocessing.connection.wait(
            [worker.conn for worker in live], timeout=max(0.0, min(until) - now)
        )
        by_conn = {worker.conn: worker for worker in live}
        events: List[Event] = []
        for conn in ready:
            worker = by_conn[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Died without replying: SIGKILL, os._exit, segfault.
                events.append(("death", worker, worker.job, None))
                self.replace(worker)
                continue
            worker.seen_at = time.monotonic()
            if message[0] == "pong":
                worker.ping_at = None
                worker.stats = message[1]
                continue
            events.append((message[0], worker, worker.job, message[1]))
            worker.job = worker.deadline = None
        now = time.monotonic()
        for worker in live:
            if worker.deadline is not None and now > worker.deadline:
                events.append(("timeout", worker, worker.job, None))
                self._inc("timeouts")
                self.replace(worker)
        return events

    # ------------------------------------------------------------------
    def close(self) -> None:
        """``None`` to idle workers, one second for all to exit, then SIGKILL."""
        live = self.live()
        for worker in live:
            if worker.job is None:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 1.0
        for worker in live:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in live:
            worker.kill()
        self.workers = [None] * len(self.workers)
