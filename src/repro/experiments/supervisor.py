"""Supervised parallel chunk execution: deadlines, retries, crash isolation.

The campaign runner used to drive a bare ``multiprocessing.Pool``: one hung
trial stalled the whole campaign and one worker killed by the OOM killer (or
a segfault in a compiled kernel) aborted it.  The protocols under test
tolerate ``t < n/3`` Byzantine parties; the harness measuring them should at
least tolerate a SIGKILL.  :class:`WorkerSupervisor` runs chunks on the one
:class:`~repro.experiments.pool.WorkerPool` -- which spawns, times, kills,
replaces and retries workers for the beacon service too -- and adds only
what a campaign needs:

* every chunk carries a deadline (``trial_timeout_s * len(chunk)``) and up
  to ``max_retries`` re-dispatches after the shared deterministic backoff;
* the pool grows lazily, up to ``workers`` processes;
* a chunk that exhausts its retries surfaces as a structured
  :class:`ChunkFailure`, and :meth:`~WorkerSupervisor.cancel_cell` stops
  the rest of its cell, so the runner can quarantine the cell instead of
  aborting the campaign.

Determinism: supervision never changes *what* a chunk computes -- chunks are
seeded explicitly and merged by chunk index -- so a campaign that lost and
re-ran workers produces byte-identical statistics to an undisturbed
sequential run.  The chaos harness (``FAULTS`` in
:mod:`repro.experiments.registry`, exercised by ``tests/experiments`` and
the ``runner-chaos`` CI job) asserts exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.results import TrialAggregate
from repro.experiments.backoff import (  # noqa: F401  (re-exported: public API)
    BACKOFF_CAP_S,
    DEFAULT_BACKOFF_BASE_S,
    backoff_delay,
)
from repro.experiments.pool import WorkerPool

#: Default bound on re-dispatches of one chunk before its cell quarantines.
DEFAULT_MAX_CHUNK_RETRIES = 2
#: The pool's counters, under their campaign names.
_COUNTERS = {
    "retries": "runner.retries",
    "timeouts": "runner.timeouts",
    "restarts": "runner.worker_restarts",
}


@dataclass
class ChunkTask:
    """One dispatchable unit: a chunk of one cell's seeds (or a callable).

    Exactly one of ``cell_dict`` (registry-named campaign cell, shipped as
    plain JSON data) and ``callable_runner`` (picklable callable for
    :func:`~repro.experiments.runner.run_seeds`) is set.  ``attempt`` counts
    dispatches of this chunk: 0 for the first try, incremented per retry.
    """

    cell_name: str
    chunk_index: int
    seeds: List[int]
    cell_dict: Optional[Dict[str, Any]] = None
    callable_runner: Optional[Callable[..., Any]] = None
    runner_kwargs: Dict[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None
    max_retries: int = DEFAULT_MAX_CHUNK_RETRIES
    attempt: int = 0


@dataclass
class ChunkFailure:
    """Structured record of a chunk that exhausted its retries.

    ``kind`` is one of ``"exception"`` (the chunk raised), ``"timeout"``
    (its deadline passed and the worker was killed) or ``"worker-death"``
    (the worker process died without reporting -- SIGKILL, ``os._exit``,
    segfault).  ``attempts`` counts every dispatch, including the first.
    """

    cell_name: str
    chunk_index: int
    seeds: List[int]
    kind: str
    error: str
    message: str
    traceback: str
    attempts: int

    @classmethod
    def of(cls, task: ChunkTask, kind: str, error: str, message: str,
           tb: str = "") -> "ChunkFailure":
        """The failure of ``task``'s last dispatch."""
        return cls(task.cell_name, task.chunk_index, list(task.seeds), kind,
                   error, message, tb, task.attempt + 1)

    def to_record(self) -> Dict[str, Any]:
        """JSON shape persisted by ``ResultStore.quarantine``."""
        return {
            "chunk_index": self.chunk_index,
            "seeds": list(self.seeds),
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


def execute_chunk(task: ChunkTask) -> Any:
    """Run one chunk (the workers' handler; also the inline path).

    For cell tasks this is where the chaos hook fires -- *before* any trial
    runs, so an injected fault never half-executes a chunk -- and the return
    value is the chunk aggregate's transport dict.  For callable tasks the
    :class:`~repro.core.results.TrialAggregate` itself is returned (it
    travels pickled, preserving Python output types).
    """
    if task.cell_dict is not None:
        # Imported lazily: the registry pulls in the whole protocol stack,
        # and runner <-> supervisor would otherwise be an import cycle.
        from repro.experiments.registry import inject_fault
        from repro.experiments.runner import _run_cell_chunk

        fault = task.cell_dict.get("fault")
        inject_fault(fault, task.chunk_index, task.attempt)
        return _run_cell_chunk(task.cell_dict, task.seeds)
    aggregate = TrialAggregate()
    for seed in task.seeds:
        aggregate.add(task.callable_runner(seed=seed, **task.runner_kwargs))
    return aggregate


class WorkerSupervisor:
    """Dispatch chunk tasks across supervised workers with retry/timeout.

    Args:
        workers: maximum concurrent worker processes.
        backoff_base_s: base of the deterministic retry backoff.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`; the
            pool counts ``runner.retries``, ``runner.timeouts`` and
            ``runner.worker_restarts`` on it.

    :meth:`run` invokes ``on_result(task, payload)`` for every chunk that
    completed (possibly after retries, in completion order -- callers merge
    by ``task.chunk_index``) and ``on_failure(task, failure)`` once per
    chunk that exhausted its retries.  Either callback may raise to abort;
    workers are always torn down on the way out.  :meth:`cancel_cell` drops
    a cell's pending tasks and suppresses its in-flight results -- the
    quarantine path.
    """

    def __init__(
        self,
        workers: int,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        metrics: Optional[Any] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.backoff_base_s = backoff_base_s
        self.metrics = metrics
        self._cancelled: set = set()

    def cancel_cell(self, cell_name: str) -> None:
        """Stop dispatching (and retrying) the named cell's chunks."""
        self._cancelled.add(cell_name)

    def run(
        self,
        tasks: Sequence[ChunkTask],
        on_result: Callable[[ChunkTask, Any], None],
        on_failure: Callable[[ChunkTask, ChunkFailure], None],
    ) -> None:
        pending: deque = deque(tasks)
        pool = WorkerPool(lambda index: execute_chunk, self.workers,
                          self.backoff_base_s, self.metrics, _COUNTERS)

        def fail(task: ChunkTask, kind: str, error: str, message: str,
                 tb: str = "") -> None:
            if task.cell_name in self._cancelled:
                return
            retry = replace(task, attempt=task.attempt + 1)
            if not pool.retry(retry, task.attempt, task.max_retries):
                on_failure(task, ChunkFailure.of(task, kind, error, message, tb))

        try:
            while pending or pool.retries or pool.busy():
                pending.extend(pool.due())
                # Dispatch: fill idle workers, growing the pool up to the cap.
                while pending:
                    idle = pool.idle()
                    worker = idle[0] if idle else pool.grow()
                    if worker is None:
                        break
                    task = pending.popleft()
                    if task.cell_name in self._cancelled:
                        continue
                    if not pool.assign(worker, task, task, task.timeout_s):
                        pending.appendleft(task)

                for kind, worker, task, detail in pool.wait():
                    if task is None:
                        continue  # an idle worker died; the pool replaced it
                    if kind == "ok":
                        if task.cell_name not in self._cancelled:
                            on_result(task, detail)
                    elif kind == "error":
                        fail(task, "exception", *detail)
                    elif kind == "death":
                        fail(
                            task,
                            "worker-death",
                            "WorkerDied",
                            f"worker process died (exitcode "
                            f"{worker.process.exitcode}) while running chunk "
                            f"{task.chunk_index} of cell {task.cell_name!r}",
                        )
                    else:
                        fail(
                            task,
                            "timeout",
                            "ChunkTimeout",
                            f"chunk {task.chunk_index} of cell "
                            f"{task.cell_name!r} exceeded its "
                            f"{task.timeout_s:.3f}s deadline "
                            f"({len(task.seeds)} trials)",
                        )
        finally:
            pool.close()
