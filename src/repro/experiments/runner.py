"""Campaign orchestration: sequential or supervised-parallel trial execution.

The runner turns a :class:`~repro.experiments.spec.CampaignSpec` into
:class:`~repro.core.results.TrialAggregate` statistics, one per cell.  Trials
are grouped into fixed-size *chunks*; each chunk is executed by a worker (a
supervised :class:`~repro.experiments.supervisor.WorkerSupervisor` process,
or inline when ``workers <= 1``) and the per-chunk aggregates are merged back
**in chunk order**.

Determinism: every trial is seeded explicitly from the spec's seed list and
workers carry no other randomness, so the merged statistics are identical
whatever the worker count, completion order, or number of retries -- a
parallel campaign is byte-for-byte the same artifact as a sequential one,
even when workers were SIGKILLed and chunks re-dispatched.  This is asserted
by ``tests/experiments/test_runner.py`` and the chaos suite in
``tests/experiments/test_supervisor.py``.

Fault tolerance (see :mod:`repro.experiments.supervisor` and the worker pool
under it, :mod:`repro.experiments.pool`):

* chunks that raise, hang past their deadline, or lose their worker are
  re-dispatched with bounded retries and deterministic backoff;
* completed chunks are checkpointed to the :class:`ResultStore` as they
  land, so a killed campaign resumes mid-cell;
* a chunk that exhausts its retries *quarantines* its cell -- the campaign
  completes every healthy cell and surfaces a structured failure record --
  unless the policy says ``fail_fast``;
* ``KeyboardInterrupt`` tears the workers down, flushes the checkpoints and
  re-raises as :class:`CampaignInterrupted` (which reports how many trials
  were saved).
"""

from __future__ import annotations

import gc
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.config import DEFAULT_PRIME, max_faults
from repro.core.results import TrialAggregate
from repro.crypto.kernels import get_eval_plan
from repro.errors import ExperimentError
from repro.experiments.registry import (
    PROCESS_FAULTS,
    RUNNERS,
    build_behavior_factory,
    build_scheduler,
    fault_problem,
    resolve_scheduler,
    runner_params_problem,
)
from repro.experiments.pool import retry_delay
from repro.experiments.spec import CampaignSpec, ExecutionPolicy, ExperimentSpec
from repro.experiments.store import ResultStore
from repro.experiments.supervisor import (
    DEFAULT_BACKOFF_BASE_S,
    DEFAULT_MAX_CHUNK_RETRIES,
    ChunkFailure,
    ChunkTask,
    WorkerSupervisor,
    execute_chunk,
)
from repro.net.runtime import SimulationResult

#: Seeds per dispatched chunk.  Small enough to keep a pool busy and progress
#: lively, large enough to amortise task pickling.
DEFAULT_CHUNK_TRIALS = 8

ProgressCallback = Callable[["CampaignProgress"], None]


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a campaign, after workers were torn down and completed
    chunks flushed to the store.  ``checkpointed_trials`` counts the trials
    persisted (resumable) at the moment of interruption."""

    def __init__(self, checkpointed_trials: int, total_trials: int) -> None:
        super().__init__(
            f"campaign interrupted; {checkpointed_trials}/{total_trials} "
            f"trials checkpointed"
        )
        self.checkpointed_trials = checkpointed_trials
        self.total_trials = total_trials


@dataclass
class CampaignProgress:
    """Progress snapshot passed to the runner's progress callback."""

    cell: str
    cell_completed: int
    cell_trials: int
    completed: int
    total: int
    resumed: bool = False


def _chunks(seeds: Sequence[int], size: int) -> List[List[int]]:
    return [list(seeds[start : start + size]) for start in range(0, len(seeds), size)]


def _check_chunk_trials(chunk_trials: Any) -> None:
    """Refuse a chunk size that is not a positive int (:class:`ExperimentError`).

    Zero would be a ``range()`` traceback and a negative size no chunks at
    all -- a cell persisted as complete with no trials.
    """
    if type(chunk_trials) is not int or chunk_trials < 1:
        raise ExperimentError(
            f"chunk_trials must be a positive integer, got {chunk_trials!r}"
        )


# ----------------------------------------------------------------------
# Trial execution (shared by the inline and pooled paths)
class CellExecutor:
    """One cell's trials with all per-trial setup amortised across a chunk.

    Resolving registry names, building behaviour factories and (for
    scenarios) re-validating the whole spec *per seed* would rival the
    simulation itself for the short trials the campaign layer exists to
    mass-produce.  An executor does it once per chunk:

    * runner lookup, parameter normalisation and behaviour factories are
      resolved in ``__init__`` and reused for every seed;
    * when the cell names a :mod:`scenario <repro.scenarios>`, its
      :class:`~repro.scenarios.engine.ScenarioRuntime` (selector resolution,
      scale preset, static corruption factories) is built once -- only the
      per-trial :class:`~repro.scenarios.engine.ScenarioDirector` is fresh
      per seed;
    * one shared session-intern table is passed to every trial's network, so
      the session tuples of identically-shaped trials are allocated once per
      chunk instead of once per trial.

    Schedulers and directors hold per-run state, so those are still built
    fresh for every seed; everything an executor shares between trials is
    read-only during a run, which is what keeps chunk results byte-identical
    to the one-executor-per-trial path (and therefore parallel campaigns
    byte-identical to sequential ones).
    """

    def __init__(self, cell: ExperimentSpec) -> None:
        cell.validate()
        self.cell = cell
        self.runner = RUNNERS.get(cell.protocol)
        #: Shared across this executor's trials (same topology => same tuples).
        self.session_table: Dict[Any, Any] = {}
        self.scenario_runtime = None
        if cell.scenario is not None:
            # Imported lazily: repro.scenarios builds on the experiments
            # registry, so a module-level import would be circular.
            from repro.scenarios.engine import ScenarioRuntime
            from repro.scenarios.library import get_scenario

            self.scenario_runtime = ScenarioRuntime(
                get_scenario(cell.scenario), n=cell.n
            )
            try:
                kwargs = self.scenario_runtime.runner_kwargs(cell.params, cell.protocol)
            except ExperimentError as exc:
                raise ExperimentError(f"cell {cell.name!r}: {exc}") from None
            problem = None
            corruptions = self.scenario_runtime.static_corruptions()
        else:
            kwargs = RUNNERS.normalize(cell.protocol, cell.params)
            problem = runner_params_problem(cell.protocol, kwargs, cell.n)
            corruptions = {}
        for pid, spec in sorted(cell.adversary.items()):
            corruptions[pid] = build_behavior_factory(spec, cell.n)
        t = max_faults(cell.n)
        if len(corruptions) > t:
            raise ExperimentError(
                f"cell {cell.name!r}: corrupts {len(corruptions)} parties at "
                f"n={cell.n}, more than t={t}"
            )
        self.kwargs = kwargs
        self.corruptions = corruptions
        #: The cell's scheduler with its party params resolved against n,
        #: built once here so a bad param fails before any trial.
        self.scheduler_spec = None
        if cell.scheduler is not None:
            self.scheduler_spec = resolve_scheduler(cell.scheduler, cell.n)
            build_scheduler(self.scheduler_spec)
        # A cell its runner cannot be called with fails here, before any
        # trial is dispatched, like an unusable scheduler spec.
        if problem is None and cell.fault is not None:
            problem = fault_problem(cell.fault.to_dict())
        if problem is not None:
            raise ExperimentError(f"cell {cell.name!r}: {problem}")
        #: Safety-invariant checking (repro.scenarios.invariants): the cell
        #: may force it either way; the default is on exactly for scenario
        #: cells, whose adversarial grids are where silent safety breaks
        #: would otherwise aggregate into garbage statistics.
        self.check_invariants = (
            cell.invariants
            if cell.invariants is not None
            else cell.scenario is not None
        )

    def warm(self) -> None:
        """Build the evaluation plan this cell's trials will use, now.

        It is the process-wide plan for the cell's ``n`` and the prime its
        runner resolves: the cell's ``prime`` param, else its scenario
        preset's, else the library default.  A campaign calls this in the
        parent just before its workers fork, so each inherits the plan --
        and numpy, when the plan vectorises -- instead of building it on its
        first chunk.  ``__init__`` builds no plan: validating a cell stays
        cheap whatever its ``n``.
        """
        get_eval_plan(self.kwargs.get("prime", DEFAULT_PRIME), self.cell.n)

    def _build_scheduler(self):
        if self.scheduler_spec is not None:
            return build_scheduler(self.scheduler_spec)
        if self.scenario_runtime is not None:
            return self.scenario_runtime.build_scheduler()
        return None

    def run(self, seed: int) -> SimulationResult:
        """Run the trial for one seed (schedulers/directors built fresh)."""
        runtime = self.scenario_runtime
        result = self.runner(
            n=self.cell.n,
            seed=seed,
            scheduler=self._build_scheduler(),
            corruptions=self.corruptions or None,
            director=None if runtime is None else runtime.build_director(),
            session_table=self.session_table,
            **self.kwargs,
        )
        if self.check_invariants:
            # Imported lazily, like the scenario runtime above.
            from repro.scenarios.invariants import assert_invariants

            assert_invariants(
                result,
                self.cell.protocol,
                context=f"cell {self.cell.name!r} seed {seed}",
                params=self.kwargs,
            )
        return result

    @contextmanager
    def trial(self, seed: int) -> Iterator[SimulationResult]:
        """:meth:`run` for an owner that reads the result, then lets it go.

        The cyclic collector stays paused from the world's build, through
        the owner's read of the result in the ``with`` body, to the
        :meth:`~repro.net.runtime.SimulationResult.release` that ends it:
        reference counting then frees the world at once, and the collector
        neither scans it live nor has to find it dead.  Nothing may keep the
        result, or any party or protocol instance of it, past the block.
        A host that runs with the collector off is left that way.
        """
        pause = gc.isenabled()
        if pause:
            gc.disable()
        try:
            result = self.run(seed)
            try:
                yield result
            finally:
                result.release()
        finally:
            if pause:
                gc.enable()


def _run_cell_chunk(cell_dict: Dict[str, Any], seeds: Sequence[int]) -> Dict[str, Any]:
    """Run one chunk of one cell's seeds; return its aggregate's transport dict.

    Takes and returns plain picklable data (the cell as a dict, the aggregate
    as a dict), so a chunk travels to a worker under fork or spawn.  Both
    the inline and the pooled path reach it through
    ``supervisor.execute_chunk``, which is what makes parallel and sequential
    campaigns bit-identical by construction; chaos faults fire there, before
    this runs.
    """
    executor = CellExecutor(ExperimentSpec.from_dict(cell_dict))
    aggregate = TrialAggregate()
    for seed in seeds:
        with executor.trial(seed) as result:
            aggregate.add(result)
    return aggregate.to_transport_dict()


# ----------------------------------------------------------------------
# Policy resolution
def _resolve_policy(
    campaign: CampaignSpec, override: Optional[ExecutionPolicy]
) -> ExecutionPolicy:
    """Fold override -> campaign policy -> defaults into a concrete policy."""
    settings: Dict[str, Any] = dict(
        max_chunk_retries=DEFAULT_MAX_CHUNK_RETRIES,
        fail_fast=False,
        backoff_base_s=DEFAULT_BACKOFF_BASE_S,
    )
    for layer in (campaign.policy, override):
        if layer is not None:
            settings.update(layer.to_dict())  # the fields it sets
    resolved = ExecutionPolicy(**settings)
    resolved.validate()
    return resolved


def _cell_limits(
    cell: ExperimentSpec, policy: ExecutionPolicy
) -> Tuple[Optional[float], int]:
    """(trial timeout, max retries) for one cell: cell override beats policy."""
    timeout = (
        cell.trial_timeout_s
        if cell.trial_timeout_s is not None
        else policy.trial_timeout_s
    )
    retries = (
        cell.max_chunk_retries
        if cell.max_chunk_retries is not None
        else policy.max_chunk_retries
    )
    return timeout, retries


# ----------------------------------------------------------------------
# Campaign orchestration
def run_campaign(
    campaign: CampaignSpec,
    workers: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[ProgressCallback] = None,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    policy: Optional[ExecutionPolicy] = None,
    metrics: Optional[Any] = None,
    failures: Optional[Dict[str, ChunkFailure]] = None,
) -> Dict[str, TrialAggregate]:
    """Run (or resume) a campaign and return ``{cell name: aggregate}``.

    Args:
        campaign: the declarative spec; validated before anything runs.
        workers: supervised worker processes; ``<= 1`` runs inline in this
            process (retries still apply; timeouts need ``workers > 1``,
            since an inline trial cannot be preempted, and a cell whose
            chaos fault would kill or stall its process -- ``exit``,
            ``sigkill``, ``hang`` -- is refused before anything runs).
        store: optional :class:`ResultStore`.  Cells whose results are
            already persisted (matching spec hash) are *not* re-run, and
            checkpointed chunks of unfinished cells are reused, so an
            interrupted -- or killed -- campaign resumes at chunk
            granularity.  Completed chunks and quarantine records are
            persisted as they land.  The store's ownership lock is held for
            the duration of the run.
        progress: optional callback invoked after every completed chunk (and
            once per resumed cell) with a :class:`CampaignProgress`.
        chunk_trials: seeds per dispatched chunk.
        policy: execution-policy override (beats ``campaign.policy``).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            retries, timeouts, worker restarts and quarantines are counted
            on it (``runner.*`` counters).
        failures: optional dict populated with ``{cell name: ChunkFailure}``
            for every quarantined cell (also persisted to ``store``).

    Returns the aggregates of every *healthy* cell.  Quarantined cells are
    absent from the result; with ``fail_fast`` the first quarantine raises
    :class:`ExperimentError` instead (after flushing the store).
    """
    _check_chunk_trials(chunk_trials)
    campaign.validate()
    executors: Dict[str, CellExecutor] = {}
    for cell in campaign.cells:
        # Fail fast on unknown registry/scenario names and unresolvable
        # selectors: building the executor performs every static resolution
        # a worker would, before any trial runs.
        executors[cell.name] = CellExecutor(cell)
        if workers <= 1 and cell.fault is not None and cell.fault.fault in PROCESS_FAULTS:
            raise ExperimentError(
                f"cell {cell.name!r}: chaos fault {cell.fault.fault!r} would "
                f"kill or stall this process; it needs workers > 1"
            )
    resolved = _resolve_policy(campaign, policy)
    if store is not None:
        store.bind_campaign(campaign.name)
        store.acquire_lock()

    total = campaign.trials
    completed = 0
    results: Dict[str, TrialAggregate] = {}
    quarantined: Dict[str, ChunkFailure] = failures if failures is not None else {}

    def inc(name: str, amount: int = 1) -> None:
        if metrics is not None:
            metrics.counter(name).inc(amount)

    try:
        # Partition cells into resumed and pending, then chunk the pending
        # ones -- reusing any checkpointed chunks whose seeds still match.
        tasks: List[ChunkTask] = []
        cell_specs: Dict[str, ExperimentSpec] = {}
        cell_chunks: Dict[str, Dict[int, Optional[Dict[str, Any]]]] = {}
        cell_done: Dict[str, int] = {}

        def finalize_cell(name: str) -> None:
            """Merge a cell's chunks in chunk order and persist the result."""
            cell = cell_specs[name]
            merged = TrialAggregate.empty()
            for chunk_index in sorted(cell_chunks[name]):
                merged = merged.merge(
                    TrialAggregate.from_transport_dict(cell_chunks[name][chunk_index])
                )
            results[name] = merged
            if store is not None:
                store.put(name, cell.spec_hash(), merged)

        for cell in campaign.cells:
            if store is not None and store.has_cell(cell.name, cell.spec_hash()):
                results[cell.name] = store.get(cell.name)
                completed += cell.trials
                if progress is not None:
                    progress(
                        CampaignProgress(
                            cell=cell.name,
                            cell_completed=cell.trials,
                            cell_trials=cell.trials,
                            completed=completed,
                            total=total,
                            resumed=True,
                        )
                    )
                continue
            cell_specs[cell.name] = cell
            cell_dict = cell.to_dict()
            timeout_s, max_retries = _cell_limits(cell, resolved)
            stored = (
                store.partial_chunks(cell.name, cell.spec_hash())
                if store is not None
                else {}
            )
            cell_chunks[cell.name] = {}
            cell_done[cell.name] = 0
            resumed_trials = 0
            for chunk_index, chunk in enumerate(_chunks(cell.seeds, chunk_trials)):
                entry = stored.get(chunk_index)
                if entry is not None and list(entry.get("seeds", [])) == chunk:
                    transport = dict(entry["aggregate"])
                    transport["total_elapsed_s"] = float(entry.get("elapsed_s", 0.0))
                    cell_chunks[cell.name][chunk_index] = transport
                    cell_done[cell.name] += len(chunk)
                    completed += len(chunk)
                    resumed_trials += len(chunk)
                else:
                    cell_chunks[cell.name][chunk_index] = None
                    tasks.append(
                        ChunkTask(
                            cell_name=cell.name,
                            chunk_index=chunk_index,
                            seeds=chunk,
                            cell_dict=cell_dict,
                            timeout_s=(
                                timeout_s * len(chunk)
                                if timeout_s is not None
                                else None
                            ),
                            max_retries=max_retries,
                        )
                    )
            if resumed_trials and progress is not None:
                progress(
                    CampaignProgress(
                        cell=cell.name,
                        cell_completed=cell_done[cell.name],
                        cell_trials=cell.trials,
                        completed=completed,
                        total=total,
                        resumed=True,
                    )
                )
            if all(part is not None for part in cell_chunks[cell.name].values()):
                # Every chunk was checkpointed; the previous run died between
                # the last chunk and the cell promotion.
                finalize_cell(cell.name)
                if store is not None:
                    store.save()

        supervisor: Optional[WorkerSupervisor] = None

        def complete_chunk(task: ChunkTask, transport: Dict[str, Any]) -> None:
            nonlocal completed
            if task.cell_name in quarantined:
                return
            cell = cell_specs[task.cell_name]
            chunks = cell_chunks[task.cell_name]
            chunks[task.chunk_index] = transport
            cell_done[task.cell_name] += len(task.seeds)
            completed += len(task.seeds)
            if store is not None:
                store.put_chunk(
                    task.cell_name,
                    cell.spec_hash(),
                    task.chunk_index,
                    task.seeds,
                    transport,
                )
            if all(part is not None for part in chunks.values()):
                finalize_cell(task.cell_name)
            if store is not None:
                store.save()
            if progress is not None:
                progress(
                    CampaignProgress(
                        cell=task.cell_name,
                        cell_completed=cell_done[task.cell_name],
                        cell_trials=cell.trials,
                        completed=completed,
                        total=total,
                    )
                )

        def handle_failure(task: ChunkTask, failure: ChunkFailure) -> None:
            if task.cell_name in quarantined:
                return
            quarantined[task.cell_name] = failure
            inc("runner.quarantined_cells")
            if supervisor is not None:
                supervisor.cancel_cell(task.cell_name)
            if store is not None:
                cell = cell_specs[task.cell_name]
                store.quarantine(task.cell_name, cell.spec_hash(), failure.to_record())
                store.save()
            if resolved.fail_fast:
                raise ExperimentError(
                    f"cell {task.cell_name!r} quarantined after "
                    f"{failure.attempts} attempt(s) on chunk "
                    f"{failure.chunk_index} ({failure.kind}: {failure.error}: "
                    f"{failure.message}) -- fail_fast aborted the campaign"
                )

        try:
            if workers > 1 and tasks:
                # Workers fork from here on: build the plans of the cells
                # they will run first, so every worker, a replacement too,
                # inherits them instead of building them (and importing
                # numpy) itself.
                for name in dict.fromkeys(task.cell_name for task in tasks):
                    executors[name].warm()
                supervisor = WorkerSupervisor(
                    min(workers, len(tasks)),
                    backoff_base_s=resolved.backoff_base_s,
                    metrics=metrics,
                )
                supervisor.run(tasks, complete_chunk, handle_failure)
            else:
                _run_inline(
                    tasks, resolved, quarantined, complete_chunk, handle_failure, inc
                )
        except KeyboardInterrupt:
            # Workers are already torn down (supervisor's finally); completed
            # chunks were flushed as they landed.  One more save picks up
            # anything recorded since, then report what survived.
            if store is not None:
                store.save()
            raise CampaignInterrupted(
                checkpointed_trials=completed, total_trials=total
            ) from None

        return results
    finally:
        if store is not None:
            store.release_lock()


def _run_inline(
    tasks: Sequence[ChunkTask],
    policy: ExecutionPolicy,
    quarantined: Dict[str, ChunkFailure],
    complete_chunk: Callable[[ChunkTask, Dict[str, Any]], None],
    handle_failure: Callable[[ChunkTask, ChunkFailure], None],
    inc: Callable[..., None],
) -> None:
    """Single-process execution with the same retry/quarantine semantics.

    The retry-or-give-up decision is the pool's
    :func:`~repro.experiments.pool.retry_delay`; with nothing else to run,
    the backoff is slept.  Timeouts are not enforced here -- an inline trial
    cannot be preempted.
    """
    pending = deque(tasks)
    while pending:
        task = pending.popleft()
        if task.cell_name in quarantined:
            continue
        try:
            payload = execute_chunk(task)
        except Exception as exc:
            delay = retry_delay(task.attempt, task.max_retries, policy.backoff_base_s)
            if delay is None:
                handle_failure(task, ChunkFailure.of(
                    task, "exception", type(exc).__name__, str(exc),
                    traceback.format_exc(),
                ))
            else:
                inc("runner.retries")
                time.sleep(delay)
                pending.appendleft(replace(task, attempt=task.attempt + 1))
            continue
        complete_chunk(task, payload)


# ----------------------------------------------------------------------
# Generic seed fan-out (backs api.run_many(workers=N))
def run_seeds(
    runner: Callable[..., SimulationResult],
    seeds: Iterable[int],
    workers: int = 1,
    chunk_trials: int = DEFAULT_CHUNK_TRIALS,
    trial_timeout_s: Optional[float] = None,
    max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
    **kwargs: Any,
) -> TrialAggregate:
    """Fan ``runner`` out over ``seeds`` across supervised workers.

    ``runner`` and ``kwargs`` must be picklable (module-level callables and
    plain data).  For registry-named experiments prefer :func:`run_campaign`,
    whose tasks are always plain JSON-shaped data.  The parallel path rides
    the same supervisor as campaigns (worker-death recovery, per-chunk
    deadlines, bounded retries); a chunk that exhausts its retries raises
    :class:`ExperimentError` -- there is no quarantine at this level.

    Chunks travel back as pickled aggregates (not ``to_dict``), so outputs
    keep their Python types (frozensets, tuples, ...) and the result is
    indistinguishable from a sequential ``run_many``.
    """
    _check_chunk_trials(chunk_trials)
    seed_list = [int(seed) for seed in seeds]
    tasks = [
        ChunkTask(
            cell_name="run_seeds",
            chunk_index=index,
            seeds=chunk,
            callable_runner=runner,
            runner_kwargs=kwargs,
            timeout_s=(
                trial_timeout_s * len(chunk) if trial_timeout_s is not None else None
            ),
            max_retries=max_chunk_retries,
        )
        for index, chunk in enumerate(_chunks(seed_list, chunk_trials))
    ]
    parts: Dict[int, TrialAggregate] = {}
    if workers > 1 and len(tasks) > 1:
        errors: List[ChunkFailure] = []
        supervisor = WorkerSupervisor(min(workers, len(tasks)))
        supervisor.run(
            tasks,
            lambda task, aggregate: parts.__setitem__(task.chunk_index, aggregate),
            lambda task, failure: errors.append(failure),
        )
        if errors:
            failure = errors[0]
            raise ExperimentError(
                f"run_seeds chunk {failure.chunk_index} failed after "
                f"{failure.attempts} attempt(s): {failure.kind}: "
                f"{failure.error}: {failure.message}"
            )
    else:
        for task in tasks:
            parts[task.chunk_index] = execute_chunk(task)
    merged = TrialAggregate.empty()
    for index in sorted(parts):
        merged = merged.merge(parts[index])
    return merged
