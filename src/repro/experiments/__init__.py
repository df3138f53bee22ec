"""Experiment campaign subsystem: declarative sweeps, parallel execution,
persisted results.

The paper's claims are statistical statements over many executions; this
package turns "many executions" into a first-class artifact:

* :mod:`~repro.experiments.spec` -- JSON-serializable campaign descriptions,
* :mod:`~repro.experiments.registry` -- string names for runners, behaviours
  and schedulers,
* :mod:`~repro.experiments.runner` -- deterministic sequential/parallel
  orchestration,
* :mod:`~repro.experiments.pool` -- the supervised worker pool under the
  runner and the beacon service,
* :mod:`~repro.experiments.store` -- persisted, resumable results,
* :mod:`~repro.experiments.cli` -- ``python -m repro.experiments`` /
  ``repro-experiments``.
"""

from repro.experiments.registry import BEHAVIORS, FAULTS, RUNNERS, SCHEDULERS
from repro.experiments.runner import (
    CampaignInterrupted,
    CampaignProgress,
    run_campaign,
    run_seeds,
)
from repro.experiments.spec import (
    BehaviorSpec,
    CampaignSpec,
    ExecutionPolicy,
    ExperimentSpec,
    FaultSpec,
    SchedulerSpec,
)
from repro.experiments.store import ResultStore
from repro.experiments.supervisor import ChunkFailure, ChunkTask, WorkerSupervisor

__all__ = [
    "BEHAVIORS",
    "FAULTS",
    "RUNNERS",
    "SCHEDULERS",
    "BehaviorSpec",
    "CampaignInterrupted",
    "CampaignProgress",
    "CampaignSpec",
    "ChunkFailure",
    "ChunkTask",
    "ExecutionPolicy",
    "ExperimentSpec",
    "FaultSpec",
    "ResultStore",
    "SchedulerSpec",
    "WorkerSupervisor",
    "run_campaign",
    "run_seeds",
]
