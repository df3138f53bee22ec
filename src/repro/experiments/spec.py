"""Declarative experiment campaign specifications.

A *campaign* is a reproducible artifact: a named list of *cells*, each cell
describing one point of an experiment grid -- which protocol to run, with how
many parties, under which adversary (corrupted-party behaviours plus a
message scheduler), with which protocol parameters, over which seeds.  Every
piece is named by a registry string (:mod:`repro.experiments.registry`), so a
campaign serializes losslessly to JSON and back::

    campaign = CampaignSpec.grid(
        "bias-sweep",
        protocol="coinflip",
        n=4,
        seeds=range(50),
        axes={"epsilon": [0.25, 0.125], "rounds": [1, 3]},
    )
    campaign.save("bias_sweep.json")
    same = CampaignSpec.load("bias_sweep.json")

The specs deliberately contain *no* live objects: behaviours and schedulers
are named and parameterised, and instantiated per trial by the runner.  That
is what makes campaigns shippable to worker processes, diffable in review and
resumable across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.errors import ExperimentError


def canonical_json(data: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def party_key(pid: Any) -> Any:
    """``pid`` as an int when it spells one, else unchanged."""
    try:
        return int(pid)
    except (TypeError, ValueError):
        return pid


def is_int(value: Any) -> bool:
    """True for an integer that is not a bool (``True`` is an int in Python)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _ints_as_int(value: Any) -> Any:
    """``value`` as a plain int when it is an integer, else unchanged."""
    return int(value) if is_int(value) else value


def trial_shape_problem(n: Any, seeds: Any) -> Optional[str]:
    """Why ``n`` parties over ``seeds`` is no trial shape (or None).

    The one check of a campaign cell's ``n`` / ``seeds`` and a beacon
    request's ``n`` / ``seed`` (a one-seed list), so the two cannot disagree.
    Each is an integer as written, never coerced: ``int()`` would read ``"4"``
    and ``4.5`` as 4 parties and ``true`` as one.
    """
    if not is_int(n) or n < 1:
        return f"n must be a positive integer, got {n!r}"
    if not isinstance(seeds, list):
        return f"seeds must be a list of integers, got {seeds!r}"
    for seed in seeds:
        if not is_int(seed):
            return f"seed {seed!r} is not an integer"
    return None


@dataclass
class BehaviorSpec:
    """A named adversarial behaviour plus its constructor parameters."""

    behavior: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"behavior": self.behavior}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BehaviorSpec":
        return cls(behavior=str(data["behavior"]), params=dict(data.get("params", {})))


@dataclass
class SchedulerSpec:
    """A named message scheduler plus its constructor parameters."""

    scheduler: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"scheduler": self.scheduler}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchedulerSpec":
        return cls(scheduler=str(data["scheduler"]), params=dict(data.get("params", {})))


@dataclass
class FaultSpec:
    """A named chaos fault plus its parameters, injected in the worker.

    The fault is resolved against :data:`repro.experiments.registry.FAULTS`
    and invoked by the worker entrypoint *before* a chunk's trials run.  Two
    well-known parameters select when it fires (both are consumed by the
    injection hook, everything else is passed to the fault callable):

    * ``chunks``: list of per-cell chunk indices to hit (default: all);
    * ``attempts``: list of dispatch attempts to hit (default ``[0]``, i.e.
      only the first try -- so retries recover; ``None`` means every
      attempt, which drives a cell into quarantine).

    Faults are *execution-plane* chaos: they never change what a trial
    computes, so they are excluded from :meth:`ExperimentSpec.spec_hash` and
    a chaos campaign checkpoints/merges byte-identically to a clean one.
    """

    fault: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"fault": self.fault}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(fault=str(data["fault"]), params=dict(data.get("params", {})))


@dataclass
class ExecutionPolicy:
    """Fault-tolerance policy for campaign execution.

    Every field is optional; ``None`` means "inherit" -- a policy given to
    :func:`~repro.experiments.runner.run_campaign` overrides the campaign's
    own ``policy`` field, which overrides the built-in defaults (no timeout,
    2 retries, no fail-fast).  Policy never affects *what* is computed, only
    how failures are handled, so it is not part of any spec hash.

    Attributes:
        trial_timeout_s: per-trial wall-clock budget.  A chunk's deadline is
            ``trial_timeout_s * len(chunk)``; a worker past its deadline is
            killed and the chunk re-dispatched.  Requires ``workers > 1``
            (the inline path cannot preempt a hung trial).
        max_chunk_retries: how many times a failed/timed-out chunk is
            re-dispatched before its cell is quarantined.
        fail_fast: abort the whole campaign on the first quarantined cell
            instead of completing the healthy ones.
        backoff_base_s: base of the deterministic exponential backoff
            (``min(2.0, base * 2**(attempt-1))`` seconds before retry k).
    """

    trial_timeout_s: Optional[float] = None
    max_chunk_retries: Optional[int] = None
    fail_fast: Optional[bool] = None
    backoff_base_s: Optional[float] = None

    def validate(self) -> None:
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ExperimentError(
                f"trial_timeout_s must be positive, got {self.trial_timeout_s}"
            )
        if self.max_chunk_retries is not None and self.max_chunk_retries < 0:
            raise ExperimentError(
                f"max_chunk_retries must be >= 0, got {self.max_chunk_retries}"
            )
        if self.backoff_base_s is not None and self.backoff_base_s < 0:
            raise ExperimentError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.trial_timeout_s is not None:
            data["trial_timeout_s"] = self.trial_timeout_s
        if self.max_chunk_retries is not None:
            data["max_chunk_retries"] = self.max_chunk_retries
        if self.fail_fast is not None:
            data["fail_fast"] = bool(self.fail_fast)
        if self.backoff_base_s is not None:
            data["backoff_base_s"] = self.backoff_base_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        return cls(
            trial_timeout_s=data.get("trial_timeout_s"),
            max_chunk_retries=data.get("max_chunk_retries"),
            fail_fast=data.get("fail_fast"),
            backoff_base_s=data.get("backoff_base_s"),
        )


@dataclass
class ExperimentSpec:
    """One cell of a campaign: a protocol configuration and its seeds.

    Attributes:
        name: unique (within the campaign) human-readable cell identifier.
        protocol: runner name in :data:`repro.experiments.registry.RUNNERS`.
        n: number of parties.
        seeds: the explicit seed list; each seed is one trial.  Seeds are
            explicit (never derived from wall clock or worker identity) so a
            campaign is exactly reproducible however trials are distributed.
        params: extra keyword arguments for the runner (e.g. ``rounds``,
            ``epsilon``, ``inputs``).
        adversary: corrupted party id -> behaviour spec.
        scheduler: optional message-scheduler spec (``None`` = runner default).
        scenario: optional named adversarial scenario
            (:mod:`repro.scenarios.library`).  The scenario contributes its
            corruption plan, fault timeline, hostile scheduler, matched field
            prime and default params, resolved against this cell's ``n``; the
            cell's own ``params`` override the scenario's, its ``adversary``
            entries are applied on top of the scenario's static corruptions,
            and an explicit cell ``scheduler`` beats the scenario's.
        invariants: safety-invariant checking
            (:mod:`repro.scenarios.invariants`) per trial.  ``None`` (the
            default, and the only value that serializes away) means "on for
            scenario cells, off otherwise"; ``True``/``False`` force it.  A
            violation aborts the campaign with an :class:`ExperimentError`.
        trial_timeout_s: per-cell override of
            :attr:`ExecutionPolicy.trial_timeout_s`.
        max_chunk_retries: per-cell override of
            :attr:`ExecutionPolicy.max_chunk_retries`.
        fault: optional chaos fault (:class:`FaultSpec`) injected in the
            worker entrypoint before this cell's chunks run.  Used by the
            chaos harness and CI; excluded from :meth:`spec_hash` along with
            the policy overrides, because none of them change the computed
            statistics.
    """

    #: Runner arguments the spec supplies through dedicated fields; cells may
    #: not also smuggle them in through ``params``.
    RESERVED_PARAMS = frozenset({"n", "seed", "seeds", "scheduler", "corruptions"})

    #: Execution-plane keys: serialized with the cell (workers need them) but
    #: excluded from :meth:`spec_hash` -- they change how trials are
    #: *supervised*, never what they compute, so stored results stay valid
    #: (and chaos runs checkpoint byte-identically to clean ones).
    EXECUTION_KEYS = ("fault", "trial_timeout_s", "max_chunk_retries")

    name: str
    protocol: str
    n: int
    seeds: List[int]
    params: Dict[str, Any] = field(default_factory=dict)
    adversary: Dict[int, BehaviorSpec] = field(default_factory=dict)
    scheduler: Optional[SchedulerSpec] = None
    scenario: Optional[str] = None
    invariants: Optional[bool] = None
    trial_timeout_s: Optional[float] = None
    max_chunk_retries: Optional[int] = None
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        # Integers become plain ints and JSON object keys (always strings)
        # party ids; anything else -- a string n or seed list, a float seed,
        # a key that spells no integer -- is kept as given, for
        # :meth:`validate` to refuse with the cell's name.
        self.n = _ints_as_int(self.n)
        if isinstance(self.seeds, Iterable) and not isinstance(self.seeds, (str, Mapping)):
            self.seeds = [_ints_as_int(seed) for seed in self.seeds]
        self.adversary = {
            party_key(pid): (
                spec if isinstance(spec, BehaviorSpec) else BehaviorSpec.from_dict(spec)
            )
            for pid, spec in self.adversary.items()
        }
        if isinstance(self.scheduler, Mapping):
            self.scheduler = SchedulerSpec.from_dict(self.scheduler)
        if isinstance(self.fault, Mapping):
            self.fault = FaultSpec.from_dict(self.fault)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ExperimentError`."""
        if not self.name:
            raise ExperimentError("experiment cell needs a non-empty name")
        if not self.protocol:
            raise ExperimentError(f"cell {self.name!r}: missing protocol name")
        problem = trial_shape_problem(self.n, self.seeds)
        if problem is not None:
            raise ExperimentError(f"cell {self.name!r}: {problem}")
        if not self.seeds:
            raise ExperimentError(f"cell {self.name!r}: seed list is empty")
        reserved = self.RESERVED_PARAMS.intersection(self.params)
        if reserved:
            raise ExperimentError(
                f"cell {self.name!r}: params may not override "
                f"{', '.join(sorted(reserved))} (use the dedicated spec fields)"
            )
        for pid in self.adversary:
            if type(pid) is not int:
                raise ExperimentError(
                    f"cell {self.name!r}: adversary key {pid!r} is not a party id"
                )
            if not 0 <= pid < self.n:
                raise ExperimentError(
                    f"cell {self.name!r}: corrupted pid {pid} outside 0..{self.n - 1}"
                )
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ExperimentError(
                f"cell {self.name!r}: trial_timeout_s must be positive, "
                f"got {self.trial_timeout_s}"
            )
        if self.max_chunk_retries is not None and self.max_chunk_retries < 0:
            raise ExperimentError(
                f"cell {self.name!r}: max_chunk_retries must be >= 0, "
                f"got {self.max_chunk_retries}"
            )
        if self.fault is not None and not self.fault.fault:
            raise ExperimentError(f"cell {self.name!r}: fault needs a non-empty name")

    @property
    def trials(self) -> int:
        """Number of trials this cell contributes."""
        return len(self.seeds)

    def spec_hash(self) -> str:
        """Content hash of the cell (name excluded) used for resume checks.

        Stored next to persisted results; a cell whose definition changed
        hashes differently, so stale results are never silently reused.
        Execution-plane keys (:data:`EXECUTION_KEYS`: chaos faults, timeout
        and retry overrides) are excluded -- they never change the computed
        statistics, so toggling them must not invalidate stored results.
        """
        data = self.to_dict()
        data.pop("name")
        for key in self.EXECUTION_KEYS:
            data.pop(key, None)
        return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "protocol": self.protocol,
            "n": self.n,
            "seeds": list(self.seeds),
        }
        if self.params:
            data["params"] = dict(self.params)
        if self.adversary:
            data["adversary"] = {
                str(pid): spec.to_dict() for pid, spec in sorted(self.adversary.items())
            }
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler.to_dict()
        if self.scenario is not None:
            data["scenario"] = self.scenario
        if self.invariants is not None:
            # Serialized only when forced: the default (None) must hash
            # identically to pre-invariant specs so resume checks keep
            # accepting persisted results.
            data["invariants"] = bool(self.invariants)
        if self.trial_timeout_s is not None:
            data["trial_timeout_s"] = self.trial_timeout_s
        if self.max_chunk_retries is not None:
            data["max_chunk_retries"] = self.max_chunk_retries
        if self.fault is not None:
            data["fault"] = self.fault.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        try:
            return cls(
                name=str(data["name"]),
                protocol=str(data["protocol"]),
                n=data["n"],
                seeds=data["seeds"],
                params=dict(data.get("params", {})),
                adversary={
                    pid: BehaviorSpec.from_dict(spec)
                    for pid, spec in data.get("adversary", {}).items()
                },
                scheduler=(
                    SchedulerSpec.from_dict(data["scheduler"])
                    if data.get("scheduler") is not None
                    else None
                ),
                scenario=data.get("scenario"),
                invariants=data.get("invariants"),
                trial_timeout_s=data.get("trial_timeout_s"),
                max_chunk_retries=data.get("max_chunk_retries"),
                fault=(
                    FaultSpec.from_dict(data["fault"])
                    if data.get("fault") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed experiment cell: {exc}") from exc


@dataclass
class CampaignSpec:
    """A named, ordered collection of experiment cells.

    ``policy`` (optional) is the campaign's fault-tolerance
    :class:`ExecutionPolicy`; per-cell ``trial_timeout_s`` /
    ``max_chunk_retries`` override it, and a policy passed directly to
    :func:`~repro.experiments.runner.run_campaign` (e.g. from CLI flags)
    overrides both.
    """

    name: str
    cells: List[ExperimentSpec] = field(default_factory=list)
    policy: Optional[ExecutionPolicy] = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, Mapping):
            self.policy = ExecutionPolicy.from_dict(self.policy)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ExperimentError("campaign needs a non-empty name")
        if not self.cells:
            raise ExperimentError(f"campaign {self.name!r} has no cells")
        if self.policy is not None:
            self.policy.validate()
        seen: set = set()
        for cell in self.cells:
            cell.validate()
            if cell.name in seen:
                raise ExperimentError(
                    f"campaign {self.name!r}: duplicate cell name {cell.name!r}"
                )
            seen.add(cell.name)

    @property
    def trials(self) -> int:
        """Total number of trials across all cells."""
        return sum(cell.trials for cell in self.cells)

    def cell(self, name: str) -> ExperimentSpec:
        """Look a cell up by name."""
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise ExperimentError(f"campaign {self.name!r} has no cell {name!r}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        if self.policy is not None and self.policy.to_dict():
            data["policy"] = self.policy.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        try:
            return cls(
                name=str(data["name"]),
                cells=[ExperimentSpec.from_dict(cell) for cell in data["cells"]],
                policy=(
                    ExecutionPolicy.from_dict(data["policy"])
                    if data.get("policy") is not None
                    else None
                ),
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed campaign: {exc}") from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"campaign is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        name: str,
        protocol: str,
        n: Union[int, Sequence[int]],
        seeds: Iterable[int],
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        params: Optional[Mapping[str, Any]] = None,
        adversary: Optional[Mapping[int, BehaviorSpec]] = None,
        scheduler: Optional[SchedulerSpec] = None,
        scenario: Optional[str] = None,
    ) -> "CampaignSpec":
        """Build a campaign as the cartesian product of parameter axes.

        ``n`` may be a single party count or a sequence of them (an implicit
        ``n`` axis); ``axes`` maps runner parameter names to value lists.
        Every grid point becomes one cell named ``<key>=<value>,...`` with
        the shared ``seeds``, ``params``, ``adversary`` and ``scheduler``.
        """
        seed_list = list(seeds)
        ns = [n] if isinstance(n, int) else list(n)
        axis_items = sorted((axes or {}).items())
        axis_keys = [key for key, _ in axis_items]
        axis_values = [list(values) for _, values in axis_items]
        cells: List[ExperimentSpec] = []
        for n_value in ns:
            for combo in itertools.product(*axis_values):
                labels = []
                if len(ns) > 1:
                    labels.append(f"n={n_value}")
                labels.extend(f"{key}={value}" for key, value in zip(axis_keys, combo))
                cell_params = dict(params or {})
                cell_params.update(zip(axis_keys, combo))
                cells.append(
                    ExperimentSpec(
                        name=",".join(labels) or "default",
                        protocol=protocol,
                        n=n_value,
                        seeds=list(seed_list),
                        params=cell_params,
                        adversary=dict(adversary or {}),
                        scheduler=scheduler,
                        scenario=scenario,
                    )
                )
        campaign = cls(name=name, cells=cells)
        campaign.validate()
        return campaign
