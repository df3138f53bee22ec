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
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import schema
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


def _ints_as_int(value: Any) -> Any:
    """``value`` as a plain int when it is an integer, else unchanged."""
    return int(value) if schema.is_int(value) else value


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    """``value`` as plain JSON data: nested specs as dicts, containers copied."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value.to_dict() if isinstance(value, JsonSpec) else value


@lru_cache(maxsize=None)
def _json_fields(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, default, always)`` per field of a spec class, read once."""
    return tuple(
        (f.name, f.default if f.default_factory is MISSING else f.default_factory(),
         f.name in cls.ALWAYS)  # type: ignore[attr-defined]
        for f in fields(cls)
    )


class JsonSpec:
    """The JSON form the spec dataclasses share, driven by their fields.

    :meth:`to_dict` omits fields at their default (but those in
    :attr:`ALWAYS`, which a document must therefore carry); :meth:`from_dict`
    is the constructor (``__post_init__`` reads the :attr:`NESTED` specs), so
    a missing or unknown key is an :attr:`ERROR` and no value is coerced:
    ``validate`` checks them as written.
    """

    #: Fields written even at their default.
    ALWAYS: Tuple[str, ...] = ()
    #: What an error calls the document, and the error it raises.
    NOUN = "spec"
    ERROR: type = ExperimentError
    #: Fields read as nested specs: a JSON object becomes the spec (anything
    #: else is kept, for ``validate`` to refuse); ``[spec]`` is a list of them.
    NESTED: Dict[str, Any] = {}

    def __post_init__(self) -> None:
        for name, spec in self.NESTED.items():
            value = getattr(self, name)
            if isinstance(spec, list):
                (spec,) = spec
                value = [v if isinstance(v, spec) else spec.from_dict(v) for v in value]
                setattr(self, name, value)
            elif isinstance(value, Mapping):
                setattr(self, name, spec.from_dict(value))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for name, default, always in _json_fields(type(self)):
            value = getattr(self, name)
            if always or value != default:  # nothing equals MISSING
                data[name] = _plain(value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        if cls.ALWAYS and isinstance(data, Mapping) and not set(cls.ALWAYS).issubset(data):
            missing = sorted(set(cls.ALWAYS).difference(data))
            raise cls.ERROR(f"malformed {cls.NOUN}: missing keys {missing}")
        try:
            return cls(**data)
        except (AttributeError, TypeError, ValueError) as exc:
            raise cls.ERROR(f"malformed {cls.NOUN}: {exc}") from exc

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> Any:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise cls.ERROR(f"{cls.NOUN} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> Any:
        return cls.from_json(Path(path).read_text())


@dataclass
class BehaviorSpec(JsonSpec):
    """A named adversarial behaviour plus its constructor parameters."""

    behavior: str
    params: Dict[str, Any] = field(default_factory=dict)

    NOUN = "behavior spec"
    #: The name's check; the params are the registry row's to check.
    FIELDS = {"behavior": schema.Name()}


@dataclass
class SchedulerSpec(JsonSpec):
    """A named message scheduler plus its constructor parameters."""

    scheduler: str
    params: Dict[str, Any] = field(default_factory=dict)

    NOUN = "scheduler spec"
    FIELDS = {"scheduler": schema.Name()}


@dataclass
class FaultSpec(JsonSpec):
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

    NOUN = "fault spec"
    FIELDS = {"fault": schema.Name()}


@dataclass
class ExecutionPolicy(JsonSpec):
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

    #: Each field's check (``None`` always means "inherit").
    FIELDS = {
        "trial_timeout_s": schema.Real(0, null=True),
        "max_chunk_retries": schema.Int(0, null=True),
        "fail_fast": schema.Bool(null=True),
        "backoff_base_s": schema.Real(0, lo_closed=True, null=True),
    }

    def validate(self) -> None:
        problem = schema.problem(self.FIELDS, vars(self), None, "{}")
        if problem is not None:
            raise ExperimentError(f"policy: {problem}")


@dataclass
class ExperimentSpec(JsonSpec):
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

    NOUN = "experiment cell"

    #: Each field's check; the supervision overrides are the policy's own.
    FIELDS = {
        "name": schema.Name(),
        "protocol": schema.Name(),
        "n": schema.Int(1),
        "seeds": schema.ListOf(schema.Int(), nonempty=True),
        # Runner arguments the spec supplies through dedicated fields.
        "params": schema.JsonObject(
            reserved=("n", "seed", "seeds", "scheduler", "corruptions")
        ),
        "adversary": schema.PartyMap(schema.Nested(BehaviorSpec)),
        "scheduler": schema.Nested(SchedulerSpec, null=True),
        "scenario": schema.Name(null=True),
        "invariants": schema.Bool(null=True),
        "trial_timeout_s": ExecutionPolicy.FIELDS["trial_timeout_s"],
        "max_chunk_retries": ExecutionPolicy.FIELDS["max_chunk_retries"],
        "fault": schema.Nested(FaultSpec, null=True),
    }

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

    NESTED = {"scheduler": SchedulerSpec, "fault": FaultSpec}

    def __post_init__(self) -> None:
        # Integers become plain ints and JSON object keys party ids; anything
        # else is kept as given, for :meth:`validate` to refuse.
        self.n = _ints_as_int(self.n)
        if isinstance(self.seeds, Iterable) and not isinstance(self.seeds, (str, Mapping)):
            self.seeds = [_ints_as_int(seed) for seed in self.seeds]
        if isinstance(self.adversary, Mapping):
            self.adversary = {
                party_key(pid): (
                    BehaviorSpec.from_dict(spec) if isinstance(spec, Mapping) else spec
                )
                for pid, spec in self.adversary.items()
            }
        super().__post_init__()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check each field as written (:attr:`FIELDS`); raise :class:`ExperimentError`."""
        n = self.n if self.FIELDS["n"].accepts(self.n, None) else None
        problem = schema.problem(self.FIELDS, vars(self), n, "{}")
        if problem is not None:
            raise ExperimentError(f"cell {self.name!r}: {problem}")

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
        # ``invariants`` at its default (None) is omitted, so it hashes as
        # pre-invariant specs did and persisted results stay resumable.
        data = super().to_dict()
        if self.adversary and isinstance(self.adversary, Mapping):  # keys are strings
            data["adversary"] = {str(pid): _plain(spec) for pid, spec in self.adversary.items()}
        return data


@dataclass
class CampaignSpec(JsonSpec):
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

    NOUN = "campaign"
    ALWAYS = ("cells",)
    NESTED = {"cells": [ExperimentSpec], "policy": ExecutionPolicy}

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ExperimentError("campaign needs a non-empty name")
        if not self.cells:
            raise ExperimentError(f"campaign {self.name!r} has no cells")
        if self.policy is not None:
            if not isinstance(self.policy, ExecutionPolicy):
                raise ExperimentError(f"policy must be a JSON object or null, got {self.policy!r}")
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
        data = super().to_dict()
        if not data.get("policy"):  # a policy that sets nothing is written as none
            data.pop("policy", None)
        return data

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
