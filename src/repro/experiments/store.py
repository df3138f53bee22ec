"""JSON persistence for campaign results, with chunk-granular resume.

A :class:`ResultStore` is a single JSON file mapping cell names to their
persisted :class:`~repro.core.results.TrialAggregate` plus the spec hash the
result was computed under.  The file is deliberately deterministic -- sorted
keys, no timestamps -- so the same campaign always produces byte-identical
statistics regardless of worker count, retries or crashes, which makes
results diffable and cacheable.  The one advisory exception is each cell's
``elapsed_s`` wall-clock total (kept *beside* the aggregate, never inside
it), which backs the ``deliveries/s`` throughput column of
``repro-experiments report``.

Store schema v2 adds two sections next to ``cells``:

* ``partial`` -- per-cell chunk checkpoints: every completed chunk of a
  not-yet-finished cell is persisted (with its seed list and spec hash) the
  moment it lands, so a campaign killed mid-cell resumes at *chunk*
  granularity instead of re-running the whole cell.  When the cell's last
  chunk completes, the chunks are merged in chunk order (byte-identical to a
  sequential run) and the partial entry is deleted -- a finished store holds
  an empty ``partial``.
* ``failures`` -- structured quarantine records for cells whose chunk
  exhausted its retries: error class, message, traceback, attempt count.
  Quarantined cells are *not* in ``cells``; a later run re-attempts them
  (resuming their healthy chunks from ``partial``) and a success clears the
  record.

A store of any other version, v1 included, is refused on load.

Resume protocol (used by :func:`repro.experiments.runner.run_campaign`):

* a cell is *complete* iff the store holds an entry under its name whose
  ``spec_hash`` matches the cell's current hash;
* entries -- including partial chunks -- with a stale hash (the cell
  definition changed) are ignored and overwritten;
* a partial chunk is only reused if its recorded seed list matches the
  cell's current chunking, so changing ``--chunk-trials`` safely recomputes;
* deleting an entry (or the :meth:`delete` helper / ``report --drop``) makes
  exactly that cell run again.

Concurrency: :meth:`acquire_lock` takes an exclusive pid-stamped lockfile
(``<path>.lock``) so two ``run --resume`` invocations on the same ``--out``
path fail fast instead of silently interleaving :meth:`save` calls; a lock
left by a dead process is detected and stolen.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.results import TrialAggregate
from repro.errors import ExperimentError

STORE_VERSION = 2


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for the pid in a lockfile."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _shape_problem(data: Dict[str, Any]) -> Optional[str]:
    """What is wrong with the types of a loaded store's sections, if anything.

    Each section present is an object; a cell record has a string
    ``spec_hash`` and an object ``aggregate``; a partial entry has an object
    of ``chunks``; a failure record is an object.
    """
    for section in ("cells", "partial", "failures"):
        if not isinstance(data.get(section, {}), dict):
            return f"section {section!r} is not an object"
    for name, entry in data["cells"].items():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("spec_hash"), str)
            and isinstance(entry.get("aggregate"), dict)
        ):
            return f"cell {name!r} needs a string spec_hash and an object aggregate"
    for name, entry in data.get("partial", {}).items():
        if not (isinstance(entry, dict) and isinstance(entry.get("chunks"), dict)):
            return f"partial cell {name!r} needs an object of chunks"
    for name, record in data.get("failures", {}).items():
        if not isinstance(record, dict):
            return f"failure record {name!r} is not an object"
    return None


class ResultStore:
    """Load/modify/save the persisted results of one campaign."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._data: Dict[str, Any] = self._fresh()
        self._lock_held = False
        #: Set to the quarantine path when :meth:`reload` recovered from a
        #: corrupt file (so callers can warn the user).
        self.recovered_from: Optional[Path] = None

    @staticmethod
    def _fresh() -> Dict[str, Any]:
        return {
            "version": STORE_VERSION,
            "campaign": None,
            "cells": {},
            "partial": {},
            "failures": {},
        }

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: Union[str, Path], recover_corrupt: bool = False
    ) -> "ResultStore":
        """Return a store for ``path``, loading existing contents if present.

        With ``recover_corrupt=True`` an unreadable/truncated file (e.g. a
        crash during a concurrent writer's ``save``) is quarantined to
        ``<path>.corrupt`` and the store starts fresh instead of raising.
        """
        store = cls(path)
        if store.path.exists():
            store.reload(recover_corrupt=recover_corrupt)
        return store

    def reload(self, recover_corrupt: bool = False) -> None:
        """(Re)read the backing file, validating shape and version.

        A file that is not JSON, or whose sections or cell records have the
        wrong types, is refused (or, with ``recover_corrupt``, quarantined)
        here rather than found by whatever reads the section first.
        """
        try:
            try:
                data = json.loads(self.path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ExperimentError(
                    f"cannot read result store {self.path}: {exc}"
                ) from exc
            if not isinstance(data, dict) or "cells" not in data:
                raise ExperimentError(f"{self.path} is not a campaign result store")
            problem = _shape_problem(data)
            if problem is not None:
                raise ExperimentError(f"{self.path} is not a campaign result store: {problem}")
        except ExperimentError as exc:
            if not recover_corrupt:
                raise ExperimentError(
                    f"{exc}; quarantine it and start fresh with --recover-corrupt"
                ) from exc
            quarantine = self.path.with_name(self.path.name + ".corrupt")
            os.replace(self.path, quarantine)
            self.recovered_from = quarantine
            self._data = self._fresh()
            return
        version = data.get("version")
        if version != STORE_VERSION:
            raise ExperimentError(
                f"{self.path}: unsupported store version {version!r} "
                f"(expected {STORE_VERSION})"
            )
        self._data = data

    def save(self) -> None:
        """Atomically write the store (write temp file, then rename).

        The temp file is removed on *any* failure in between, so an
        interrupted save never leaves a stray ``.tmp`` next to the store.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self._data, indent=2, sort_keys=True) + "\n"
        temp = self.path.with_name(self.path.name + ".tmp")
        try:
            temp.write_text(text)
            os.replace(temp, self.path)
        finally:
            if temp.exists():
                temp.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Ownership lock
    @property
    def lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    def acquire_lock(self) -> None:
        """Take the exclusive pid-stamped lockfile for this store path.

        Raises :class:`ExperimentError` when another *live* process holds
        it; a lock whose owner pid is dead (crashed run) is stolen.
        Re-acquiring a lock this store object already holds is a no-op.
        """
        if self._lock_held:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    owner = int(self.lock_path.read_text().strip() or "0")
                except (OSError, ValueError):
                    owner = None
                if owner is not None and not _pid_alive(owner):
                    # Stale lock from a crashed run; steal it and retry.
                    self.lock_path.unlink(missing_ok=True)
                    continue
                raise ExperimentError(
                    f"result store {self.path} is locked by "
                    f"{'process ' + str(owner) if owner else 'another run'}; "
                    f"a concurrent `run` on the same --out path would corrupt "
                    f"it (remove {self.lock_path} if that run is gone)"
                )
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self._lock_held = True
            return
        raise ExperimentError(
            f"could not acquire lock {self.lock_path}: lost the race twice"
        )

    def release_lock(self) -> None:
        if self._lock_held:
            self.lock_path.unlink(missing_ok=True)
            self._lock_held = False

    # ------------------------------------------------------------------
    @property
    def campaign(self) -> Optional[str]:
        return self._data.get("campaign")

    def bind_campaign(self, name: str) -> None:
        """Claim the store for ``name``; refuse to mix campaigns in one file."""
        current = self._data.get("campaign")
        if current is None:
            self._data["campaign"] = name
        elif current != name:
            raise ExperimentError(
                f"result store {self.path} belongs to campaign {current!r}, "
                f"not {name!r}; use a different --out path"
            )

    # ------------------------------------------------------------------
    def cell_names(self) -> List[str]:
        return sorted(self._data["cells"])

    def has_cell(self, name: str, spec_hash: str) -> bool:
        """True when a result for ``name`` computed under ``spec_hash`` exists."""
        entry = self._data["cells"].get(name)
        return entry is not None and entry.get("spec_hash") == spec_hash

    def get(self, name: str) -> TrialAggregate:
        try:
            entry = self._data["cells"][name]
        except KeyError:
            raise ExperimentError(f"store {self.path} has no cell {name!r}") from None
        try:
            aggregate = TrialAggregate.from_dict(entry["aggregate"])
            # Wall-clock timing travels beside the aggregate: the statistics
            # stay byte-identical across worker counts, the throughput column
            # survives a reload.  Stores written before timing existed load
            # as 0.0.
            aggregate.total_elapsed_s = float(entry.get("elapsed_s", 0.0))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(
                f"store {self.path}: cell {name!r} has an undecodable aggregate "
                f"({type(exc).__name__}: {exc}); drop it with `report --drop {name}`"
            ) from exc
        return aggregate

    def put(self, name: str, spec_hash: str, aggregate: TrialAggregate) -> None:
        """Persist a cell's final aggregate; promotes away chunk/failure state."""
        self._data["cells"][name] = {
            "spec_hash": spec_hash,
            "aggregate": aggregate.to_dict(),
            "elapsed_s": round(aggregate.total_elapsed_s, 6),
        }
        self._data["partial"].pop(name, None)
        self._data["failures"].pop(name, None)

    def delete(self, name: str) -> bool:
        """Drop one cell's result (and any chunk/failure state); True if it existed."""
        existed = self._data["cells"].pop(name, None) is not None
        existed = self._data["partial"].pop(name, None) is not None or existed
        existed = self._data["failures"].pop(name, None) is not None or existed
        return existed

    # ------------------------------------------------------------------
    # Chunk-granular checkpoints
    def put_chunk(
        self,
        name: str,
        spec_hash: str,
        chunk_index: int,
        seeds: List[int],
        transport: Dict[str, Any],
    ) -> None:
        """Checkpoint one completed chunk of a not-yet-finished cell.

        ``transport`` is the chunk aggregate's
        :meth:`~repro.core.results.TrialAggregate.to_transport_dict`; the
        advisory wall-clock total is split out beside the aggregate, same as
        for whole cells.  A partial entry with a stale spec hash is replaced
        wholesale.
        """
        entry = self._data["partial"].get(name)
        if entry is None or entry.get("spec_hash") != spec_hash:
            entry = self._data["partial"][name] = {
                "spec_hash": spec_hash,
                "chunks": {},
            }
        payload = dict(transport)
        elapsed = float(payload.pop("total_elapsed_s", 0.0))
        entry["chunks"][str(int(chunk_index))] = {
            "seeds": [int(seed) for seed in seeds],
            "aggregate": payload,
            "elapsed_s": round(elapsed, 6),
        }

    def partial_chunks(self, name: str, spec_hash: str) -> Dict[int, Dict[str, Any]]:
        """Checkpointed chunks of ``name`` under ``spec_hash`` (else empty).

        Returns ``{chunk_index: {"seeds": [...], "aggregate": {...},
        "elapsed_s": ...}}``; callers must verify the seed lists still match
        the current chunking before reuse.
        """
        entry = self._data["partial"].get(name)
        if entry is None or entry.get("spec_hash") != spec_hash:
            return {}
        return {int(index): chunk for index, chunk in entry["chunks"].items()}

    def partial_cells(self) -> Dict[str, int]:
        """Cells with checkpointed chunks -> how many chunks are saved."""
        return {
            name: len(entry["chunks"])
            for name, entry in sorted(self._data["partial"].items())
        }

    # ------------------------------------------------------------------
    # Quarantine records
    def quarantine(self, name: str, spec_hash: str, record: Dict[str, Any]) -> None:
        """Record a structured failure for ``name`` (cell stays incomplete).

        The cell's healthy chunk checkpoints are deliberately *kept*: a
        later run re-attempts only the poison chunk.
        """
        self._data["failures"][name] = {"spec_hash": spec_hash, **record}

    def clear_failure(self, name: str) -> bool:
        return self._data["failures"].pop(name, None) is not None

    def failures(self) -> Dict[str, Dict[str, Any]]:
        """Quarantine records by cell name (sorted)."""
        return {name: dict(record) for name, record in sorted(self._data["failures"].items())}

    def quarantined_cells(self) -> List[str]:
        return sorted(self._data["failures"])

    # ------------------------------------------------------------------
    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Headline metrics per cell (for ``report``)."""
        return {name: self.get(name).summary() for name in self.cell_names()}
