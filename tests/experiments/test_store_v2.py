"""Tests for store schema v2: chunk checkpoints, quarantine, locks, recovery."""

from __future__ import annotations

import json

import pytest

from repro.core.results import TrialAggregate
from repro.errors import ExperimentError
from repro.experiments.runner import _run_cell_chunk, run_campaign
from repro.experiments.spec import CampaignSpec, ExperimentSpec
from repro.experiments.store import STORE_VERSION, ResultStore


def _cell(seeds=range(5)) -> ExperimentSpec:
    return ExperimentSpec(
        name="bcast",
        protocol="acast",
        n=4,
        seeds=list(seeds),
        params={"value": "v", "sender": 0},
    )


def _aggregate() -> TrialAggregate:
    from repro.core import api

    aggregate = TrialAggregate()
    aggregate.add(api.run_acast(n=4, seed=0, value="v"))
    return aggregate


class TestVersion:
    def test_a_v1_store_is_refused(self, tmp_path):
        """v1 has no upgrade path: its file is refused, not rewritten."""
        path = tmp_path / "old.json"
        v1 = {
            "version": 1,
            "campaign": "legacy",
            "cells": {
                "bcast": {
                    "spec_hash": "abcd",
                    "aggregate": _aggregate().to_dict(),
                    "elapsed_s": 1.5,
                }
            },
        }
        path.write_text(json.dumps(v1))
        with pytest.raises(ExperimentError, match="unsupported store version 1"):
            ResultStore.open(path)
        assert json.loads(path.read_text()) == v1

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "cells": {}}))
        with pytest.raises(ExperimentError, match="unsupported store version"):
            ResultStore.open(path)


class TestCorruptRecovery:
    def test_truncated_json_rejected_with_recovery_hint(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"version": 2, "cells": {')
        with pytest.raises(ExperimentError, match="recover-corrupt"):
            ResultStore.open(path)
        assert path.exists()  # rejected, not destroyed

    def test_recover_corrupt_quarantines_and_starts_fresh(self, tmp_path):
        path = tmp_path / "torn.json"
        garbage = '{"version": 2, "cells": {'
        path.write_text(garbage)

        store = ResultStore.open(path, recover_corrupt=True)
        quarantine = path.with_name(path.name + ".corrupt")
        assert store.recovered_from == quarantine
        assert quarantine.read_text() == garbage
        assert not path.exists()  # moved, a fresh save recreates it
        assert store.cell_names() == []

        store.save()
        assert json.loads(path.read_text())["version"] == STORE_VERSION

    def test_wrong_shape_json_also_recoverable(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ExperimentError, match="not a campaign result store"):
            ResultStore.open(path)
        store = ResultStore.open(path, recover_corrupt=True)
        assert store.recovered_from is not None

    def test_healthy_store_sets_no_recovery_marker(self, tmp_path):
        path = tmp_path / "ok.json"
        first = ResultStore.open(path)
        first.save()
        store = ResultStore.open(path, recover_corrupt=True)
        assert store.recovered_from is None


class TestChunkCheckpoints:
    def test_put_chunk_round_trip_with_int_keys(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        transport = _aggregate().to_transport_dict()
        store.put_chunk("bcast", "hash1", 2, [4, 5], transport)
        store.save()

        reloaded = ResultStore.open(path)
        chunks = reloaded.partial_chunks("bcast", "hash1")
        assert list(chunks) == [2]
        entry = chunks[2]
        assert entry["seeds"] == [4, 5]
        assert "total_elapsed_s" not in entry["aggregate"]  # split out beside it
        assert entry["elapsed_s"] >= 0
        assert reloaded.partial_cells() == {"bcast": 1}

    def test_stale_spec_hash_hides_chunks(self, tmp_path):
        store = ResultStore.open(tmp_path / "results.json")
        store.put_chunk("bcast", "hash1", 0, [0, 1], _aggregate().to_transport_dict())
        assert store.partial_chunks("bcast", "hash1") != {}
        assert store.partial_chunks("bcast", "hash2") == {}

    def test_new_spec_hash_replaces_partial_wholesale(self, tmp_path):
        store = ResultStore.open(tmp_path / "results.json")
        transport = _aggregate().to_transport_dict()
        store.put_chunk("bcast", "hash1", 0, [0, 1], transport)
        store.put_chunk("bcast", "hash1", 1, [2, 3], transport)
        store.put_chunk("bcast", "hash2", 0, [0, 1], transport)
        assert list(store.partial_chunks("bcast", "hash2")) == [0]
        assert store.partial_chunks("bcast", "hash1") == {}

    def test_put_promotes_away_partial_and_failure_state(self, tmp_path):
        store = ResultStore.open(tmp_path / "results.json")
        store.put_chunk("bcast", "hash1", 0, [0, 1], _aggregate().to_transport_dict())
        store.quarantine("bcast", "hash1", {"chunk_index": 1, "attempts": 3})
        store.put("bcast", "hash1", _aggregate())
        assert store.partial_cells() == {}
        assert store.failures() == {}
        assert store.has_cell("bcast", "hash1")

    def test_delete_drops_all_cell_state(self, tmp_path):
        store = ResultStore.open(tmp_path / "results.json")
        store.put_chunk("bcast", "hash1", 0, [0], _aggregate().to_transport_dict())
        store.quarantine("bcast", "hash1", {"chunk_index": 0})
        assert store.delete("bcast")
        assert store.partial_cells() == {}
        assert store.failures() == {}
        assert not store.delete("bcast")


class TestQuarantineRecords:
    def test_quarantine_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        record = {
            "chunk_index": 1,
            "seeds": [2, 3],
            "kind": "timeout",
            "error": "ChunkTimeout",
            "message": "deadline",
            "traceback": "",
            "attempts": 3,
        }
        store.quarantine("bcast", "hash1", record)
        store.save()

        reloaded = ResultStore.open(path)
        assert reloaded.quarantined_cells() == ["bcast"]
        stored = reloaded.failures()["bcast"]
        assert stored["spec_hash"] == "hash1"
        assert stored["kind"] == "timeout"
        assert stored["attempts"] == 3
        assert reloaded.clear_failure("bcast")
        assert not reloaded.clear_failure("bcast")
        assert reloaded.quarantined_cells() == []


class TestSaveHygiene:
    def test_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        store.put("bcast", "hash1", _aggregate())
        store.save()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_save_is_deterministic(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        store.put("bcast", "hash1", _aggregate())
        store.save()
        first = path.read_bytes()
        ResultStore.open(path).save()
        assert path.read_bytes() == first


class TestMergeDeterminism:
    def test_out_of_order_chunks_merge_to_sequential_result(self, tmp_path):
        """Checkpoints landing in any order (retries, slow workers) merge --
        sorted by chunk index -- to the exact sequential aggregate."""
        cell = _cell(seeds=range(5))
        expected = run_campaign(
            CampaignSpec(name="merge", cells=[cell]), chunk_trials=2
        )["bcast"].to_dict()

        cell_dict = cell.to_dict()
        seed_chunks = [[0, 1], [2, 3], [4]]
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        # Land the chunks out of order, as a chaotic parallel run would.
        for index in (2, 0, 1):
            transport = _run_cell_chunk(cell_dict, seed_chunks[index])
            store.put_chunk("bcast", cell.spec_hash(), index, seed_chunks[index], transport)
        store.save()

        reloaded = ResultStore.open(path)
        chunks = reloaded.partial_chunks("bcast", cell.spec_hash())
        merged = TrialAggregate.empty()
        for index in sorted(chunks):
            transport = dict(chunks[index]["aggregate"])
            transport["total_elapsed_s"] = chunks[index]["elapsed_s"]
            merged = merged.merge(TrialAggregate.from_transport_dict(transport))
        assert merged.to_dict() == expected


class TestLockfile:
    def test_acquire_conflict_release_cycle(self, tmp_path):
        path = tmp_path / "results.json"
        first = ResultStore.open(path)
        first.acquire_lock()
        assert first.lock_path.exists()
        first.acquire_lock()  # reacquire by the same holder is a no-op

        second = ResultStore.open(path)
        with pytest.raises(ExperimentError, match="is locked by"):
            second.acquire_lock()

        first.release_lock()
        assert not first.lock_path.exists()
        second.acquire_lock()
        second.release_lock()

    def test_stale_lock_is_stolen(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        store.lock_path.write_text("999999999")  # dead pid
        store.acquire_lock()
        assert store.lock_path.read_text().strip() != "999999999"
        store.release_lock()

    def test_unreadable_lock_owner_is_conservative(self, tmp_path):
        path = tmp_path / "results.json"
        store = ResultStore.open(path)
        store.lock_path.write_text("not-a-pid")
        with pytest.raises(ExperimentError, match="is locked by"):
            store.acquire_lock()
