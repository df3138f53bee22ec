"""Chaos tests for the supervised execution plane.

Every fault here is injected through the ``FAULTS`` registry hook in the
worker entrypoint -- the same mechanism the ``runner-chaos`` CI job uses --
and every recovery assertion is a byte-identity check against an undisturbed
sequential run: supervision may retry, kill and re-dispatch, but it may never
change the statistics.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ExperimentError, FaultInjectionError
from repro.experiments import (
    CampaignInterrupted,
    CampaignSpec,
    ExecutionPolicy,
    ExperimentSpec,
    FaultSpec,
    ResultStore,
    run_campaign,
    run_seeds,
)
from repro.experiments.registry import FAULTS, inject_fault
from repro.experiments.supervisor import BACKOFF_CAP_S, backoff_delay
from repro.obs.metrics import MetricsRegistry


def _cells(fault=None):
    """Two cheap cells; with chunk_trials=2 the first spans three chunks."""
    return [
        ExperimentSpec(
            name="bcast",
            protocol="acast",
            n=4,
            seeds=list(range(6)),
            params={"value": "v", "sender": 0},
            fault=fault,
        ),
        ExperimentSpec(
            name="coin",
            protocol="coinflip",
            n=4,
            seeds=list(range(4)),
            params={"rounds": 1},
            fault=fault,
        ),
    ]


def _campaign(fault=None) -> CampaignSpec:
    return CampaignSpec(name="chaos", cells=_cells(fault))


def _canonical(path):
    """Store bytes minus the advisory wall-clock field."""
    data = json.loads(path.read_text())
    for cell in data["cells"].values():
        cell.pop("elapsed_s", None)
    return json.dumps(data, sort_keys=True)


def _metrics() -> MetricsRegistry:
    return MetricsRegistry(queue_depth_every=0, completion_steps=False)


@pytest.fixture()
def baseline(tmp_path):
    """Sequential fault-free store to diff chaos runs against."""
    path = tmp_path / "baseline.json"
    run_campaign(_campaign(), workers=1, chunk_trials=2, store=ResultStore.open(path))
    return _canonical(path)


class TestBackoff:
    def test_deterministic_exponential_schedule(self):
        assert backoff_delay(1, 0.05) == 0.05
        assert backoff_delay(2, 0.05) == 0.1
        assert backoff_delay(3, 0.05) == 0.2
        assert [backoff_delay(k, 0.05) for k in range(1, 4)] == [
            backoff_delay(k, 0.05) for k in range(1, 4)
        ]

    def test_capped(self):
        assert backoff_delay(50, 1.0) == BACKOFF_CAP_S


class TestInjectFault:
    def test_no_spec_is_a_noop(self):
        inject_fault(None, chunk_index=0, attempt=0)
        inject_fault({}, chunk_index=3, attempt=7)

    def test_chunk_selector(self):
        spec = FaultSpec("raise", {"chunks": [1, 3]}).to_dict()
        inject_fault(spec, chunk_index=0, attempt=0)  # not selected
        with pytest.raises(FaultInjectionError):
            inject_fault(spec, chunk_index=1, attempt=0)

    def test_attempts_default_to_first_dispatch_only(self):
        spec = FaultSpec("raise").to_dict()
        with pytest.raises(FaultInjectionError):
            inject_fault(spec, chunk_index=0, attempt=0)
        inject_fault(spec, chunk_index=0, attempt=1)  # retry recovers

    def test_attempts_none_hits_every_dispatch(self):
        spec = FaultSpec("raise", {"attempts": None}).to_dict()
        for attempt in range(3):
            with pytest.raises(FaultInjectionError):
                inject_fault(spec, chunk_index=0, attempt=attempt)

    def test_unknown_fault_name_raises(self):
        with pytest.raises(ExperimentError, match="unknown chaos fault"):
            inject_fault({"fault": "nope"}, chunk_index=0, attempt=0)

    def test_registry_lists_all_faults(self):
        for name in ("raise", "hang", "exit", "sigkill"):
            assert FAULTS.get(name) is not None


class TestChaosRecovery:
    """Faults on the first dispatch; bounded retries must recover
    byte-identically to the sequential baseline."""

    def _chaos_store(self, tmp_path, fault_name, params, metrics, **kwargs):
        path = tmp_path / f"{fault_name}.json"
        fault = FaultSpec(fault_name, params)
        run_campaign(
            _campaign(fault),
            workers=2,
            chunk_trials=2,
            store=ResultStore.open(path),
            metrics=metrics,
            **kwargs,
        )
        return path

    def test_raise_fault_retries_to_identical_store(self, tmp_path, baseline):
        metrics = _metrics()
        path = self._chaos_store(
            tmp_path, "raise", {"chunks": [1], "attempts": [0]}, metrics
        )
        assert _canonical(path) == baseline
        assert metrics.counter_values()["runner.retries"] >= 1

    def test_sigkill_fault_restarts_worker_and_recovers(self, tmp_path, baseline):
        metrics = _metrics()
        path = self._chaos_store(
            tmp_path, "sigkill", {"chunks": [1], "attempts": [0]}, metrics
        )
        assert _canonical(path) == baseline
        counters = metrics.counter_values()
        assert counters["runner.worker_restarts"] >= 1
        assert counters["runner.retries"] >= 1

    def test_exit_fault_counts_as_worker_death(self, tmp_path, baseline):
        metrics = _metrics()
        path = self._chaos_store(
            tmp_path, "exit", {"code": 7, "chunks": [0], "attempts": [0]}, metrics
        )
        assert _canonical(path) == baseline
        assert metrics.counter_values()["runner.worker_restarts"] >= 1

    def test_hang_fault_times_out_and_recovers(self, tmp_path, baseline):
        metrics = _metrics()
        path = self._chaos_store(
            tmp_path,
            "hang",
            {"seconds": 30, "chunks": [0], "attempts": [0]},
            metrics,
            policy=ExecutionPolicy(trial_timeout_s=0.2),
        )
        assert _canonical(path) == baseline
        counters = metrics.counter_values()
        assert counters["runner.timeouts"] >= 1
        assert counters["runner.worker_restarts"] >= 1

    def test_no_leaked_workers(self, tmp_path):
        run_campaign(
            _campaign(FaultSpec("sigkill", {"chunks": [1], "attempts": [0]})),
            workers=2,
            chunk_trials=2,
        )
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()


class TestQuarantine:
    def _poison(self):
        """A fault that hits chunk 1 of every cell on *every* attempt."""
        return FaultSpec("raise", {"chunks": [1], "attempts": None})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poison_chunk_quarantines_cell_healthy_chunks_survive(
        self, tmp_path, workers
    ):
        path = tmp_path / "poison.json"
        metrics = _metrics()
        failures = {}
        # Poison only the first cell; the second must still complete.
        cells = _cells()
        cells[0].fault = self._poison()
        results = run_campaign(
            CampaignSpec(name="chaos", cells=cells),
            workers=workers,
            chunk_trials=2,
            store=ResultStore.open(path),
            policy=ExecutionPolicy(max_chunk_retries=1),
            metrics=metrics,
            failures=failures,
        )
        assert set(results) == {"coin"}
        assert set(failures) == {"bcast"}
        failure = failures["bcast"]
        assert failure.kind == "exception"
        assert failure.error == "FaultInjectionError"
        assert failure.attempts == 2  # first dispatch + one retry
        assert metrics.counter_values()["runner.quarantined_cells"] == 1

        store = ResultStore.open(path)
        record = store.failures()["bcast"]
        assert record["chunk_index"] == 1
        assert record["seeds"] == [2, 3]
        assert record["attempts"] == 2
        assert "FaultInjectionError" in record["traceback"]
        # Healthy chunk checkpoints of the quarantined cell are kept.
        assert store.partial_cells().get("bcast", 0) >= 1
        assert "bcast" not in store.cell_names()
        assert "coin" in store.cell_names()

    def test_fail_fast_aborts_campaign(self, tmp_path):
        cells = _cells()
        cells[0].fault = self._poison()
        with pytest.raises(ExperimentError, match="fail_fast"):
            run_campaign(
                CampaignSpec(name="chaos", cells=cells),
                workers=1,
                chunk_trials=2,
                store=ResultStore.open(tmp_path / "ff.json"),
                policy=ExecutionPolicy(max_chunk_retries=0, fail_fast=True),
            )

    def test_rerun_without_fault_clears_quarantine(self, tmp_path, baseline):
        path = tmp_path / "poison.json"
        run_campaign(
            _campaign(self._poison()),
            workers=1,
            chunk_trials=2,
            store=ResultStore.open(path),
            policy=ExecutionPolicy(max_chunk_retries=0),
        )
        assert ResultStore.open(path).quarantined_cells() == ["bcast", "coin"]

        events = []
        run_campaign(
            _campaign(),
            workers=1,
            chunk_trials=2,
            store=ResultStore.open(path),
            progress=events.append,
        )
        store = ResultStore.open(path)
        assert store.failures() == {}
        assert store.partial_cells() == {}
        assert _canonical(path) == baseline
        # The healthy checkpoints were resumed, not recomputed.
        assert any(event.resumed for event in events)

    def test_per_cell_retry_override_beats_policy(self, tmp_path):
        cell = _cells()[1]
        cell.fault = FaultSpec("raise", {"attempts": None})
        cell.max_chunk_retries = 0
        failures = {}
        run_campaign(
            CampaignSpec(name="chaos", cells=[cell]),
            workers=1,
            chunk_trials=2,
            policy=ExecutionPolicy(max_chunk_retries=5),
            failures=failures,
        )
        assert failures["coin"].attempts == 1


class TestInterrupt:
    def test_ctrl_c_flushes_checkpoints_and_resumes(self, tmp_path, baseline):
        path = tmp_path / "interrupted.json"
        campaign = _campaign()

        seen = []

        def interrupt_after_two(event):
            seen.append(event)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(
                campaign,
                workers=1,
                chunk_trials=2,
                store=ResultStore.open(path),
                progress=interrupt_after_two,
            )
        assert isinstance(excinfo.value, KeyboardInterrupt)
        assert excinfo.value.checkpointed_trials == 4  # two chunks of two
        assert excinfo.value.total_trials == campaign.trials

        # Completed chunks are on disk, no temp/lock residue.
        assert not path.with_name(path.name + ".tmp").exists()
        assert not path.with_name(path.name + ".lock").exists()
        store = ResultStore.open(path)
        assert sum(store.partial_cells().values()) >= 1 or store.cell_names()

        # Resume completes the campaign to the byte-identical artifact.
        events = []
        run_campaign(
            campaign,
            workers=1,
            chunk_trials=2,
            store=ResultStore.open(path),
            progress=events.append,
        )
        assert _canonical(path) == baseline
        assert any(event.resumed for event in events)

    def test_parallel_interrupt_leaks_no_workers(self, tmp_path):
        path = tmp_path / "interrupted.json"

        def interrupt_immediately(event):
            raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted):
            run_campaign(
                _campaign(),
                workers=2,
                chunk_trials=2,
                store=ResultStore.open(path),
                progress=interrupt_immediately,
            )
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()
        assert not path.with_name(path.name + ".lock").exists()


class TestInlineProcessFaults:
    """With ``workers <= 1`` the trials run in the caller's own process, so a
    fault that kills or stalls its process must be refused up front.  The
    CLI runs in a subprocess: a run that is not refused cannot take pytest
    down with it."""

    @pytest.mark.parametrize("fault", ["exit", "sigkill", "hang"])
    def test_cli_refuses_before_the_lock_is_taken(self, tmp_path, fault):
        spec = tmp_path / "chaos.json"
        spec.write_text(_campaign().to_json())
        out = tmp_path / "inline.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "run", str(spec),
             "--workers", "1", "--inject", fault, "--out", str(out), "--quiet"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert f"'{fault}'" in lines[0] and "'bcast'" in lines[0]
        assert not out.exists()
        assert not out.with_name(out.name + ".lock").exists()

    def test_run_campaign_refuses_before_any_trial(self):
        events = []
        with pytest.raises(ExperimentError, match="workers > 1"):
            run_campaign(
                _campaign(FaultSpec("hang", {"chunks": [5]})),
                workers=1,
                progress=events.append,
            )
        assert events == []


class TestLock:
    def test_concurrent_run_on_same_store_fails_fast(self, tmp_path):
        path = tmp_path / "results.json"
        lock = path.with_name(path.name + ".lock")
        lock.write_text(str(os.getpid()))  # a live owner
        with pytest.raises(ExperimentError, match="is locked by"):
            run_campaign(_campaign(), chunk_trials=2, store=ResultStore.open(path))
        lock.unlink()

    def test_stale_lock_from_dead_process_is_stolen(self, tmp_path):
        path = tmp_path / "results.json"
        lock = path.with_name(path.name + ".lock")
        lock.write_text("999999999")  # no such pid
        results = run_campaign(
            _campaign(), chunk_trials=2, store=ResultStore.open(path)
        )
        assert set(results) == {"bcast", "coin"}
        assert not lock.exists()  # released after the run


# ----------------------------------------------------------------------
# run_seeds rides the same supervisor
def _boom_runner(seed, **kwargs):
    raise ValueError(f"boom on seed {seed}")


def _sleepy_runner(seed, **kwargs):
    if seed == 0:
        time.sleep(30)
    from repro.core import api

    return api.run_acast(n=4, seed=seed, value="v")


class TestRunSeedsSupervised:
    def test_exhausted_retries_raise(self):
        with pytest.raises(ExperimentError, match="failed after 1 attempt"):
            run_seeds(
                _boom_runner,
                range(4),
                workers=2,
                chunk_trials=2,
                max_chunk_retries=0,
            )

    def test_timeout_kills_hung_chunk(self):
        with pytest.raises(ExperimentError, match="timeout"):
            run_seeds(
                _sleepy_runner,
                range(4),
                workers=2,
                chunk_trials=1,
                trial_timeout_s=0.2,
                max_chunk_retries=0,
            )
