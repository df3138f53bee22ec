"""What a process imports: numpy only for a plan that vectorises, and the
analysis reports only when something asks for them.

The import checks run in a clean interpreter, since the test process has
long since imported everything.  The campaign and ``validate`` checks run
here and read the process-wide plan cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.core.config import DEFAULT_PRIME
from repro.crypto import kernels
from repro.experiments.cli import main
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import run_campaign
from repro.experiments.spec import CampaignSpec, ExperimentSpec


def _run_clean(script: str) -> str:
    """Run ``script`` in a fresh interpreter that can import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_four_party_process_never_imports_numpy():
    """Importing the library, the service and the runner, a 4-party coin and
    a 4-party beacon request leave numpy out; an n=8 SVSS trial loads it
    where it is importable."""
    out = _run_clean(
        """
        import importlib.util
        import sys

        import repro
        import repro.experiments.runner
        import repro.service
        from repro.core import api
        from repro.service import BeaconRequest, cold_payload
        from repro.service.shard import ShardState

        assert api.run_weak_coin(n=4, seed=3).outputs
        request = BeaconRequest(protocol="weak_coin", n=4, seed=5)
        payload, warm = ShardState(0).execute(request)
        assert payload == cold_payload(request) and not warm
        assert "numpy" not in sys.modules, "numpy loaded below n = 7"
        if importlib.util.find_spec("numpy") is None:
            print("no numpy")
        else:
            api.run_svss(n=8, secret=7, seed=1)
            assert "numpy" in sys.modules, "an n=8 SVSS trial did not vectorise"
            print("loaded")
        """
    )
    assert out == ("loaded" if kernels.numpy_module() is not None else "no numpy")


def test_the_protocols_do_not_load_the_analysis_reports():
    out = _run_clean(
        """
        import sys

        import repro.protocols

        print(sorted(name for name in sys.modules if name.startswith("repro.analysis")))
        """
    )
    assert "repro.analysis.ablation" not in out and "repro.analysis.claims" not in out
    assert "repro.analysis.binomial" in out


def test_the_observability_plane_does_not_load_the_campaign_runner():
    """``repro.obs`` checks what it emits against the one schema
    (``repro.schema``), which sits below the experiments package."""
    out = _run_clean(
        """
        import sys

        import repro.obs

        print(sorted(name for name in sys.modules if name.startswith("repro.experiments")))
        print("multiprocessing" in sys.modules)
        """
    )
    assert out.splitlines() == ["[]", "False"]


def test_an_invariant_checked_trial_does_not_load_the_ablation_harness():
    """The delivery envelope needs the message prediction, which lives in
    ``analysis.complexity``, beside the formulas it wraps."""
    out = _run_clean(
        """
        import sys

        from repro.experiments.runner import CellExecutor
        from repro.experiments.spec import ExperimentSpec

        cell = ExperimentSpec("ambush", "weak_coin", 4, [3], scenario="dealer-ambush")
        executor = CellExecutor(cell)
        assert executor.check_invariants
        executor.run(3)
        print(sorted(name for name in sys.modules if name.startswith("repro.analysis")))
        """
    )
    assert "repro.analysis.complexity" in out
    assert "repro.analysis.ablation" not in out and "repro.analysis.claims" not in out


def test_every_analysis_export_is_importable_from_the_package():
    import repro.analysis as analysis

    for name in analysis.__all__:
        namespace: dict = {}
        exec(f"from repro.analysis import {name}", namespace)
        module = sys.modules[f"repro.analysis.{analysis._HOMES[name]}"]
        assert namespace[name] is getattr(module, name)


def test_a_campaign_builds_its_plans_before_its_workers_fork(monkeypatch):
    """The n=8 cell's plan is in the parent's cache -- vectorised, so numpy
    is loaded, where numpy is importable -- when the first worker forks."""
    kernels.get_eval_plan.cache_clear()
    at_fork = []
    grow = WorkerPool.grow

    def recording_grow(pool):
        if not at_fork:
            before = kernels.get_eval_plan.cache_info()
            plan = kernels.get_eval_plan(DEFAULT_PRIME, 8)
            hits = kernels.get_eval_plan.cache_info().hits - before.hits
            at_fork.append((hits, plan.mode, "numpy" in sys.modules))
        return grow(pool)

    monkeypatch.setattr(WorkerPool, "grow", recording_grow)
    campaign = CampaignSpec(name="warm", cells=[
        ExperimentSpec("svss-n8", "svss", 8, [1, 2, 3], params={"secret": 7}),
    ])
    results = run_campaign(campaign, workers=2, chunk_trials=1)
    assert results["svss-n8"].trials == 3
    (hits, mode, numpy_loaded), = at_fork
    assert hits == 1, "the first worker forked before the plan was built"
    if kernels.numpy_module() is None:
        assert mode == "scalar"
    else:
        assert mode == "split" and numpy_loaded


def test_validate_builds_no_plan(monkeypatch, tmp_path, capsys):
    """Validating a cell is cheap whatever its n: no evaluation plan."""
    def refuse(plan, prime, n):
        raise AssertionError(f"validate built a plan for n={n}")

    monkeypatch.setattr(kernels.EvalPlan, "__init__", refuse)
    kernels.get_eval_plan.cache_clear()
    path = tmp_path / "big.json"
    CampaignSpec(name="big", cells=[
        ExperimentSpec("svss-big", "svss", 5000, [0], params={"secret": 7}),
        ExperimentSpec("coin-big", "weak_coin", 5000, [0], scenario="dealer-ambush"),
    ]).save(path)
    assert main(["validate", str(path)]) == 0
    assert "2 cells" in capsys.readouterr().out
    assert kernels.get_eval_plan.cache_info().currsize == 0
