"""Characterisation of the three known non-terminating trials (ROADMAP item 1).

At n=16 the ``restart-storm`` scenario ends in ``SimulationError: network is
quiescent`` on roughly one trial seed in 80, and ``tamper-on-share`` does the
same on roughly one in 1 500; the perf ledger tripped over the seeds below and
passes them over (``ScenarioMixN16.run_attack``).  Neither adversary exceeds
the model on its face -- the restarts hit only the coalition the budget paid
for, the tampering parties are within ``t`` -- so each is an honest party
denied termination until shown otherwise; explaining and fixing them is
ROADMAP item 1(a) and 1(b).

Until then these tests pin *what happens*: the error, the delivery count at
which the network runs dry and which honest parties are left without an
output.  All three are functions of the delivery order, so a queue or loop
rewrite that perturbs it trips here first -- the trials run untraced, i.e. on
the network's unmaterialised loop with a director installed -- and the
eventual fix flips these assertions on purpose rather than by accident.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import CellExecutor
from repro.experiments.spec import ExperimentSpec
from repro.scenarios.library import get_scenario

N = 16

#: (scenario, trial seed) -> (deliveries made when the network ran dry,
#: honest parties that never output).
QUIESCENT = {
    ("restart-storm", 1045604035): (10756, [6]),
    ("restart-storm", 2045224945): (10880, [10]),
    ("tamper-on-share", 290454012): (12272, [1]),
}


def _executor(scenario):
    return CellExecutor(
        ExperimentSpec(
            name=scenario,
            protocol=get_scenario(scenario).protocol,
            n=N,
            seeds=[0],
            scenario=scenario,
            params={"tracing": False},
        )
    )


@pytest.fixture(scope="module")
def executors():
    return {scenario: _executor(scenario) for scenario, _ in QUIESCENT}


@pytest.mark.parametrize("scenario,seed", sorted(QUIESCENT))
def test_trial_runs_dry(executors, scenario, seed):
    steps, stuck = QUIESCENT[scenario, seed]
    executor = executors[scenario]
    # ``CellExecutor.run`` from its public parts, keeping hold of the director
    # (and through it the network) that the raised error does not carry.
    runtime = executor.scenario_runtime
    director = runtime.build_director()
    with pytest.raises(SimulationError, match="network is quiescent"):
        executor.runner(
            n=N,
            seed=seed,
            scheduler=runtime.build_scheduler(),
            corruptions=executor.corruptions or None,
            director=director,
            session_table=executor.session_table,
            **executor.kwargs,
        )
    network = director.network
    assert network.pending == []
    assert network.step_count == steps
    session = network.root_recipe[0]
    finished = network.honest_outputs(session)
    assert sorted(set(network.honest_pids()) - set(finished)) == stuck
