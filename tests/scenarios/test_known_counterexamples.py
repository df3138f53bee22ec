"""Characterisation of the two known non-terminating trials (ROADMAP item 5).

At n=16 the ``restart-storm`` scenario ends in ``SimulationError: network is
quiescent`` on roughly one trial seed in 80; the perf ledger tripped over the
two seeds below and passes them over (``ScenarioMixN16.run_attack``).  Whether
the adversary there exceeds the model (a restart that loses state is a
Byzantine fault to be charged to the ``t < n/3`` budget) or the implementation
violates almost-sure termination is ROADMAP item 5's to triage.

Until then these tests pin *what happens*: the error, the delivery count at
which the network runs dry and which honest parties are left without an
output.  All three are functions of the delivery order, so a queue or loop
rewrite that perturbs it trips here first -- and the eventual fix flips these
assertions on purpose rather than by accident.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.experiments.runner import CellExecutor
from repro.experiments.spec import ExperimentSpec
from repro.scenarios.library import get_scenario

N = 16

#: trial seed -> (deliveries made when the network ran dry, honest parties
#: that never output).
QUIESCENT = {
    1045604035: (10756, [6]),
    2045224945: (10880, [10]),
}


@pytest.fixture(scope="module")
def executor():
    return CellExecutor(
        ExperimentSpec(
            name="restart-storm",
            protocol=get_scenario("restart-storm").protocol,
            n=N,
            seeds=[0],
            scenario="restart-storm",
            params={"tracing": False},
        )
    )


@pytest.mark.parametrize("seed", sorted(QUIESCENT))
def test_restart_storm_runs_dry(executor, seed):
    steps, stuck = QUIESCENT[seed]
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
