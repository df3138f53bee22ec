"""An owned trial is freed, not collected.

:meth:`CellExecutor.trial` keeps the cyclic collector paused from the
world's build to :meth:`SimulationResult.release`, which breaks the world's
reference cycles: reference counting frees it, so nothing is left for the
collector.  A released result reads as the live one did, and a party seeds
its random source only when it first draws.
"""

from __future__ import annotations

import collections
import gc

import pytest

from repro.adversary.attacks import DeterministicValueDealer
from repro.core import api
from repro.core.results import TrialAggregate
from repro.experiments.registry import RUNNERS
from repro.experiments.runner import CellExecutor
from repro.experiments.spec import ExperimentSpec
from repro.service.requests import BeaconRequest, canonical_payload
from repro.service.shard import ShardState

#: Params a runner needs at n=4, beyond its defaults.
PARAMS = {
    "aba": {"inputs": {"0": 1, "1": 0, "2": 1, "3": 0}},
    "acast": {"value": "v"},
    "coinflip": {"rounds": 1},
    "common_subset": {"ready_parties": [0, 1, 2]},
    "fair_choice": {"m": 3},
    "fba": {"inputs": {"0": 1, "1": 0, "2": 1, "3": 0}, "coinflip_rounds": 1},
    "svss": {"secret": 5},
    "weak_coin": {},
}

CELLS = {
    **{name: {"protocol": name, "n": 4, "params": PARAMS[name]} for name in sorted(PARAMS)},
    "director": {"protocol": "weak_coin", "n": 7, "scenario": "restart-storm"},
    "scheduler": {
        "protocol": "weak_coin", "n": 4,
        "scheduler": {"scheduler": "isolate_party", "params": {"victim": 2, "max_delay_steps": 40}},
    },
}


def executor(name):
    return CellExecutor(ExperimentSpec.from_dict({"name": name, "seeds": [0], **CELLS[name]}))


def test_every_runner_is_covered():
    assert sorted(RUNNERS.names()) == sorted(PARAMS)


def _leftovers(run):
    """Cyclic garbage left once ``run()``'s trial is released and dropped."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = collections.Counter(type(item).__name__ for item in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found, kinds


@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_released_trial_leaves_no_cyclic_garbage(name):
    cell = executor(name)

    def trial():
        with cell.trial(0):
            pass

    trial()  # a first trial may import modules, whose objects sit on cycles
    found, kinds = _leftovers(trial)
    assert found == 0, kinds.most_common(12)
    # Unreleased, the same world is cyclic garbage: the check can see one.
    found, _ = _leftovers(lambda: cell.run(0))
    assert found > 0


@pytest.mark.parametrize("name", sorted(CELLS))
def test_a_released_result_reads_as_the_live_one(name):
    cell = executor(name)
    live = cell.run(0)
    live_aggregate = TrialAggregate()
    live_aggregate.add(live)
    released = cell.run(0)
    released.release()
    released.release()  # idempotent
    aggregate = TrialAggregate()
    aggregate.add(released)
    assert released.outputs == live.outputs
    assert released.steps == live.steps
    assert released.message_stats == live.message_stats
    assert canonical_payload(released) == canonical_payload(live)
    assert aggregate.to_dict() == live_aggregate.to_dict()
    with cell.trial(0) as owned:
        assert canonical_payload(owned) == canonical_payload(live)
    assert owned.network.processes[0].protocols == {}


def test_the_collector_is_paused_for_the_trial_and_restored_after():
    cell = executor("weak_coin")
    assert gc.isenabled()
    with cell.trial(0):
        assert not gc.isenabled()
    assert gc.isenabled()
    gc.disable()
    try:
        with cell.trial(0):
            pass
        assert not gc.isenabled()  # a host running without it stays so
    finally:
        gc.enable()


#: Passes over a test's requests before counting.  The first fills the
#: interpreter's free lists, which the full collection before it empties:
#: until they hold a request's peak, its transient containers count as
#: fresh allocations toward generation 0.  (A fair choice draws so many
#: coins that distinct requests take ~1 750 to reach its peaks; replayed
#: ones reach them at once.)  svss's counts settle on the second pass.
WARM_PASSES = {"svss": 2}


@pytest.mark.parametrize("protocol", sorted(PARAMS))
def test_the_collector_never_runs_during_shard_requests(protocol):
    """A shard replaying 200 requests it has served runs no collection."""
    state = ShardState(0)
    requests = [
        BeaconRequest(protocol=protocol, n=4, seed=seed, params=dict(PARAMS[protocol]))
        for seed in range(200)
    ]
    gc.collect()
    for request in requests * WARM_PASSES.get(protocol, 1):
        state.execute(request)
    gc.collect(0)  # zero generation 0's count; the free lists stay full
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.callbacks.append(count)
    try:
        for request in requests:
            state.execute(request)
    finally:
        gc.callbacks.remove(count)
    assert runs == []


def test_an_oracle_coin_agreement_seeds_no_party_random():
    result = api.run_aba(4, {0: 1, 1: 0, 2: 1, 3: 0}, seed=3)
    assert result.outputs
    assert all(process._rng is None for process in result.network.processes)
    # A weak coin's parties all deal, so each draws.
    coin = api.run_weak_coin(4, seed=3)
    assert all(process._rng is not None for process in coin.network.processes)


def test_a_partys_source_is_the_one_its_seed_names():
    import random

    result = api.run_aba(4, {0: 1, 1: 0, 2: 1, 3: 0}, seed=3)
    master = random.Random(3)
    master.getrandbits(64)  # the scheduler's
    for process in result.network.processes:
        expected = random.Random(master.getrandbits(64))
        assert process.rng.random() == expected.random()
        protocol = next(iter(process.protocols.values()))
        assert protocol.rng is process.rng


def test_a_rigged_randrange_still_rigs():
    for value in (0, 1):
        result = api.run_weak_coin(
            4, seed=5, corruptions={3: lambda process: DeterministicValueDealer(value)}
        )
        rng = result.network.processes[3].rng
        assert [rng.randrange(2) for _ in range(20)] == [value] * 20
        assert result.network.processes[0].rng.randrange is not rng.randrange
