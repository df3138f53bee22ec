"""Loop-matrix equivalence: every run configuration delivers the same execution.

The network has one generic delivery loop and one specialisation of it (the
unmaterialised loop of unobserved runs).  Which one runs, and which hooks the
generic one calls, is read off the run's configuration -- tracing, a metrics
registry, a director -- and none of that may change *what* is delivered: for a
given scheduler and seed, every cell of the matrix below must deliver the same
messages in the same order, stop at the same step with the same outputs, and
fail with the same error text.  The hooks themselves must fire in every cell
that configures them.
"""

from __future__ import annotations

import itertools

import pytest
from test_queues import SCHEDULER_FACTORIES

from repro.core.config import ProtocolParams
from repro.errors import SimulationError
from repro.net.process import Process
from repro.net.runtime import Simulation
from repro.net.scheduler import RandomScheduler, force_scan
from repro.obs.metrics import MetricsRegistry
from repro.protocols.weak_coin import WeakCommonCoin

N = 7
SEED = 5
SESSION = ("weak_coin",)
DEPTH_EVERY = 8

SCHEDULERS = {
    name: SCHEDULER_FACTORIES[name]
    for name in ("random", "fifo", "targeted", "delay_expiring", "partition", "reactive")
}
SCHEDULERS["force_scan"] = lambda: force_scan(RandomScheduler())


class PassiveDirector:
    """Observes lifecycle events only; the loop owes it no per-delivery call."""

    wants_deliveries = False

    def __init__(self):
        self.completions = 0
        self.deliveries = []

    def on_session_open(self, pid, session):
        pass

    def on_complete(self, pid, session):
        self.completions += 1

    def on_deliver(self, step, message):
        self.deliveries.append((step, message.seq))


class DeliveryDirector(PassiveDirector):
    wants_deliveries = True


DIRECTORS = {"none": lambda: None, "passive": PassiveDirector, "deliveries": DeliveryDirector}

#: (tracing, registry attached, director kind, stop condition)
CELLS = list(
    itertools.product((True, False), (False, True), sorted(DIRECTORS), ("watch", "until"))
)


@pytest.fixture
def delivered(monkeypatch):
    """Sequence numbers in delivery order, recorded below both loops."""
    order = []
    deliver, deliver_parts = Process.deliver, Process.deliver_parts

    def recording_deliver(self, message):
        order.append(message.seq)
        deliver(self, message)

    def recording_deliver_parts(self, sender, session, payload, entry, receiver):
        order.append(entry.materialize(receiver).seq)
        deliver_parts(self, sender, session, payload, entry, receiver)

    monkeypatch.setattr(Process, "deliver", recording_deliver)
    monkeypatch.setattr(Process, "deliver_parts", recording_deliver_parts)
    return order


def _simulation(scheduler, tracing, registry, director, **kwargs):
    return Simulation(
        params=ProtocolParams.for_parties(N),
        scheduler=scheduler,
        seed=SEED,
        tracing=tracing,
        metrics=MetricsRegistry(queue_depth_every=DEPTH_EVERY) if registry else None,
        director=DIRECTORS[director](),
        **kwargs,
    )


def _run(sim, stop):
    until = None if stop == "watch" else (lambda net: net.all_honest_finished(SESSION))
    return sim.run(SESSION, WeakCommonCoin.factory(), until=until)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_delivers_the_same_execution(name, delivered):
    reference = recorded = None
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)
        del delivered[:]
        sim = _simulation(SCHEDULERS[name](), tracing, registry, director)
        result = _run(sim, stop)
        order = list(delivered)
        assert len(order) == result.steps == result.network.step_count, cell
        observed = (order, result.steps, result.outputs)
        if reference is None:
            reference = observed
        assert observed == reference, cell
        # The hooks a cell configures fire in it, whichever loop ran.
        if registry:
            depth = result.metrics["histograms"]["queue_depth"]
            assert depth["count"] == result.steps // DEPTH_EVERY, cell
            completed = result.metrics["histograms"]["completion_step.weak_coin"]
            assert 0 < completed["max"] <= result.steps, cell
            if recorded is None:
                recorded = (depth, completed)
            assert (depth, completed) == recorded, cell
        if director != "none":
            assert sim.director.completions > 0, cell
            expected = (
                list(enumerate(order, start=1)) if director == "deliveries" else []
            )
            assert sim.director.deliveries == expected, cell
        if tracing:
            assert result.trace.messages_delivered == result.steps, cell


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_hits_the_cap_with_the_same_error(name, delivered):
    reference = None
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)
        del delivered[:]
        sim = _simulation(SCHEDULERS[name](), tracing, registry, director, max_steps=60)
        with pytest.raises(SimulationError) as raised:
            _run(sim, stop)
        observed = (str(raised.value), list(delivered), sim.network.step_count)
        if reference is None:
            reference = observed
            assert observed[0] == (
                "run() exceeded 60 deliveries without reaching its stop condition"
            )
            assert observed[2] == 60
        assert observed == reference, cell


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_reports_deadlock_with_the_same_error(name, delivered):
    """Nobody hosts the watched session: the sends drain, then nothing can move."""
    reference = None
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)
        del delivered[:]
        network = _simulation(SCHEDULERS[name](), tracing, registry, director).build_network()
        for sender in range(N):
            network.submit_broadcast(sender, ("absent",), ("PING", sender))
            network.submit_fanout(sender, ("absent",), "PONG", list(range(N)), skip=sender)
        with pytest.raises(SimulationError) as raised:
            if stop == "watch":
                network.run_until_complete(("absent",))
            else:
                network.run(until=lambda net: net.all_honest_finished(("absent",)))
        observed = (str(raised.value), list(delivered), network.step_count)
        if reference is None:
            reference = observed
            assert observed[0] == (
                "network is quiescent but the stop condition is not met "
                "(protocol deadlock)"
            )
            assert observed[2] == N * (2 * N - 1)
        assert observed == reference, cell


def test_step_is_the_same_delivery_as_run(delivered):
    """``while network.step()`` is the loop, one delivery at a time: same order,
    and a director that wants deliveries is told of each one."""

    def flooded(director):
        sim = _simulation(RandomScheduler(), True, True, director)
        network = sim.build_network()
        for sender in range(N):
            network.submit_broadcast(sender, ("absent",), ("PING", sender))
        return sim, network

    sim, network = flooded("deliveries")
    while network.step():
        pass
    assert network.step() is False
    stepped = list(delivered)
    assert len(stepped) == network.step_count == N * N
    assert sim.director.deliveries == list(enumerate(stepped, start=1))

    del delivered[:]
    sim, network = flooded("deliveries")
    assert network.run_to_quiescence() == N * N
    assert list(delivered) == stepped
    assert sim.director.deliveries == list(enumerate(stepped, start=1))
