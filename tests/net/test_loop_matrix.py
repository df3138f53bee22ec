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

import gc
import itertools

import pytest
from test_queues import SCHEDULER_FACTORIES

from repro.adversary.behaviors import CrashBehavior
from repro.core import api
from repro.core.config import ProtocolParams
from repro.errors import SimulationError
from repro.net.process import Process
from repro.net.runtime import Simulation
from repro.net.scheduler import RandomScheduler, force_scan
from repro.obs.metrics import MetricsRegistry
from repro.protocols.aba import OracleCoinSource
from repro.protocols.fba import FairByzantineAgreement
from repro.protocols.svss import SVSSRec
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
    """Sequence numbers in delivery order, recorded where both loops take their
    next message: the queue's pop (what happens to a popped message -- the
    process's routine, or the unmaterialised loop's direct route to a started
    instance -- differs per loop and per message)."""
    order = []
    build_network = Simulation.build_network

    def recording_build_network(self):
        fresh = self.network is None
        network = build_network(self)
        if fresh:
            _record_pops(network._queue, order)
        return network

    monkeypatch.setattr(Simulation, "build_network", recording_build_network)
    return order


def _record_pops(queue, order):
    if hasattr(queue, "pop_entry"):
        pop_entry = queue.pop_entry

        def recording_pop_entry(rng):
            entry, receiver = pop_entry(rng)
            order.append(entry.seq if receiver < 0 else entry.materialize(receiver).seq)
            return entry, receiver

        queue.pop_entry = recording_pop_entry  # the queue's own pop() calls it
    else:
        pop = queue.pop

        def recording_pop(rng, step):
            message = pop(rng, step)
            order.append(message.seq)
            return message

        queue.pop = recording_pop


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
def test_every_cell_agrees_at_the_cap_boundaries(name, delivered):
    """The cap is an error only while the stop condition is unmet: a run that
    completes on exactly the ``max_steps``-th delivery returns, one delivery
    fewer raises, and ``max_steps=0`` raises unless the run is already over."""
    full = _run(_simulation(SCHEDULERS[name](), True, False, "none"), "watch").steps
    reference = {}
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)
        for case, cap in (("exact", full), ("one-short", full - 1), ("zero", 0)):
            del delivered[:]
            sim = _simulation(SCHEDULERS[name](), tracing, registry, director, max_steps=cap)
            error = None
            try:
                result = _run(sim, stop)
            except SimulationError as raised:
                error = str(raised)
            observed = (error, list(delivered), sim.network.step_count)
            assert observed == reference.setdefault(case, observed), (cell, case)
            assert sim.network.step_count == len(observed[1]) == cap, (cell, case)
            if case == "exact":
                assert error is None and result.steps == full, cell
                # Already over: no delivery is owed, so no cap can be hit.
                network = sim.network
                again = (
                    network.run_until_complete(SESSION, max_steps=0)
                    if stop == "watch"
                    else network.run(
                        until=lambda net: net.all_honest_finished(SESSION), max_steps=0
                    )
                )
                assert (again, network.step_count) == (0, full), cell
            else:
                assert error == (
                    f"run() exceeded {cap} deliveries without reaching its stop condition"
                ), (cell, case)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_counts_the_delivery_whose_handler_raised(name, delivered, monkeypatch):
    """A handler that raises mid-run leaves ``step_count`` at that delivery."""
    calls = []
    on_message = SVSSRec.on_message

    def failing_on_message(self, sender, payload):
        calls.append(sender)
        if len(calls) == 40:
            raise RuntimeError("handler failed")
        on_message(self, sender, payload)

    monkeypatch.setattr(SVSSRec, "on_message", failing_on_message)
    reference = None
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)
        del delivered[:], calls[:]
        sim = _simulation(SCHEDULERS[name](), tracing, registry, director)
        with pytest.raises(RuntimeError, match="handler failed"):
            _run(sim, stop)
        observed = (list(delivered), sim.network.step_count)
        if reference is None:
            reference = observed
            assert observed[1] == len(observed[0]) > 40
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


# ----------------------------------------------------------------------
# The unmaterialised loop hands a fan-out copy straight to a started instance
# and leaves every other case to ``Process.deliver_parts``.  In the cells
# below that routine must be taken mid-run, for the reason named, and the run
# must still be the generic loop's: same order, outputs and drop counts.
def _why_not_direct(process, sender, session):
    if process.behavior is not None:
        return "behavior"
    instance = process.protocols.get(session)
    if instance is None or not instance.started:
        return "not-started"
    if sender in process._shunned_from:
        return "shunned-sender"
    if process._shunned_from:
        return "other-sender-while-shunning"
    return "nothing"


def _fba(sim):
    return sim.run(
        ("fba",),
        FairByzantineAgreement.factory(
            coin_source=OracleCoinSource(SEED), coinflip_rounds_override=1
        ),
        inputs={pid: {"value": pid % 2} for pid in range(N)},
    )


def _corrupt_one(sim):
    sim.corrupt(6, CrashBehavior.factory())


def _shun_one(sim):
    # Party 0 starts out shunning (honest) party 3: every session is "later".
    sim.build_network().processes[0].shun(3, SESSION)


#: name -> (set-up, run, why deliver_parts must be called)
SLOW_PATH_CELLS = {
    "corrupted-party": (
        _corrupt_one,
        lambda sim: sim.run(SESSION, WeakCommonCoin.factory()),
        {"behavior", "not-started"},
    ),
    "shun-map": (
        _shun_one,
        lambda sim: sim.run(SESSION, WeakCommonCoin.factory()),
        {"not-started", "shunned-sender", "other-sender-while-shunning"},
    ),
    "late-session": (lambda sim: None, _fba, {"not-started"}),
}


@pytest.mark.parametrize("name", sorted(SLOW_PATH_CELLS))
def test_slow_path_cells_match_the_generic_loop(name, delivered, monkeypatch):
    set_up, run, expected_reasons = SLOW_PATH_CELLS[name]
    reasons = []
    deliver_parts = Process.deliver_parts

    def explaining_deliver_parts(self, sender, session, payload, entry, receiver):
        reasons.append(_why_not_direct(self, sender, session))
        deliver_parts(self, sender, session, payload, entry, receiver)

    monkeypatch.setattr(Process, "deliver_parts", explaining_deliver_parts)

    observed = {}
    for loop, tracing in (("generic", True), ("unmaterialised", False)):
        del delivered[:]
        sim = Simulation(params=ProtocolParams.for_parties(N), seed=SEED, tracing=tracing)
        set_up(sim)
        result = run(sim)
        stats = result.message_stats
        observed[loop] = (
            list(delivered), result.steps, result.outputs,
            stats["messages_sent"], stats["messages_dropped"],
        )
        if loop == "generic":
            assert not reasons  # it delivers whole Messages, through deliver()
    assert observed["unmaterialised"] == observed["generic"]
    # deliver_parts was needed for each reason the cell is about, and never
    # called for a copy the loop could have handed over itself.
    assert set(reasons) == expected_reasons
    if name == "shun-map":
        assert observed["generic"][4] > 0  # drops, live and at replay


def test_an_fba_trial_leaves_few_objects_for_the_collector():
    """Vote state is ints in slotted records, so a finished n=8 trial holds
    under 15 000 GC-tracked objects (it held about 19 800 when every round of
    every BA owned three sets).  Both collector passes a trial pays for --
    the one right after the run and the one that frees the previous trial --
    scale with this number."""
    inputs = {pid: pid % 2 for pid in range(8)}
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = {id(obj) for obj in gc.get_objects()}
        result = api.run_fba(n=8, inputs=inputs, seed=111, coinflip_rounds=1, tracing=False)
        alive = sum(1 for obj in gc.get_objects() if id(obj) not in before)
    finally:
        if enabled:
            gc.enable()
    assert result.agreed_value in (0, 1)
    assert alive < 15_000
