"""Loop-matrix equivalence: every run configuration delivers the reference execution.

The network has one delivery loop.  Which of its hooks fire is read off the
run's configuration -- tracing, a metrics registry, a director, the stop
condition -- and none of that may change *what* is delivered: for a given
scheduler and seed, every cell of the matrix below must deliver what the
naive reference loop (``reference_loop.py``) delivers in the same cell --
the same messages in the same order, the same stop step and outputs, the
same error text, the same trace events -- and every cell must agree with
every other.  The hooks must fire as the reference fires them: a director's
``on_step`` at the same steps, reading the same ``network.step_count``, the
registry's samples at the same deliveries.
"""

from __future__ import annotations

import gc
import itertools
from contextlib import nullcontext

import pytest
from reference_loop import reference_loop
from test_queues import SCHEDULER_FACTORIES, _delivery_trace, _scripted_reactive

from repro.adversary.attacks import PointCorruptingBehavior
from repro.adversary.behaviors import CrashBehavior
from repro.core import api
from repro.core.config import ProtocolParams
from repro.errors import SimulationError
from repro.experiments.registry import SCHEDULERS as REGISTERED
from repro.experiments.registry import build_scheduler
from repro.experiments.spec import SchedulerSpec
from repro.net.process import Process
from repro.net.queues import ClassRankQueue, FanoutEntry
from repro.net.runtime import Simulation
from repro.net.scheduler import RandomScheduler, TargetedScheduler, force_scan
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
    """Observes lifecycle events only: it never asks to be woken."""

    wake_step = None

    def __init__(self):
        self.network = None
        #: ``network.step_count`` as read from each ``on_complete``.
        self.completed_at = []
        #: ``(step, network.step_count)`` of each ``on_step`` call.
        self.woken = []

    def attach(self, network):
        self.network = network

    def on_session_open(self, pid, session):
        pass

    def on_complete(self, pid, session):
        self.completed_at.append(self.network.step_count)

    def on_step(self, step):
        self.woken.append((step, self.network.step_count))


class StepDirector(PassiveDirector):
    """Asks to be woken at fixed steps, like a timeline's ``at_step`` entries."""

    def __init__(self, steps):
        super().__init__()
        self.due = sorted(steps)
        self.wake_step = self.due[0]

    def on_step(self, step):
        super().on_step(step)
        self.due = [due for due in self.due if due > step]
        self.wake_step = self.due[0] if self.due else None


class RearmingDirector(PassiveDirector):
    """Re-arms to the very next step every time: woken after each delivery."""

    wake_step = 1

    def on_step(self, step):
        super().on_step(step)
        self.wake_step = step + 1


class CorruptingDirector(StepDirector):
    """Crashes one party from ``on_step``, the way a timeline entry does."""

    def __init__(self, step, pid):
        super().__init__([step])
        self.pid = pid

    def on_step(self, step):
        super().on_step(step)
        process = self.network.processes[self.pid]
        process.corrupt(CrashBehavior.factory()(process))


#: Steps a :class:`StepDirector` wakes at unless a test knows the run's length;
#: the last is the cap of the capped runs, i.e. their final delivery.
WAKE_STEPS = (3, 30, 60)

DIRECTORS = {
    "none": lambda steps: None,
    "passive": lambda steps: PassiveDirector(),
    "steps": StepDirector,
    "every-step": lambda steps: RearmingDirector(),
}


def _expected_wakes(director, steps, delivered):
    """``on_step`` calls owed to ``director`` by a run of ``delivered`` steps."""
    if director == "steps":
        return [(step, step) for step in sorted(steps) if step <= delivered]
    if director == "every-step":
        return [(step, step) for step in range(1, delivered + 1)]
    return []


#: (tracing, registry attached, director kind, stop condition)
CELLS = list(
    itertools.product((True, False), (False, True), sorted(DIRECTORS), ("watch", "until"))
)


@pytest.fixture
def delivered(monkeypatch):
    """Sequence numbers in delivery order, recorded where every loop takes its
    next message: the queue's ``pop_entry`` (what happens to a popped message
    -- the process's routine, or the loop's direct route to a started
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
    pop_entry = queue.pop_entry

    def recording_pop_entry(rng):
        entry, receiver = slot = pop_entry(rng)
        order.append(entry.seq_of(receiver))
        return slot

    queue.pop_entry = recording_pop_entry  # the queue's own pop() calls it


def _on_both_loops(delivered, run):
    """``run()`` on the network's loop, then again on the reference loop."""
    observed = []
    for loop in (nullcontext, reference_loop):
        del delivered[:]
        with loop():
            observed.append(run())
    return observed


def _simulation(scheduler, tracing, registry, director, wake_steps=WAKE_STEPS, **kwargs):
    return Simulation(
        params=ProtocolParams.for_parties(N),
        scheduler=scheduler,
        seed=SEED,
        tracing=tracing,
        keep_events="all" if tracing else False,
        metrics=MetricsRegistry(queue_depth_every=DEPTH_EVERY) if registry else None,
        director=DIRECTORS[director](wake_steps),
        **kwargs,
    )


def _run(sim, stop):
    until = None
    if stop == "until":
        sim.until_saw = []  # the clock as the stop condition reads it

        def until(net):
            sim.until_saw.append(net.step_count)
            return net.all_honest_finished(SESSION)

    return sim.run(SESSION, WeakCommonCoin.factory(), until=until)


def _observed(sim, delivered, *rest):
    """Pops, clock, hook firings and trace of ``sim``'s run, plus ``rest``."""
    network = sim.network
    registry = sim.metrics and sim.metrics.snapshot()["histograms"]
    director = sim.director and (sim.director.completed_at, sim.director.woken)
    trace = network.trace
    events = trace.enabled and (trace.events, trace.summary())
    until_saw = getattr(sim, "until_saw", None)
    return (list(delivered), network.step_count, registry, director, events, until_saw) + rest


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_delivers_the_same_execution(name, delivered):
    full = _run(_simulation(SCHEDULERS[name](), True, False, "none"), "watch").steps
    wake_steps = (3, full // 2, full)  # the last one is the final delivery
    reference = recorded = completed_at = None
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)

        def run():
            sim = _simulation(SCHEDULERS[name](), tracing, registry, director, wake_steps)
            result = _run(sim, stop)
            return _observed(sim, delivered, result.steps, result.outputs), sim, result

        (observed, sim, result), (by_reference, _, _) = _on_both_loops(delivered, run)
        assert observed == by_reference, cell
        order = observed[0]
        assert len(order) == result.steps == result.network.step_count, cell
        if reference is None:
            reference = (order, result.steps, result.outputs)
        assert (order, result.steps, result.outputs) == reference, cell
        # The hooks a cell configures fire in it, whatever else it configures.
        if registry:
            depth = result.metrics["histograms"]["queue_depth"]
            assert depth["count"] == result.steps // DEPTH_EVERY, cell
            completed = result.metrics["histograms"]["completion_step.weak_coin"]
            assert 0 < completed["max"] <= result.steps, cell
            if recorded is None:
                recorded = (depth, completed)
            assert (depth, completed) == recorded, cell
        if director != "none":
            # Lifecycle hooks read a current clock and the director is woken
            # at the steps it asked for.
            if completed_at is None:
                completed_at = sim.director.completed_at
                assert 0 < max(completed_at) <= result.steps, cell
            assert sim.director.completed_at == completed_at, cell
            assert sim.director.woken == _expected_wakes(director, wake_steps, full), cell
        if tracing:
            assert result.trace.messages_delivered == result.steps, cell


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_hits_the_cap_with_the_same_error(name, delivered):
    reference = None
    for tracing, registry, director, stop in CELLS:
        cell = (tracing, registry, director, stop)

        def run():
            sim = _simulation(SCHEDULERS[name](), tracing, registry, director, max_steps=60)
            with pytest.raises(SimulationError) as raised:
                _run(sim, stop)
            return _observed(sim, delivered, str(raised.value)), sim

        (observed, sim), (by_reference, _) = _on_both_loops(delivered, run)
        assert observed == by_reference, cell
        observed = (observed[-1], observed[0], sim.network.step_count)
        if reference is None:
            reference = observed
            assert observed[0] == (
                "run() exceeded 60 deliveries without reaching its stop condition"
            )
            assert observed[2] == 60
        assert observed == reference, cell
        if director != "none":  # woken on the capped delivery too
            assert sim.director.woken == _expected_wakes(director, WAKE_STEPS, 60), cell


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

            def run():
                sim = _simulation(
                    SCHEDULERS[name](), tracing, registry, director, max_steps=cap
                )
                error = again = None
                try:
                    _run(sim, stop)
                except SimulationError as raised:
                    error = str(raised)
                else:
                    # Already over: no delivery is owed, so no cap can be hit.
                    network = sim.network
                    again = (
                        network.run_until_complete(SESSION, max_steps=0)
                        if stop == "watch"
                        else network.run(
                            until=lambda net: net.all_honest_finished(SESSION), max_steps=0
                        )
                    ), network.step_count
                return _observed(sim, delivered, error, again)

            observed, by_reference = _on_both_loops(delivered, run)
            assert observed == by_reference, (cell, case)
            order, step_count, error, again = observed[0], observed[1], *observed[-2:]
            summary = (error, order, step_count)
            assert summary == reference.setdefault(case, summary), (cell, case)
            assert step_count == len(order) == cap, (cell, case)
            if case == "exact":
                assert error is None and again == (0, full), cell
            else:
                assert error == (
                    f"run() exceeded {cap} deliveries without reaching its stop condition"
                ), (cell, case)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_every_cell_counts_the_delivery_whose_handler_raised(name, delivered, monkeypatch):
    """A handler that raises mid-run leaves ``step_count`` at that delivery,
    and the trace holds the events up to and including it."""
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

        def run():
            del calls[:]
            sim = _simulation(SCHEDULERS[name](), tracing, registry, director)
            with pytest.raises(RuntimeError, match="handler failed"):
                _run(sim, stop)
            return _observed(sim, delivered)

        observed, by_reference = _on_both_loops(delivered, run)
        assert observed == by_reference, cell
        observed = observed[:2]
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

        def run():
            sim = _simulation(SCHEDULERS[name](), tracing, registry, director)
            network = sim.build_network()
            for sender in range(N):
                network.submit_broadcast(sender, ("absent",), ("PING", sender))
                network.submit_fanout(sender, ("absent",), "PONG", list(range(N)), skip=sender)
            with pytest.raises(SimulationError) as raised:
                if stop == "watch":
                    network.run_until_complete(("absent",))
                else:
                    network.run(until=lambda net: net.all_honest_finished(("absent",)))
            return _observed(sim, delivered, str(raised.value)), network

        (observed, network), (by_reference, _) = _on_both_loops(delivered, run)
        assert observed == by_reference, cell
        observed = (observed[-1], observed[0], network.step_count)
        if reference is None:
            reference = observed
            assert observed[0] == (
                "network is quiescent but the stop condition is not met "
                "(protocol deadlock)"
            )
            assert observed[2] == N * (2 * N - 1)
        assert observed == reference, cell
        if director != "none":
            woken = network.director.woken
            assert woken == _expected_wakes(director, WAKE_STEPS, N * (2 * N - 1)), cell


def test_step_is_the_same_delivery_as_run(delivered):
    """``while network.step()`` is the loop, one delivery at a time: same order,
    and a director that re-arms to every next step is woken at each one."""

    def flooded(director):
        sim = _simulation(RandomScheduler(), True, True, director)
        network = sim.build_network()
        for sender in range(N):
            network.submit_broadcast(sender, ("absent",), ("PING", sender))
        return sim, network

    def stepped():
        sim, network = flooded("every-step")
        while network.step():
            pass
        assert network.step() is False
        return _observed(sim, delivered)

    every_step = _expected_wakes("every-step", (), N * N)
    observed, by_reference = _on_both_loops(delivered, stepped)
    assert observed == by_reference
    assert len(observed[0]) == observed[1] == N * N
    assert observed[3][1] == every_step

    del delivered[:]
    sim, network = flooded("every-step")
    assert network.run_to_quiescence() == N * N
    assert list(delivered) == observed[0]
    assert sim.director.woken == every_step


# ----------------------------------------------------------------------
# Every registered scheduler builder, on its indexed queue, delivers what the
# reference scan delivers -- fan-outs queued as groups, split by class or key
# once per fan-out -- on an SVSS share-and-reconstruct (broadcasts and
# ROW/POINT fan-outs with a skipped receiver).  Budgets lapse mid-run
# (``BUDGET``: about a third of the trial at that n), so the class-ranked
# queues re-deal their slots while copies of one fan-out sit in different
# classes; the reactive scheduler is scripted to install, expire and clear
# rules.
# ----------------------------------------------------------------------
BUDGET = {4: 12, 16: 200}


def _registered_params(name, n):
    budget = BUDGET[n]
    coalition = list(range(n - (n - 1) // 3, n))
    return {
        "fifo": {},
        "random": {},
        "reactive": None,
        "isolate_party": {"victim": 1, "max_delay_steps": budget},
        "favour_parties": {"favoured": coalition},
        "split_brain": {"group_a": [0, 1], "group_b": [2, 3], "duration": budget},
        "delay_protocol": {"root": "svss", "max_delay_steps": budget},
        "delay_from_parties": {"parties": [0], "max_delay_steps": budget},
        "delay_to_parties": {"parties": [1, 2], "max_delay_steps": budget},
        "targeted_delay": {"victims": [1], "kinds": ["READY"], "max_delay_steps": budget},
        "session_starvation": {"pattern": ["...", "rec", "*"], "max_delay_steps": budget},
        "partition_heal": {
            "group_a": list(range(n // 2)), "group_b": list(range(n // 2, n)),
            "duration": budget,
        },
        "rushing": {"coalition": coalition},
        "message_filter_delay": {
            "predicate": {"senders": [0, 2], "kinds": ["ROW", "POINT", "READY"]},
            "n": n, "max_delay_steps": budget,
        },
    }[name]


def _registered(name, n):
    if name == "reactive":
        return _scripted_reactive(n)
    return build_scheduler(SchedulerSpec(name, _registered_params(name, n)))


def test_every_registered_builder_is_covered():
    for name in REGISTERED.names():
        _registered_params(name, 4)


@pytest.mark.parametrize("n", sorted(BUDGET))
@pytest.mark.parametrize("name", REGISTERED.names())
def test_every_registered_builder_matches_the_reference_scan(
    name, n, delivered, monkeypatch
):
    # Fan-out copies each re-rank re-deals without materialising them.
    redealt = []
    rerank = ClassRankQueue._rerank

    def counting_rerank(self):
        redealt.append(
            sum(slot[0].__class__ is FanoutEntry for q in self._queues for slot in q.slots())
        )
        rerank(self)

    monkeypatch.setattr(ClassRankQueue, "_rerank", counting_rerank)
    observed = []
    for scheduler in (_registered(name, n), force_scan(_registered(name, n))):
        del delivered[:]
        result = api.run_svss(n, secret=5, seed=3, scheduler=scheduler, tracing=False)
        observed.append((list(delivered), result.outputs))
    assert observed[0] == observed[1]
    assert len(observed[0][0]) > 2 * BUDGET[n]  # the budget lapsed mid-run
    if isinstance(_registered(name, n).make_queue(), ClassRankQueue):
        assert max(redealt) > 0


#: Each legacy name's target spec, from the alias's own params.
ALIAS_TARGETS = {
    "isolate_party": lambda p: SchedulerSpec(
        "targeted_delay", {"victims": [p["victim"]], "max_delay_steps": p["max_delay_steps"]}
    ),
    "delay_protocol": lambda p: SchedulerSpec(
        "targeted_delay", {"roots": [p["root"]], "max_delay_steps": p["max_delay_steps"]}
    ),
    "favour_parties": lambda p: SchedulerSpec("rushing", {"coalition": p["favoured"]}),
    "split_brain": lambda p: SchedulerSpec("partition_heal", p),
}


@pytest.mark.parametrize("n", sorted(BUDGET))
@pytest.mark.parametrize("name", sorted(ALIAS_TARGETS))
def test_every_alias_delivers_as_its_target(name, n, delivered):
    params = _registered_params(name, n)
    observed = []
    for spec in (SchedulerSpec(name, params), ALIAS_TARGETS[name](params)):
        del delivered[:]
        scheduler = build_scheduler(spec)
        result = api.run_svss(n, secret=5, seed=3, scheduler=scheduler, tracing=False)
        observed.append((list(delivered), result.outputs))
    assert observed[0] == observed[1]


def test_equal_but_distinct_keys_keep_key_then_send_order():
    """``0``, ``0.0`` and ``False`` are one key: the keyed queue delivers them
    in send order among themselves, as the scan's ``(key, seq)`` minimum does."""
    keys = (0, 0.0, False, 1, 1.0, True, -0.0)

    def priority(message):
        return keys[(message.seq * 5 + message.receiver) % len(keys)]

    fast = _delivery_trace(TargetedScheduler(priority), 2)
    assert fast == _delivery_trace(force_scan(TargetedScheduler(priority)), 2)


# ----------------------------------------------------------------------
# The delivery loop hands a fan-out copy straight to a started instance and
# leaves every other case to ``Process.deliver_parts``.  In the cells below
# that routine must be taken mid-run, for the reason named, traced or not, and
# the run must still be the reference loop's (which delivers whole Messages
# through ``Process.deliver``): same order, outputs and drop counts.  (The
# test's name predates the single loop: the reference loop is what it calls
# the generic one.)  The route rule: a receiver with a delivery hook, an
# instance that has not started, or one created at or after the receiver's
# first shun (a sender may be shunned for it) needs the routine.
def _why_not_direct(process, sender, session):
    if process.deliver_hook is not None:
        return "hook"
    instance = process.protocols.get(session)
    if instance is None or not instance.started:
        return "not-started"
    if process._shunned_from and instance.birth_index >= process._shun_floor:
        if sender in process._shunned_from:
            return "shunned-sender"
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


def _corrupt_one_mid_run(sim):
    # Party 6 is honest for 150 deliveries, then crashed from ``on_step``.
    sim.director = CorruptingDirector(150, 6)


def _shun_one(sim):
    # Party 0 starts out shunning (honest) party 3: every session is "later".
    sim.build_network().processes[0].shun(3, SESSION)


def _honest_running_one(sim):
    # Party 6 runs the honest protocol and only mutates its POINTs: no hook.
    sim.corrupt(6, PointCorruptingBehavior.factory())


class ShunningDirector(StepDirector):
    """Makes party 0 shun (honest) party 3 from ``on_step``, mid-run."""

    def on_step(self, step):
        super().on_step(step)
        self.network.processes[0].shun(3, SESSION)


def _shun_one_mid_run(sim):
    # Sessions party 0 created before step 150 keep the direct route.
    sim.director = ShunningDirector([150])


#: name -> (set-up, run, why deliver_parts must be called)
SLOW_PATH_CELLS = {
    "corrupted-party": (
        _corrupt_one,
        lambda sim: sim.run(SESSION, WeakCommonCoin.factory()),
        {"hook", "not-started"},
    ),
    "corrupted-mid-run": (
        _corrupt_one_mid_run,
        lambda sim: sim.run(SESSION, WeakCommonCoin.factory()),
        {"hook", "not-started"},
    ),
    "honest-running-behavior": (
        _honest_running_one,
        lambda sim: sim.run(SESSION, WeakCommonCoin.factory()),
        {"not-started"},
    ),
    "shun-map": (
        _shun_one,
        lambda sim: sim.run(SESSION, WeakCommonCoin.factory()),
        {"not-started", "shunned-sender", "other-sender-while-shunning"},
    ),
    "shun-mid-run": (
        _shun_one_mid_run,
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

    observed, why = {}, {}
    for loop, tracing, scheduler in (
        ("reference", True, None),
        ("scan", False, force_scan(RandomScheduler())),
        ("traced", True, None),
        ("untraced", False, None),
    ):
        del delivered[:], reasons[:]
        sim = Simulation(
            params=ProtocolParams.for_parties(N), seed=SEED, tracing=tracing,
            scheduler=scheduler,
        )
        set_up(sim)
        with reference_loop() if loop == "reference" else nullcontext():
            result = run(sim)
        stats = result.message_stats
        observed[loop] = (
            list(delivered), result.steps, result.outputs,
            stats["messages_sent"], stats["messages_dropped"],
            sim.director and (sim.director.woken, sim.director.completed_at),
        )
        why[loop] = list(reasons)
    assert observed["untraced"] == observed["traced"] == observed["scan"] == observed["reference"]
    # One route: the reference loop hands every popped Message to deliver(),
    # which is deliver_parts with the Message as its own one-copy entry; the
    # scan queue's Messages are popped as such copies and take the loop's
    # route like any other.
    assert len(why["reference"]) == observed["reference"][1]
    assert why["scan"] == why["traced"] == why["untraced"]
    # deliver_parts was needed for each reason the cell is about, traced or
    # not, and never called for a copy the loop could have handed over itself.
    assert set(why["untraced"]) == expected_reasons
    if name == "shun-map":
        assert observed["reference"][4] > 0  # drops, live and at replay
    if name == "corrupted-mid-run":
        assert observed["reference"][5][0] == [(150, 150)]
        assert 6 not in observed["reference"][2] and observed["reference"][1] > 150


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
