"""Tests for the closed adversary loop: reactive scheduling, restart/tamper
transitions, and the safety-invariant harness."""

from __future__ import annotations

import random

import pytest

from repro.core.results import aggregate
from repro.errors import ExperimentError
from repro.experiments.spec import BehaviorSpec, ExperimentSpec, SchedulerSpec
from repro.net.message import Message
from repro.net.queues import ScanQueue
from repro.net.scheduler import DelayScheduler, TargetedScheduler
from repro.scenarios import run_scenario
from repro.scenarios.invariants import (
    InvariantViolation,
    assert_invariants,
    check_result,
    check_scenario_result,
    default_step_bound,
)
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.schedulers import ReactiveScheduler
from repro.scenarios.spec import (
    AdaptiveRule,
    CorruptionPlan,
    FaultEvent,
    ScenarioSpec,
    validate_scheduler_actions,
    validate_tamper,
)


def _fingerprint(result):
    return (
        result.steps,
        tuple(sorted(result.outputs.items())),
        result.message_stats["messages_sent"],
    )


# ----------------------------------------------------------------------
# Reactive scheduler: the indexed queue must be byte-identical to the
# reference scan in ReactiveScheduler.choose.
# ----------------------------------------------------------------------
class TestReactiveQueueEquivalence:
    @staticmethod
    def _message(sender, kind, seq):
        return Message(sender, (sender + 1) % 8, ("weak_coin",), (kind, seq), seq)

    def _drive(self, queue_factory, seed):
        """Push/pop/apply-actions through a queue; return the delivery order."""
        scheduler = ReactiveScheduler()
        queue = queue_factory(scheduler)
        ops = random.Random(1234)
        rng = random.Random(seed)
        delivered = []
        seq = 0
        step = 0
        for tick in range(400):
            for _ in range(ops.randrange(4)):
                kind = ("POINT", "READY", "RECROW")[ops.randrange(3)]
                queue.push_group(self._message(ops.randrange(8), kind, seq), 8)
                seq += 1
            if tick == 60:
                scheduler.apply_action(
                    {"op": "boost", "predicate": {"senders": [1, 2]}}, 8, step
                )
            if tick == 120:
                scheduler.apply_action(
                    {"op": "delay", "predicate": {"kinds": ["READY"]}, "expires": 80},
                    8,
                    step,
                )
            if tick == 200:
                # Duplicate predicate: refreshes the expiry, not a new rule.
                scheduler.apply_action(
                    {"op": "delay", "predicate": {"kinds": ["READY"]}, "expires": 40},
                    8,
                    step,
                )
            if tick == 300:
                scheduler.apply_action({"op": "clear"}, 8, step)
            while len(queue) and ops.randrange(3):
                delivered.append(queue.pop(rng))
                step += 1
        while len(queue):
            delivered.append(queue.pop(rng))
            step += 1
        return [(m.sender, m.kind, m.seq) for m in delivered]

    def test_indexed_queue_matches_reference_scan(self):
        for seed in range(5):
            indexed = self._drive(lambda s: s.make_queue(), seed)
            scanned = self._drive(ScanQueue, seed)
            assert indexed == scanned

    def test_scenario_trial_matches_reference_scan(self, monkeypatch):
        """The class-ranked and keyed scenarios -- rules installed by a
        director, a partition healing mid-run, a coalition's priority -- on
        their indexed queues and on the reference scan."""
        names = ("reactive-rush", "reactive-starvation", "partition-heal", "rushing-coalition")
        baseline = {
            name: _fingerprint(run_scenario(name, n=8, seed=3, tracing=False))
            for name in names
        }
        for cls in (ReactiveScheduler, DelayScheduler, TargetedScheduler):
            monkeypatch.setattr(cls, "make_queue", lambda self: ScanQueue(self))
        for name, expected in baseline.items():
            assert _fingerprint(run_scenario(name, n=8, seed=3, tracing=False)) == expected

    def test_traced_equals_untraced(self):
        for seed in (0, 5):
            a = _fingerprint(run_scenario("reactive-rush", n=8, seed=seed, tracing=True))
            b = _fingerprint(run_scenario("reactive-rush", n=8, seed=seed, tracing=False))
            assert a == b

    def test_expired_rules_revert_to_uniform(self):
        scheduler = ReactiveScheduler()
        scheduler.apply_action(
            {"op": "boost", "predicate": {"senders": [0]}, "expires": 10}, 4, 0
        )
        assert scheduler.rank(self._message(0, "POINT", 0)) == 0
        scheduler.expire(10)
        assert not scheduler._boosts
        assert scheduler.rank(self._message(0, "POINT", 0)) == 1
        assert scheduler._next_expiry is None

    def test_duplicate_rule_refreshes_without_version_bump(self):
        scheduler = ReactiveScheduler()
        action = {"op": "boost", "predicate": {"senders": [3]}, "expires": 50}
        assert scheduler.apply_action(action, 8, 0) is not None
        version = scheduler.rules_version
        assert scheduler.apply_action(action, 8, 20) is None
        assert scheduler.rules_version == version
        assert scheduler._next_expiry == 70


# ----------------------------------------------------------------------
# Spec round-trips and validation for the new transitions.
# ----------------------------------------------------------------------
class TestRobustnessSpec:
    def _spec(self):
        return ScenarioSpec(
            name="robustness-sink",
            description="restart + tamper + reactive actions",
            protocol="weak_coin",
            params={"inputs": "alternating"},
            corruption=CorruptionPlan(
                budget=2,
                adaptive=[
                    AdaptiveRule(
                        on="complete",
                        pattern=["...", "share", {"pid": True}],
                        scheduler_actions=[
                            {"op": "delay", "predicate": {"senders": "event"}, "expires": 100}
                        ],
                    )
                ],
            ),
            timeline=[
                FaultEvent(transition="crash", select={"last": 1}, at_step=20),
                FaultEvent(transition="restart", select={"last": 1}, at_step=200),
                FaultEvent(
                    transition="tamper",
                    select={"first": 1},
                    at_step=30,
                    tamper={"kinds": ["POINT"], "offset": 5, "drop_fraction": 0.25},
                ),
                FaultEvent(
                    transition="reprioritize",
                    select=[],
                    on={"event": "complete", "pattern": ["...", "share", {"pid": True}], "count": 3},
                    scheduler_actions=[{"op": "boost", "predicate": {"kinds": ["READY"]}}],
                ),
            ],
            scheduler=SchedulerSpec("reactive"),
        )

    def test_round_trip_is_lossless(self):
        spec = self._spec()
        spec.validate()
        same = ScenarioSpec.from_json(spec.to_json())
        assert same.to_dict() == spec.to_dict()
        assert same == spec

    def test_reprioritize_requires_scheduler_actions(self):
        event = FaultEvent(transition="reprioritize", select=[], at_step=5)
        with pytest.raises(ExperimentError, match="needs scheduler_actions"):
            event.validate()

    def test_tamper_requires_tamper_spec(self):
        event = FaultEvent(transition="tamper", select={"first": 1}, at_step=5)
        with pytest.raises(ExperimentError, match="needs a tamper spec"):
            event.validate()

    def test_tamper_spec_only_on_tamper_transitions(self):
        event = FaultEvent(
            transition="crash", select={"first": 1}, at_step=5, tamper={"offset": 1}
        )
        with pytest.raises(ExperimentError, match="only valid"):
            event.validate()

    def test_scheduler_actions_require_a_scheduler(self):
        spec = self._spec()
        spec.scheduler = None
        with pytest.raises(ExperimentError, match='use the "reactive" scheduler'):
            spec.validate()

    def test_validate_tamper_rejects_bad_specs(self):
        with pytest.raises(ExperimentError, match="at least one mutation"):
            validate_tamper({"kinds": ["POINT"]})
        with pytest.raises(ExperimentError, match=r"tamper spec: unknown keys \['bogus'\]"):
            validate_tamper({"offset": 1, "bogus": True})
        with pytest.raises(ExperimentError, match="drop_fraction"):
            validate_tamper({"drop_fraction": 1.5})
        with pytest.raises(ExperimentError, match="'offset' must be a non-zero integer, got 0"):
            validate_tamper({"offset": 0})
        with pytest.raises(ExperimentError, match="rewrite_kind"):
            validate_tamper({"rewrite_kind": ""})

    def test_validate_scheduler_actions_rejects_bad_ops(self):
        with pytest.raises(ExperimentError, match="non-empty list"):
            validate_scheduler_actions([], has_event_pid=True)
        with pytest.raises(ExperimentError, match="op must be one of"):
            validate_scheduler_actions([{"op": "shuffle"}], has_event_pid=True)


# ----------------------------------------------------------------------
# Restart / recover / tamper engine semantics.
# ----------------------------------------------------------------------
class TestRestartSemantics:
    def _actions(self, result, action):
        director = result.network.director
        return [entry for entry in director.actions if entry[1] == action]

    def test_restart_keeps_party_corrupted_for_accounting(self):
        spec = ScenarioSpec(
            name="one-restart",
            protocol="weak_coin",
            timeline=[
                FaultEvent(transition="crash", select={"last": 1}, at_step=15),
                FaultEvent(transition="restart", select={"last": 1}, at_step=60),
            ],
        )
        result = run_scenario(spec, n=4, seed=0, tracing=True)
        restarts = self._actions(result, "restart")
        assert restarts
        pid = restarts[0][2]
        process = result.network.processes[pid]
        assert process.ever_corrupted
        assert not process.is_corrupted  # running honest code again
        assert "no budget refund" in restarts[0][3]

    def test_restart_storm_honest_parties_terminate(self):
        result = run_scenario("restart-storm", n=8, seed=0, tracing=True)
        assert self._actions(result, "restart")
        honest = [p.pid for p in result.network.processes if not p.ever_corrupted]
        assert honest and all(pid in result.outputs for pid in honest)

    def test_restarted_party_recorrupts_for_free(self):
        # crash-recover-crash re-crashes the same party after its restart;
        # with budget t the second corruption must not be budget-blocked.
        result = run_scenario("crash-recover-crash", n=8, seed=0, tracing=True)
        corrupts = self._actions(result, "corrupt")
        restarts = self._actions(result, "restart")
        assert restarts
        assert not self._actions(result, "budget-exhausted")
        pid = restarts[0][2]
        assert sum(1 for entry in corrupts if entry[2] == pid) == 2

    def test_the_aggregate_counts_a_recorrupted_party_once(self):
        # restart-storm at n=7 (t=2) logs four ``corrupt`` actions for its
        # two parties; the corruption_tolerance claim reads the aggregate,
        # so a double count there would refute honest data.
        result = run_scenario("restart-storm", n=7, seed=0, tracing=False)
        parties = {entry[2] for entry in self._actions(result, "corrupt")}
        assert len(self._actions(result, "corrupt")) > len(parties) == 2
        assert aggregate([result]).director_actions["corrupt"] == len(parties)

    def test_recover_skipped_is_audited(self):
        spec = ScenarioSpec(
            name="recover-noop",
            protocol="weak_coin",
            timeline=[FaultEvent(transition="recover", select={"first": 1}, at_step=5)],
        )
        result = run_scenario(spec, n=4, seed=0, tracing=True)
        assert self._actions(result, "recover-skipped")

    def test_silence_skipped_is_audited(self):
        spec = ScenarioSpec(
            name="double-silence",
            protocol="weak_coin",
            timeline=[
                FaultEvent(transition="silence", select={"first": 1}, at_step=5),
                FaultEvent(transition="silence", select={"first": 1}, at_step=10),
            ],
        )
        result = run_scenario(spec, n=4, seed=0, tracing=True)
        assert self._actions(result, "silence")
        assert self._actions(result, "silence-skipped")

    def test_restart_skipped_on_honest_party(self):
        spec = ScenarioSpec(
            name="restart-noop",
            protocol="weak_coin",
            timeline=[FaultEvent(transition="restart", select={"first": 1}, at_step=5)],
        )
        result = run_scenario(spec, n=4, seed=0, tracing=True)
        assert self._actions(result, "restart-skipped")

    def test_tamper_audits_and_spends_budget(self):
        result = run_scenario("tamper-on-share", n=8, seed=0, tracing=True)
        corrupts = self._actions(result, "corrupt")
        assert any("tamper" in entry[3] for entry in corrupts)
        tampered = {entry[2] for entry in corrupts}
        for pid in tampered:
            assert result.network.processes[pid].ever_corrupted

    def test_sinks_without_tracing_rejected(self):
        with pytest.raises(ExperimentError, match="sinks require tracing=True"):
            run_scenario("restart-storm", n=4, seed=0, tracing=False, sinks=[object()])


# ----------------------------------------------------------------------
# A director rides the delivery loop whatever else observes the run.  Every
# queue -- the random queue of a scenario without a scheduler, the
# class-ranked and keyed queues of the three below -- delivers fan-out copies
# from their group entries, traced or not (a traced run logs each copy's
# slot); the attack -- every director action with its step -- and the
# outcome must not depend on the trace.  (The test's name is from when the
# traced and the untraced trial ran on two different loops.)
# ----------------------------------------------------------------------
DIRECTOR_SCENARIOS = sorted(
    name for name in scenario_names() if get_scenario(name).scheduler is None
) + ["partition-heal", "reactive-rush", "rushing-coalition"]


@pytest.mark.parametrize("n", (7, 16))
@pytest.mark.parametrize("name", DIRECTOR_SCENARIOS)
def test_director_trial_is_the_same_on_both_loops(name, n):
    for seed in (0, 1):
        observed = {}
        for tracing in (True, False):
            result = run_scenario(name, n=n, seed=seed, tracing=tracing)
            director = result.network.director
            stats = result.message_stats
            observed[tracing] = (
                result.steps, result.outputs, director.actions,
                stats["messages_sent"], stats["messages_dropped"],
            )
            if tracing:
                assert result.trace.messages_delivered == result.steps
        assert observed[False] == observed[True], seed


def test_the_step_triggered_attacks_are_among_them():
    assert {"restart-storm", "dealer-ambush", "tamper-on-share"} <= set(
        DIRECTOR_SCENARIOS
    )


# ----------------------------------------------------------------------
# Invariant harness.
# ----------------------------------------------------------------------
class _StubProcess:
    def __init__(self, pid, ever_corrupted=False):
        self.pid = pid
        self.ever_corrupted = ever_corrupted


class _StubNetwork:
    def __init__(self, n, corrupted=()):
        self.processes = [_StubProcess(pid, pid in corrupted) for pid in range(n)]
        self.params = type("P", (), {"n": n})()


class _StubResult:
    def __init__(self, n, outputs, steps=100, corrupted=()):
        self.network = _StubNetwork(n, corrupted)
        self.outputs = dict(outputs)
        self.steps = steps


class TestInvariantChecks:
    @staticmethod
    def _kinds(violations):
        return {violation.invariant for violation in violations}

    def test_clean_result_has_no_violations(self):
        result = _StubResult(4, {pid: 1 for pid in range(4)})
        assert check_result(result, "weak_coin", n=4) == []

    def test_budget_violation(self):
        result = _StubResult(4, {0: 1}, corrupted={1, 2, 3})
        assert "budget" in self._kinds(check_result(result, "weak_coin", n=4))

    def test_termination_requires_never_corrupted_outputs(self):
        result = _StubResult(4, {0: 1, 1: 1, 2: 1}, corrupted={1})
        violations = check_result(result, "weak_coin", n=4)
        assert "termination" in self._kinds(violations)
        assert "3" in violations[0].detail or "[3]" in violations[0].detail

    def test_step_bound(self):
        result = _StubResult(4, {pid: 1 for pid in range(4)}, steps=10_000_000)
        violations = check_result(result, "weak_coin", n=4)
        assert "step_bound" in self._kinds(violations)
        assert default_step_bound(4) == 120 * 16

    def test_agreement_is_protocol_aware(self):
        disagreeing = _StubResult(4, {0: 1, 1: 0, 2: 1, 3: 1})
        # A weak coin may disagree; SVSS may not.
        assert "agreement" not in self._kinds(check_result(disagreeing, "weak_coin", n=4))
        assert "agreement" in self._kinds(check_result(disagreeing, "svss", n=4))

    def test_binary_domain(self):
        result = _StubResult(4, {pid: 7 for pid in range(4)})
        assert "validity" in self._kinds(check_result(result, "weak_coin", n=4))

    def test_svss_honest_dealer_secret(self):
        result = _StubResult(4, {pid: 42 for pid in range(4)})
        ok = check_result(result, "svss", n=4, params={"secret": 42, "dealer": 0})
        assert "validity" not in self._kinds(ok)
        bad = check_result(result, "svss", n=4, params={"secret": 41, "dealer": 0})
        assert "validity" in self._kinds(bad)
        # Corrupted dealer: no secret guarantee.
        corrupted = _StubResult(4, {pid: 42 for pid in range(1, 4)}, corrupted={0})
        free = check_result(corrupted, "svss", n=4, params={"secret": 41, "dealer": 0})
        assert "validity" not in self._kinds(free)

    def test_unanimity_validity(self):
        inputs = {pid: 1 for pid in range(4)}
        result = _StubResult(4, {pid: 0 for pid in range(4)})
        violations = check_result(result, "aba", n=4, params={"inputs": inputs})
        assert "validity" in self._kinds(violations)

    def test_assert_invariants_raises_with_context(self):
        result = _StubResult(4, {0: 1}, corrupted={1, 2, 3})
        with pytest.raises(ExperimentError, match="invariant violation in my-cell"):
            assert_invariants(result, "weak_coin", context="my-cell", n=4)

    def test_check_scenario_result_on_real_trial(self):
        spec = get_scenario("tamper-drop-fraction")
        result = run_scenario(spec, n=8, seed=0, tracing=False)
        assert check_scenario_result(spec, result) == []

    def test_violation_str(self):
        violation = InvariantViolation("budget", "too many")
        assert str(violation) == "budget: too many"


# ----------------------------------------------------------------------
# Campaign wiring: invariants default on for scenario cells.
# ----------------------------------------------------------------------
class TestCampaignInvariantWiring:
    def _cell(self, **kwargs):
        base = dict(name="cell", protocol="weak_coin", n=4, seeds=[0])
        base.update(kwargs)
        return ExperimentSpec(**base)

    def test_default_follows_scenario_presence(self):
        from repro.experiments.runner import CellExecutor

        assert CellExecutor(self._cell()).check_invariants is False
        assert CellExecutor(self._cell(scenario="restart-storm")).check_invariants is True
        assert (
            CellExecutor(self._cell(scenario="restart-storm", invariants=False)).check_invariants
            is False
        )
        assert CellExecutor(self._cell(invariants=True)).check_invariants is True

    def test_invariants_field_round_trips(self):
        cell = self._cell(invariants=True)
        again = ExperimentSpec.from_dict(cell.to_dict())
        assert again.invariants is True
        # None (the default) serializes away, keeping existing spec hashes.
        assert "invariants" not in self._cell().to_dict()
        assert self._cell().spec_hash() == ExperimentSpec.from_dict(
            self._cell().to_dict()
        ).spec_hash()

    def test_executor_checks_invariants_on_trials(self):
        from repro.experiments.runner import CellExecutor

        executor = CellExecutor(
            self._cell(
                protocol="aba",
                params={"inputs": "alternating"},
                scenario="late-crash-quorum",
                invariants=True,
            )
        )
        result = executor.run(seed=0)
        assert result.outputs
