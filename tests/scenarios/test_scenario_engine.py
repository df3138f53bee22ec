"""Tests for the scenario engine: directors, budgets, timelines, determinism."""

from __future__ import annotations

import pytest

from repro.core.config import max_faults
from repro.errors import ExperimentError
from repro.experiments.spec import BehaviorSpec, SchedulerSpec
from repro.net.message import Message
from repro.net.scheduler import DelayScheduler
from repro.scenarios.engine import ScenarioRuntime, expand_inputs, run_scenario
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.spec import (
    AdaptiveRule,
    CorruptionPlan,
    FaultEvent,
    ScenarioSpec,
    StaticCorruption,
)


def _fingerprint(result):
    return (result.steps, tuple(sorted(result.outputs.items())), result.trace.messages_sent)


class TestScenarioRuntime:
    def test_scale_preset_supplies_n_and_prime(self):
        runtime = ScenarioRuntime(ScenarioSpec(name="x", scale="n32"))
        assert runtime.n == 32
        assert runtime.prime == 1_000_003
        assert runtime.t == max_faults(32)

    def test_explicit_n_beats_preset(self):
        runtime = ScenarioRuntime(ScenarioSpec(name="x", scale="n32"), n=7)
        assert runtime.n == 7
        # The n32 prime is still valid for n=7 and stays attached.
        assert runtime.prime == 1_000_003

    def test_default_n_is_smoke_scale(self):
        assert ScenarioRuntime(ScenarioSpec(name="x")).n == 4

    def test_static_overbudget_rejected_at_resolution(self):
        spec = ScenarioSpec(
            name="x",
            corruption=CorruptionPlan(static=[
                StaticCorruption(select={"first": 2}, behavior=BehaviorSpec("crash")),
            ]),
        )
        with pytest.raises(ExperimentError):
            ScenarioRuntime(spec, n=4)  # t = 1 at n = 4

    def test_budget_above_t_is_clamped(self):
        spec = ScenarioSpec(name="x", corruption=CorruptionPlan(budget=99))
        director = ScenarioRuntime(spec, n=7).build_director()
        assert director.budget == max_faults(7)

    def test_scheduler_selectors_resolved_against_n(self):
        spec = ScenarioSpec(
            name="x",
            scheduler=SchedulerSpec("partition_heal", {
                "group_a": {"half": "low"},
                "group_b": {"half": "high"},
                "duration": 10,
            }),
        )
        scheduler = ScenarioRuntime(spec, n=6).build_scheduler()
        assert isinstance(scheduler, DelayScheduler)
        assert scheduler.max_delay_steps == 10
        crossing = scheduler.should_delay
        receivers = {
            sender: crossing.receivers(Message(sender, 0, ("p",), ("X",)), 6)
            for sender in range(6)
        }
        assert receivers == {0: {3, 4, 5}, 1: {3, 4, 5}, 2: {3, 4, 5},
                             3: {0, 1, 2}, 4: {0, 1, 2}, 5: {0, 1, 2}}

    def test_expand_inputs(self):
        assert expand_inputs("alternating", 4) == {0: 0, 1: 1, 2: 0, 3: 1}
        assert expand_inputs("half", 4) == {0: 0, 1: 0, 2: 1, 3: 1}
        assert expand_inputs({0: 1}, 4) == {0: 1}
        with pytest.raises(ExperimentError):
            expand_inputs("fibonacci", 4)


class TestAdaptiveCorruption:
    @pytest.mark.parametrize("n", [4, 7, 16])
    def test_budget_never_exceeded(self, n):
        spec = get_scenario("adaptive-budget-burn")
        runtime = ScenarioRuntime(spec, n=n)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        runner = RUNNERS.get(spec.protocol)
        result = runner(n=n, seed=11, director=director)
        t = max_faults(n)
        # The greedy rule wanted to corrupt every dealer; the clamp held at t.
        assert len(director.corrupted) == t
        corrupt_actions = [a for a in director.actions if a[1] == "corrupt"]
        assert len(corrupt_actions) == t
        assert any(action == "budget-exhausted" for _, action, _, _ in director.actions)
        # The run still terminated, with outputs from every still-honest party.
        assert len(result.outputs) == n - t

    def test_explicit_budget_tighter_than_t(self):
        spec = ScenarioSpec(
            name="tight",
            protocol="weak_coin",
            corruption=CorruptionPlan(budget=1, adaptive=[
                AdaptiveRule(
                    on="session_open",
                    pattern=["...", "share", {"pid": True}],
                    behavior=BehaviorSpec("hard_crash"),
                ),
            ]),
        )
        runtime = ScenarioRuntime(spec, n=16)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        RUNNERS.get("weak_coin")(n=16, seed=3, director=director)
        assert len(director.corrupted) == 1

    def test_dealer_ambush_corrupts_the_embedded_dealer(self):
        spec = get_scenario("dealer-ambush")
        runtime = ScenarioRuntime(spec, n=7)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        RUNNERS.get("weak_coin")(n=7, seed=5, director=director)
        corrupt_actions = [a for a in director.actions if a[1] == "corrupt"]
        assert corrupt_actions, "the ambush never fired"
        for step, _, pid, detail in corrupt_actions:
            assert "rule[0]:session_open" in detail
            assert 0 <= pid < 7

    def test_max_firings_caps_a_rule(self):
        spec = ScenarioSpec(
            name="once",
            protocol="weak_coin",
            corruption=CorruptionPlan(adaptive=[
                AdaptiveRule(
                    on="session_open",
                    pattern=["...", "share", {"pid": True}],
                    behavior=BehaviorSpec("hard_crash"),
                    max_firings=1,
                ),
            ]),
        )
        runtime = ScenarioRuntime(spec, n=16)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        RUNNERS.get("weak_coin")(n=16, seed=3, director=director)
        assert len(director.corrupted) == 1

    @pytest.mark.parametrize(
        "behavior, installed, mutator",
        [
            (
                BehaviorSpec("tamper", {"kinds": ["POINT"], "offset": 1}),
                "TamperBehavior",
                "TamperBehavior._build_mutator.<locals>.mutate",
            ),
            (
                BehaviorSpec("silent_after", {"active_deliveries": 10**6}),
                "SilentAfterBehavior",
                None,
            ),
        ],
        ids=["tamper", "silent_after"],
    )
    def test_a_party_running_honest_code_stays_corrupted_in_its_deliveries(
        self, behavior, installed, mutator
    ):
        """Party 0 is statically corrupted by a behaviour that runs the honest
        protocol, and a rule hard-crashes the party at which a ``rec`` session
        opens.  Sessions open at party 0 inside its own deliveries; it must
        read as corrupted there too, so the rule never takes it (nor swaps
        its outgoing mutator for the crash's drop-everything one)."""
        spec = ScenarioSpec(
            name="honest-running",
            protocol="weak_coin",
            corruption=CorruptionPlan(
                static=[StaticCorruption(select=0, behavior=behavior)],
                adaptive=[
                    AdaptiveRule(
                        on="session_open",
                        pattern=["...", "rec", "*"],
                        behavior=BehaviorSpec("hard_crash"),
                        target="subject",
                    ),
                ],
            ),
        )
        result = run_scenario(spec, n=7, seed=1, tracing=False)
        corrupted = [a[2] for a in result.network.director.actions if a[1] == "corrupt"]
        assert corrupted and 0 not in corrupted  # the rule fired, elsewhere
        process = result.network.processes[0]
        assert type(process.behavior).__name__ == installed
        assert getattr(process.outgoing_mutator, "__qualname__", None) == mutator


class TestFaultTimeline:
    def test_step_triggered_crash_spends_budget(self):
        spec = ScenarioSpec(
            name="late-crash",
            protocol="weak_coin",
            timeline=[
                FaultEvent(transition="crash", select={"last_faulty": True}, at_step=30),
            ],
        )
        runtime = ScenarioRuntime(spec, n=7)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        result = RUNNERS.get("weak_coin")(n=7, seed=9, director=director)
        assert director.corrupted == {5, 6}
        # Corruption happened mid-run, not at setup.
        crash_steps = [step for step, action, _, _ in director.actions if action == "corrupt"]
        assert crash_steps and all(step >= 30 for step in crash_steps)
        assert len(result.outputs) == 5

    @pytest.mark.parametrize(
        "tracing", [True, False], ids=["generic-loop", "unmaterialised-loop"]
    )
    def test_step_triggers_fire_at_their_thresholds_in_spec_order(self, tracing):
        """The director names its next wake-up instead of being called per
        delivery: every entry fires on its own threshold's delivery, entries
        sharing one in spec order (timeline before rules), on either loop."""
        spec = ScenarioSpec(
            name="thresholds",
            protocol="weak_coin",
            corruption=CorruptionPlan(adaptive=[
                AdaptiveRule(on="step", at_step=60, target=6,
                             behavior=BehaviorSpec("hard_crash")),
                AdaptiveRule(on="step", at_step=25, target=5,
                             behavior=BehaviorSpec("hard_crash")),
            ]),
            timeline=[
                FaultEvent(transition="recover", select=3, at_step=60),  # a no-op
                FaultEvent(transition="silence", select=2, at_step=20),
                FaultEvent(transition="recover", select=2, at_step=60),
            ],
        )
        director = ScenarioRuntime(spec, n=10).build_director()
        assert director.wake_step == 20
        from repro.experiments.registry import RUNNERS

        result = RUNNERS.get("weak_coin")(n=10, seed=9, director=director, tracing=tracing)
        assert [(step, action, pid) for step, action, pid, _ in director.actions] == [
            (20, "silence", 2),
            (25, "corrupt", 5),
            (60, "recover-skipped", 3),
            (60, "recover", 2),
            (60, "corrupt", 6),
        ]
        assert director.wake_step is None and result.steps > 60

    def test_silence_and_recover_round_trip(self):
        spec = ScenarioSpec(
            name="mute",
            protocol="weak_coin",
            timeline=[
                FaultEvent(transition="silence", select=1, at_step=20),
                FaultEvent(transition="recover", select=1, at_step=60),
            ],
        )
        runtime = ScenarioRuntime(spec, n=4)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        result = RUNNERS.get("weak_coin")(n=4, seed=2, director=director)
        actions = [action for _, action, pid, _ in director.actions if pid == 1]
        assert actions == ["silence", "recover"]
        # Silence is not a corruption: no budget spent, all four still honest.
        assert director.corrupted == set()
        assert len(result.outputs) == 4

    def test_corrupting_a_silenced_party_replaces_the_silence(self, monkeypatch):
        """Corruption installs the behaviour's outgoing side even over a
        silence: a party silenced at step 20 and corrupted at step 25 by a
        behaviour that leaves its messages alone speaks again."""
        from repro.net.network import Network

        sent = []
        for name in ("_submit_fanout", "_submit_survivors"):
            submit = getattr(Network, name)

            def recording(self, sender, *rest, _submit=submit):
                sent.append((self.step_count, sender))
                _submit(self, sender, *rest)

            monkeypatch.setattr(Network, name, recording)
        spec = ScenarioSpec(
            name="silenced-then-corrupted",
            protocol="weak_coin",
            corruption=CorruptionPlan(adaptive=[
                AdaptiveRule(on="step", at_step=25, target=1,
                             behavior=BehaviorSpec("deterministic_value_dealer")),
            ]),
            timeline=[FaultEvent(transition="silence", select=1, at_step=20)],
        )
        result = run_scenario(spec, n=4, seed=2)
        actions = result.network.director.actions
        assert [(step, action, pid) for step, action, pid, _ in actions] == [
            (20, "silence", 1),
            (25, "corrupt", 1),
        ]
        assert result.network.processes[1].outgoing_mutator is None
        assert [step for step, sender in sent if sender == 1 and step > 25]

    def test_phase_triggered_equivocation(self):
        spec = get_scenario("equivocate-on-share")
        runtime = ScenarioRuntime(spec, n=4)
        director = runtime.build_director()
        from repro.experiments.registry import RUNNERS

        RUNNERS.get("weak_coin")(n=4, seed=1, director=director)
        assert director.corrupted == {3}
        assert any("timeline:equivocate" in detail for _, _, _, detail in director.actions)


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_same_seed_same_trial(self, name):
        first = run_scenario(name, n=4, seed=7)
        second = run_scenario(name, n=4, seed=7)
        assert _fingerprint(first) == _fingerprint(second)

    def test_different_seeds_differ_somewhere(self):
        fingerprints = {
            _fingerprint(run_scenario("dealer-ambush", n=7, seed=seed))
            for seed in range(4)
        }
        assert len(fingerprints) > 1


class TestRunScenario:
    def test_accepts_spec_and_name(self):
        by_name = run_scenario("silence-heal", n=4, seed=3)
        by_spec = run_scenario(get_scenario("silence-heal"), n=4, seed=3)
        assert _fingerprint(by_name) == _fingerprint(by_spec)

    def test_param_overrides_merge_over_scenario_params(self):
        result = run_scenario(
            "starved-dealer-withholds", n=4, seed=0, params={"secret": 777}
        )
        assert 777 in result.outputs.values()

    def test_protocol_override(self):
        result = run_scenario(
            "silence-heal", n=4, seed=0, protocol="coinflip", params={"rounds": 1}
        )
        assert len(result.outputs) == 4

    @pytest.mark.parametrize(
        "scenario, protocol, params, named",
        [
            ("coin-split-brain", "coinflip", {"rounds": 0}, "'rounds' must be a positive integer"),
            ("coin-split-brain", None, {"tracing": "false"}, "'tracing' must be true or false"),
            ("partition-heal", None, {"inputs": {0: 7}}, "'inputs' must give party 0 one of 0, 1"),
            ("coin-split-brain", "coinflip", {"roundz": 1}, "takes no params ['roundz']"),
            ("coin-split-brain", "fba", None, "needs params ['inputs']"),
        ],
    )
    def test_params_are_checked_like_a_cell(self, scenario, protocol, params, named):
        """A param a campaign cell refuses is refused here too, before the
        trial: unchecked, these deadlocked, ran traced on a truthy string,
        "agreed" on an input outside {0, 1}, or raised a bare TypeError."""
        with pytest.raises(ExperimentError) as caught:
            run_scenario(scenario, n=4, seed=0, protocol=protocol, params=params)
        assert named in str(caught.value)
