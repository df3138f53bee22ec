"""Tests for the runner/behavior/scheduler registries."""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import CrashBehavior
from repro.errors import ExperimentError
from repro.experiments.registry import (
    BEHAVIORS,
    RUNNERS,
    SCHEDULERS,
    Registry,
    build_behavior_factory,
    build_scheduler,
    runner_params_problem,
    runner_signature,
)
from repro.experiments.spec import BehaviorSpec, SchedulerSpec
from repro.net.scheduler import FIFOScheduler, Scheduler


class TestRegistry:
    def test_known_runner_names(self):
        assert {"coinflip", "fba", "fair_choice", "acast", "weak_coin"} <= set(
            RUNNERS.names()
        )

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ExperimentError, match="unknown protocol runner 'nope'"):
            RUNNERS.get("nope")

    def test_contains(self):
        assert "crash" in BEHAVIORS
        assert "fifo" in SCHEDULERS
        assert "nope" not in RUNNERS

    def test_register_decorator_and_override(self):
        registry = Registry("thing")

        @registry.register("x")
        def build():
            return 1

        assert registry.get("x") is build
        registry.add("x", lambda: 2)
        assert registry.get("x")() == 2

    def test_inputs_normalizer_restores_int_keys(self):
        kwargs = RUNNERS.normalize("fba", {"inputs": {"0": "a", "1": "b"}})
        assert kwargs["inputs"] == {0: "a", 1: "b"}
        # Runners without a normalizer pass kwargs through (copied).
        original = {"rounds": 1}
        assert RUNNERS.normalize("coinflip", original) == original
        assert RUNNERS.normalize("coinflip", original) is not original


class TestBuilders:
    def test_build_behavior_factory(self):
        factory = build_behavior_factory(BehaviorSpec("crash"))
        assert isinstance(factory(None), CrashBehavior)

    def test_build_behavior_with_params(self):
        factory = build_behavior_factory(
            BehaviorSpec("silent_after", {"active_deliveries": 2})
        )
        assert factory(None).active_deliveries == 2

    def test_build_scheduler(self):
        assert isinstance(build_scheduler(SchedulerSpec("fifo")), FIFOScheduler)
        assert isinstance(
            build_scheduler(SchedulerSpec("favour_parties", {"favoured": [0, 1]})),
            Scheduler,
        )

    def test_build_scheduler_none_passthrough(self):
        assert build_scheduler(None) is None

    def test_unknown_behavior_raises(self):
        with pytest.raises(ExperimentError, match="unknown adversary behavior"):
            build_behavior_factory(BehaviorSpec("nope"))


class TestRunnerParams:
    def test_in_tree_runner_names_required_and_accepted(self):
        required, accepted = runner_signature(RUNNERS.get("fba"))
        assert required == {"inputs"}
        # ``**world`` reads as the world's keywords, not as "anything".
        assert {"inputs", "coinflip_rounds", "tracing", "metering", "prime"} <= accepted
        # What the executor supplies is not the cell's to set.
        assert not accepted & {"n", "seed", "scheduler", "corruptions", "director"}

    def test_missing_and_misspelt_params_are_named(self):
        assert "needs params ['inputs']" in runner_params_problem("fba", {}, 4)
        problem = runner_params_problem("coinflip", {"roundz": 1}, 4)
        assert "takes no params ['roundz']" in problem and "'rounds'" in problem
        assert runner_params_problem("coinflip", {"rounds": 1}, 4) is None
        assert runner_params_problem("fba", {"inputs": dict.fromkeys(range(4), 1)}, 4) is None

    def test_a_modulus_that_is_not_a_prime_above_n_is_named(self):
        """The field modulus is checked where it enters, at the n the cell runs."""
        problem = runner_params_problem("weak_coin", {"prime": 15}, 4)
        assert problem == (
            "runner 'weak_coin' at n=4: field modulus must be a prime integer, got prime=15"
        )
        assert "must exceed the number of parties" in runner_params_problem(
            "weak_coin", {"prime": 5}, 7
        )
        assert runner_params_problem("weak_coin", {"prime": 5}, 4) is None
        assert runner_params_problem("weak_coin", {"prime": 1_000_003}, 16) is None

    @pytest.mark.parametrize(
        "protocol,params,named",
        [
            # Observation switches are JSON booleans.
            ("weak_coin", {"tracing": "false"}, "'tracing' must be true or false"),
            ("weak_coin", {"metering": "no"}, "'metering' must be true or false"),
            ("weak_coin", {"metrics": "yes"}, "'metrics' must be true or false"),
            # Params taking Python objects cannot come from a spec.
            ("weak_coin", {"sinks": [1]}, "'sinks' takes a Python object"),
            ("coinflip", {"coin_source": "oracle"}, "'coin_source' takes a Python object"),
            # Iteration and size params are non-bool ints in range.
            ("coinflip", {"rounds": 0}, "'rounds' must be a positive integer"),
            ("coinflip", {"rounds": None}, "'rounds' must be a positive integer"),
            ("coinflip", {"rounds": "3"}, "'rounds' must be a positive integer"),
            ("coinflip", {"rounds": True}, "'rounds' must be a positive integer"),
            ("fba", {"inputs": {0: 1}, "coinflip_rounds": 0}, "'coinflip_rounds' must be a positive integer"),
            ("fair_choice", {"m": "3"}, "'m' must be an integer >= 3"),
            ("fair_choice", {"m": 2}, "'m' must be an integer >= 3"),
            ("coinflip", {"epsilon": "x"}, "'epsilon' must be a number in (0, 0.5), got 'x'"),
            ("coinflip", {"epsilon": 2}, "'epsilon' must be a number in (0, 0.5), got 2"),
            ("coinflip", {"epsilon": False}, "'epsilon' must be a number in (0, 0.5), got False"),
        ],
    )
    def test_param_values_a_spec_cannot_run_are_named(self, protocol, params, named):
        """Each of these passed validation once and then ran something else
        (a truthy string, the paper-scale round count) or failed every
        attempt in a worker."""
        problem = runner_params_problem(protocol, params, 4)
        assert problem is not None and named in problem, problem

    def test_param_values_in_range_are_accepted(self):
        for protocol, params in [
            ("weak_coin", {"tracing": False, "metering": True, "metrics": True}),
            ("coinflip", {"rounds": 1, "epsilon": 0.25}),
            ("coinflip", {"epsilon": 0.1}),
            ("fair_choice", {"m": 3, "coinflip_rounds": 2}),
        ]:
            assert runner_params_problem(protocol, params, 4) is None, (protocol, params)

    def test_kwargs_runner_takes_anything_and_c_callable_is_skipped(self):
        def downstream(n, payload, seed=0, **extra):
            return None

        assert runner_signature(downstream) == ({"payload"}, None)
        assert runner_signature(dict) == (frozenset(), None)

    def test_a_runner_that_does_not_take_the_world_is_refused(self, monkeypatch):
        def downstream(n, seed=0, scheduler=None, corruptions=None):
            return None

        monkeypatch.setitem(RUNNERS._entries, "downstream", downstream)
        assert runner_params_problem("downstream", {}, 4) == (
            "runner 'downstream' does not take ['director', 'session_table']; "
            "a runner takes n, seed and **world"
        )
