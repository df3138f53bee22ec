"""Tests for the campaign orchestrator: determinism, parallelism, resume."""

from __future__ import annotations

import json
import multiprocessing
import re

import pytest

from repro.core import api
from repro.core.results import TrialAggregate
from repro.errors import ExperimentError
from repro.experiments.cli import main
from repro.experiments.registry import FAULTS, RUNNERS, fault_problem, inject_fault
from repro.experiments.runner import CellExecutor, run_campaign, run_seeds
from repro.experiments.spec import (
    BehaviorSpec,
    CampaignSpec,
    ExperimentSpec,
    FaultSpec,
    SchedulerSpec,
)
from repro.experiments.store import ResultStore


def _acast_cell(name: str = "acast", seeds=range(4), **overrides) -> ExperimentSpec:
    spec = dict(
        name=name,
        protocol="acast",
        n=4,
        seeds=list(seeds),
        params={"value": "v", "sender": 0},
    )
    spec.update(overrides)
    return ExperimentSpec(**spec)


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        name="runner-test",
        cells=[
            _acast_cell("plain"),
            _acast_cell(
                "crash",
                adversary={3: BehaviorSpec("crash")},
                scheduler=SchedulerSpec("fifo"),
            ),
            ExperimentSpec(
                name="coin", protocol="coinflip", n=4, seeds=[0, 1], params={"rounds": 1}
            ),
        ],
    )


class TestTrialAndCell:
    def test_executor_resolves_registry_names(self):
        result = CellExecutor(_acast_cell()).run(0)
        assert result.agreed_value == "v"

    def test_executor_applies_corruptions(self):
        result = CellExecutor(_acast_cell(adversary={3: BehaviorSpec("crash")})).run(0)
        assert 3 not in result.outputs

    def test_campaign_matches_trial_by_trial_execution(self):
        cell = _acast_cell(seeds=range(5))
        stats = run_campaign(CampaignSpec(name="one", cells=[cell]), chunk_trials=2)
        expected = TrialAggregate()
        for seed in cell.seeds:
            expected.add(CellExecutor(cell).run(seed))
        assert stats["acast"].to_dict() == expected.to_dict()

    def test_unknown_protocol_fails_before_running(self):
        campaign = CampaignSpec(name="bad", cells=[_acast_cell(protocol="nope")])
        with pytest.raises(ExperimentError, match="unknown protocol runner"):
            run_campaign(campaign)

    @pytest.mark.parametrize(
        "scheduler, params, message",
        [
            ("rushing", {}, "'rushing'.*'coalition'"),
            ("targeted_delay", {"victim": [0]}, "'targeted_delay'.*'victim'"),
            (
                "targeted_delay",
                {"victims": 5},
                "'targeted_delay': param 'victims' .*resolves outside 0..3: 5",
            ),
            (
                "partition_heal",
                {"group_a": [0], "group_b": [1], "duration": "x"},
                "'partition_heal': param 'duration' .*'x'",
            ),
            (
                "partition_heal",
                {"group_a": [0], "group_b": [1], "duration": True},
                "'partition_heal': param 'duration' .*True",
            ),
            (
                "partition_heal",
                {"group_a": [0, 1], "group_b": [1, 2], "duration": 5},
                r"'partition_heal': group_a and group_b share parties \[1\]",
            ),
            (
                "targeted_delay",
                {"victims": [0], "max_delay_steps": "soon"},
                "'targeted_delay': param 'max_delay_steps' .*'soon'",
            ),
            (
                "session_starvation",
                {"pattern": ["...", "rec", "*"], "max_delay_steps": -1},
                "'session_starvation': param 'max_delay_steps' .*-1",
            ),
            (
                "message_filter_delay",
                {"predicate": {"kinds": ["READY"]}, "n": 4, "max_delay_steps": 2.5},
                "'message_filter_delay': param 'max_delay_steps' .*2.5",
            ),
        ],
    )
    def test_bad_scheduler_params_fail_before_running(self, scheduler, params, message):
        """Hostile-scheduler params fail closed at validation: never a bare
        TypeError, a silently accepted budget or a cell quarantined only
        after every chunk burnt its retries."""
        cell = _acast_cell(scheduler=SchedulerSpec(scheduler, params))
        with pytest.raises(ExperimentError, match=message):
            run_campaign(CampaignSpec(name="bad", cells=[cell]))

    @pytest.mark.parametrize(
        "scheduler, params, message",
        [
            (
                "split_brain",
                {"group_a": [0, 1], "group_b": [1, 2], "duration": 5},
                r"'split_brain': group_a and group_b share parties \[1\]",
            ),
            (
                "split_brain",
                {"group_a": [0], "group_b": [1], "duration": -5},
                "'split_brain': param 'duration' .*-5",
            ),
            (
                "split_brain",
                {"group_a": [0], "group_b": [1], "duration": "abc"},
                "'split_brain': param 'duration' .*'abc'",
            ),
            (
                "isolate_party",
                {"victim": 0, "max_delay_steps": "x"},
                "'isolate_party': param 'max_delay_steps' .*'x'",
            ),
            (
                "delay_protocol",
                {"root": "acast", "max_delay_steps": -3},
                "'delay_protocol': param 'max_delay_steps' .*-3",
            ),
            (
                "delay_from_parties",
                {"parties": [0], "max_delay_steps": "x"},
                "'delay_from_parties': param 'max_delay_steps' .*'x'",
            ),
            (
                "delay_from_parties",
                {"parties": [0], "max_delay_steps": -5},
                "'delay_from_parties': param 'max_delay_steps' .*-5",
            ),
            (
                "delay_from_parties",
                {"parties": [0], "base": "fifo"},
                r"'delay_from_parties' cannot be built from params \['base', 'parties'\]",
            ),
            (
                "delay_to_parties",
                {"parties": [0], "max_delay_steps": True},
                "'delay_to_parties': param 'max_delay_steps' .*True",
            ),
            (
                "isolate_party",
                "victim",
                "'isolate_party': params must be a JSON object, got 'victim'",
            ),
        ],
    )
    def test_adversary_scheduler_params_fail_at_validate(
        self, scheduler, params, message, tmp_path, capsys
    ):
        """The legacy alias rows (``isolate_party``, ``delay_protocol``,
        ``split_brain``) and the ``repro.net.scheduler`` helpers check their
        params like the hostile family: ``validate`` names the cell, the name
        the spec used and the param (one ``error:`` line, exit 1) and ``run``
        refuses the cell before a trial, instead of running an overlapping
        split, a negative budget or a budget that is no integer, or
        quarantining the cell at trial time."""
        cell = _acast_cell(scheduler=SchedulerSpec(scheduler, params))
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "scheduler, params, message",
        [
            ("targeted_delay", {"victims": [99]}, r"'victims' .*\[99\] resolves outside 0..3"),
            ("targeted_delay", {"victims": [True]}, "'victims' .*not an integer: True"),
            ("targeted_delay", {"victims": [1.5]}, "'victims' .*not an integer: 1.5"),
            ("targeted_delay", {"kinds": "READY"}, "'kinds' must be a list of strings or null, got 'READY'"),
            ("targeted_delay", {"roots": "svss"}, "'roots' must be a list of strings or null, got 'svss'"),
            ("delay_from_parties", {"parties": "ab"}, "'parties' must be a party selector over 0..3: invalid party selector 'ab'"),
            ("delay_to_parties", {"parties": [4]}, "'parties' .*resolves outside 0..3: 4"),
            ("rushing", {"coalition": "ab"}, "'coalition' must be a party selector over 0..3: invalid party selector 'ab'"),
            ("favour_parties", {"favoured": "ab"}, "'favoured' must be a party selector over 0..3: invalid party selector 'ab'"),
            (
                "partition_heal",
                {"group_a": "ab", "group_b": [2], "duration": 5},
                "'group_a' must be a party selector over 0..3: invalid party selector 'ab'",
            ),
            (
                "split_brain",
                {"group_a": [0], "group_b": {"pids": [9]}, "duration": 5},
                "'group_b' .*resolves outside 0..3: 9",
            ),
            ("session_starvation", {"pattern": "rec"}, "'pattern' must be a session pattern: .*non-empty list, got 'rec'"),
            ("isolate_party", {"victim": 4}, "'victim' must be one party id in 0..3, got 4"),
            ("isolate_party", {"victim": "2"}, "'victim' must be one party id in 0..3, got '2'"),
            ("isolate_party", {"victim": True}, "'victim' must be one party id in 0..3, got True"),
        ],
    )
    def test_scheduler_party_params_resolved_against_the_cell_n(
        self, scheduler, params, message, tmp_path, capsys
    ):
        """A cell's scheduler party params are resolved against the cell's
        ``n`` as a scenario's are: a pid outside the system, a pid that is
        not an int, or a string where a list goes is one ``error: cell``
        line naming the scheduler and the param, never a scheduler that
        silently delays nobody (or, for a string, its characters)."""
        cell = _acast_cell(scheduler=SchedulerSpec(scheduler, params))
        message = f"scheduler '{scheduler}': param {message}"
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "selector", [{"last_faulty": True}, {"last": 1}, {"pids": [3]}, 3]
    )
    def test_scheduler_party_selectors_in_a_cell(self, selector):
        """A party selector in a cell's scheduler params delays the parties
        it names at the cell's ``n``, exactly as the pid list does."""

        def steps(victims):
            spec = None if victims is None else SchedulerSpec(
                "targeted_delay", {"victims": victims}
            )
            cell = ExperimentSpec(
                name="svss", protocol="svss", n=4, seeds=[1], scheduler=spec,
                params={"secret": 5},
            )
            return CellExecutor(cell).run(1).network.step_count

        assert steps(selector) == steps([3]) != steps(None)

    @staticmethod
    def _assert_refused_at_validate(cell, message, tmp_path, capsys):
        """``validate`` prints one ``error: cell`` line naming the problem
        (exit 1) and ``run_campaign`` refuses the cell before any trial."""
        path = tmp_path / "bad.json"
        CampaignSpec(name="bad", cells=[cell]).save(path)
        assert main(["validate", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cell 'acast': ") and re.search(message, line)
        with pytest.raises(ExperimentError, match=message):
            run_campaign(CampaignSpec(name="bad", cells=[cell]))

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"offset": "abc"}, "'tamper': param 'offset' .*'abc'"),
            ({"offset": None}, "'tamper': param 'offset' .*None"),
            ({"offset": [1]}, r"'tamper': param 'offset' .*\[1\]"),
            ({"offset": 2.7}, r"'tamper': param 'offset' .*2\.7"),
            ({"offset": True}, "'tamper': param 'offset' .*True"),
            ({"drop_fraction": "x"}, "'tamper': param 'drop_fraction' .*'x'"),
            ({"drop_fraction": None}, "'tamper': param 'drop_fraction' .*None"),
        ],
    )
    def test_malformed_tamper_params_fail_at_validate(
        self, params, message, tmp_path, capsys
    ):
        """A tamper spec's ``offset`` is a non-bool int other than 0 and its
        ``drop_fraction`` a non-bool real in (0, 1]: anything else is one
        error line, never a ValueError / TypeError traceback, a float offset
        silently truncated or ``true`` read as 1."""
        cell = _acast_cell(adversary={3: BehaviorSpec("tamper", params)})
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "fault, params, message",
        [
            ("raise", {"chunks": 3}, "'raise': param 'chunks' must be a list of non-negative integers or null, got 3"),
            ("raise", {"chunks": [-1]}, r"'raise': param 'chunks' must be .*, got \[-1\]"),
            ("raise", {"chunks": "0"}, "'raise': param 'chunks' .*, got '0'"),
            ("sigkill", {"attempts": 5}, "'sigkill': param 'attempts' must be a list of non-negative integers or null, got 5"),
            ("sigkill", {"attempts": [True]}, r"'sigkill': param 'attempts' .*, got \[True\]"),
            ("hang", {"seconds": "x"}, "'hang': param 'seconds' must be a number >= 0, got 'x'"),
            ("hang", {"seconds": -1}, "'hang': param 'seconds' must be a number >= 0, got -1"),
            ("exit", {"code": "3"}, "'exit': param 'code' must be an integer, got '3'"),
            ("exit", {"code": 1.5}, r"'exit': param 'code' must be an integer, got 1\.5"),
            ("raise", {"message": 7}, "'raise': param 'message' must be a non-empty string, got 7"),
            ("raise", {"mesage": "x"}, r"'raise': unknown keys \['mesage'\]; known: \['attempts', 'chunks', 'message'\]"),
            ("sigkill", {"seconds": 1}, r"'sigkill': unknown keys \['seconds'\]; known: \['attempts', 'chunks'\]"),
            ("gremlin", {}, "unknown fault 'gremlin'; known: exit, hang, raise, sigkill"),
        ],
    )
    def test_fault_params_fail_at_validate(self, fault, params, message, tmp_path, capsys):
        """A chaos fault's params are checked at validation, by its row's
        fields, instead of quarantining the cell after every attempt hit a
        ``TypeError`` in the worker's injection hook or fault callable; a
        misspelt key is refused, not silently dropped."""
        cell = _acast_cell(fault=FaultSpec(fault, params))
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    def test_fault_params_in_range_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        cells = [
            _acast_cell(f"c{index}", fault=FaultSpec(name, params))
            for index, (name, params) in enumerate([
                ("raise", {"chunks": [0, 2], "attempts": None, "message": "boom"}),
                ("hang", {"seconds": 0.5, "attempts": [0, 1]}),
                ("exit", {"code": 3, "chunks": None}),
                ("sigkill", {}),
            ])
        ]
        CampaignSpec(name="ok", cells=cells).save(path)
        assert main(["validate", str(path)]) == 0

    def test_a_fault_row_without_fields_is_checked_by_name(
        self, monkeypatch, tmp_path, capsys
    ):
        """A downstream fault registered without fields takes the selectors
        and the params its callable takes, and is refused any other name."""
        for table in ("_entries", "_normalizers", "_fields", "_closed"):
            monkeypatch.setattr(FAULTS, table, dict(getattr(FAULTS, table)))
        fired = []

        @FAULTS.register("flaky")
        def flaky(rate, note="x"):
            fired.append((rate, note))

        spec = {"fault": "flaky", "params": {"chunks": [0], "rate": 0.5}}
        assert FAULTS.fields("flaky") is None and fault_problem(spec) is None
        inject_fault(spec, 0, 0)
        assert fired == [(0.5, "x")]
        for params, message in [
            ({"rate": 1, "nte": "y"}, "fault 'flaky': takes no params ['nte']; accepted: ['note', 'rate']"),
            ({}, "fault 'flaky': needs params ['rate']"),
            ({"rate": 1, "chunks": 3}, "fault 'flaky': param 'chunks' must be a list of non-negative integers or null, got 3"),
        ]:
            cell = _acast_cell(fault=FaultSpec("flaky", params))
            self._assert_refused_at_validate(cell, re.escape(message), tmp_path, capsys)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"scheduler": "fifo"}, "scheduler must be a JSON object or null, got 'fifo'"),
            ({"fault": "raise"}, "fault must be a JSON object or null, got 'raise'"),
            (
                {"scheduler": {"scheduler": ["x"]}},
                r"scheduler spec: scheduler must be a non-empty string, got \['x'\]",
            ),
            (
                {"adversary": {3: {"behavior": ["x"]}}},
                r"adversary 3 spec: behavior must be a non-empty string, got \['x'\]",
            ),
            ({"adversary": {3: "crash"}}, "adversary 3 must be a JSON object, got 'crash'"),
            ({"adversary": "crash"}, "adversary must be a JSON object, got 'crash'"),
            ({"fault": {"fault": ""}}, "fault spec: fault must be a non-empty string, got ''"),
        ],
        ids=[
            "scheduler-string", "fault-string", "scheduler-name-list", "behavior-name-list",
            "behavior-string", "adversary-string", "fault-name-empty",
        ],
    )
    def test_a_nested_spec_that_is_no_spec_fails_at_validate(
        self, overrides, message, tmp_path, capsys
    ):
        """A cell's scheduler, fault and behaviours are fields too: a value
        that is no JSON object, or a spec whose name is no string, is one
        ``error: cell`` line, never an AttributeError or unhashable-name
        traceback."""
        self._assert_refused_at_validate(_acast_cell(**overrides), message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "behavior, params, message",
        [
            (
                "withholding_dealer",
                {"victims": [99]},
                r"'withholding_dealer': param 'victims' must be a list of party ids in 0\.\.3, got \[99\]",
            ),
            (
                "bad_share",
                {"victims": [-1]},
                r"'bad_share': param 'victims' must be a list of party ids in 0\.\.3 or null, got \[-1\]",
            ),
            (
                "tamper",
                {"offset": 1, "receivers": [99]},
                r"'tamper': param 'receivers' .*\[99\] resolves outside 0\.\.3: 99",
            ),
        ],
        ids=["withholding-victims-99", "bad-share-victims-negative", "tamper-receivers-99"],
    )
    def test_behavior_party_params_checked_against_the_cell_n(
        self, behavior, params, message, tmp_path, capsys
    ):
        """A behaviour's party params are checked against the cell's ``n``,
        as a scheduler's are: a victim outside the system is refused, never
        an attack that silently targets nobody."""
        cell = _acast_cell(adversary={3: BehaviorSpec(behavior, params)})
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "behavior, params, message",
        [
            ("bad_share", {"offset": "x"}, "'bad_share': param 'offset' .*'x'"),
            ("split_equivocator", {"offset": "x"}, "'split_equivocator': param 'offset' .*'x'"),
            ("point_corrupting", {"offset": 1.5}, r"'point_corrupting': param 'offset' .*1\.5"),
            ("withholding_dealer", {"victims": 7}, "'withholding_dealer': param 'victims' .*7"),
            ("bad_share", {"victims": ["1"]}, r"'bad_share': param 'victims' .*\['1'\]"),
            ("withholding_dealer", {}, "'withholding_dealer' cannot be built from params"),
        ],
    )
    def test_mutating_behavior_params_fail_at_validate(
        self, behavior, params, message, tmp_path, capsys
    ):
        """The mutating attacks check their params when their factory is
        built, so a bad one is refused at validation instead of quarantining
        the cell after every chunk burnt its retries on a TypeError."""
        cell = _acast_cell(adversary={3: BehaviorSpec(behavior, params)})
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    @pytest.mark.parametrize(
        "adversary, message",
        [
            (
                {3: BehaviorSpec("silent_after", {"active_deliveries": "3"})},
                "'silent_after': param 'active_deliveries' .*'3'",
            ),
            (
                {3: BehaviorSpec("silent_after", {"active_deliveries": -1})},
                "'silent_after': param 'active_deliveries' .*-1",
            ),
            ({3: BehaviorSpec("replay", {"max_replays": "x"})}, "'replay': param 'max_replays' .*'x'"),
            ({3: BehaviorSpec("random_noise", {"burst": "2"})}, "'random_noise': param 'burst' .*'2'"),
            ({3: BehaviorSpec("random_noise", {"burst": -5})}, "'random_noise': param 'burst' .*-5"),
            (
                {3: BehaviorSpec("equivocating")},
                "'equivocating' cannot be built from params .*'value_for_low'",
            ),
            (
                {2: BehaviorSpec("crash"), 3: BehaviorSpec("crash")},
                "corrupts 2 parties at n=4, more than t=1",
            ),
            ({"x": BehaviorSpec("crash")}, "adversary key 'x' is not a party id"),
            (
                {3: BehaviorSpec("replay", "max_replays")},  # type: ignore[arg-type]
                "'replay': params must be a JSON object, got 'max_replays'",
            ),
        ],
        ids=[
            "silent_after-string", "silent_after-negative", "replay-string",
            "random_noise-string", "random_noise-negative", "equivocating-bare",
            "over-budget", "non-integer-key", "params-string",
        ],
    )
    def test_behavior_params_fail_at_validate(
        self, adversary, message, tmp_path, capsys
    ):
        """Every behaviour's params, the corruption budget and the adversary's
        keys are checked before a trial: one ``error: cell`` line at
        ``validate``, never an ``ok`` followed by a cell quarantined after
        its retries (a string count, a constructor missing arguments, one
        party over t), a run that goes on with a negative count, or a parse
        error that names no cell and hides the others."""
        cell = _acast_cell(adversary=adversary)
        self._assert_refused_at_validate(cell, message, tmp_path, capsys)

    def test_a_malformed_cell_does_not_hide_the_others(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "cells": [
            dict(_acast_cell("keyed").to_dict(), adversary={"x": {"behavior": "crash"}}),
            _acast_cell("plain").to_dict(),
            dict(_acast_cell("noisy").to_dict(), adversary={
                "3": {"behavior": "random_noise", "params": {"burst": "2"}},
            }),
        ]}))
        assert main(["validate", str(path)]) == 1
        first, second = capsys.readouterr().err.splitlines()
        assert first == "error: cell 'keyed': adversary key 'x' is not a party id in 0..3"
        assert second.startswith("error: cell 'noisy': ")

    @pytest.mark.parametrize(
        "cell, message",
        [
            (
                ExperimentSpec(name="no-inputs", protocol="fba", n=4, seeds=[0, 1]),
                r"cell 'no-inputs': runner 'fba' needs params \['inputs'\]",
            ),
            (
                ExperimentSpec(
                    name="typo", protocol="coinflip", n=4, seeds=[0],
                    params={"roundz": 1},
                ),
                r"cell 'typo': runner 'coinflip' takes no params \['roundz'\]",
            ),
            (
                ExperimentSpec(
                    name="attack", protocol="weak_coin", n=4, seeds=[0],
                    params={"roundz": 1}, scenario="dealer-ambush",
                ),
                r"cell 'attack': runner 'weak_coin' takes no params \['roundz'\]",
            ),
            (
                ExperimentSpec(
                    name="composite", protocol="weak_coin", n=4, seeds=[0],
                    params={"prime": 15},
                ),
                r"cell 'composite': runner 'weak_coin' at n=4: field modulus must "
                r"be a prime integer, got prime=15",
            ),
            (
                ExperimentSpec(
                    name="carmichael", protocol="coinflip", n=7, seeds=[0],
                    params={"rounds": 1, "prime": 561},
                ),
                r"cell 'carmichael': runner 'coinflip' at n=7: field modulus must "
                r"be a prime integer, got prime=561",
            ),
            (
                ExperimentSpec(
                    name="small-field", protocol="weak_coin", n=7, seeds=[0],
                    params={"prime": 5},
                ),
                r"cell 'small-field': runner 'weak_coin' at n=7: field modulus must "
                r"exceed the number of parties; got prime=5, n=7",
            ),
        ],
    )
    def test_bad_runner_params_fail_before_running(self, cell, message):
        """A cell its runner cannot be called with is a spec error at
        validation: no worker is spawned and no chunk burns its retries on a
        TypeError."""
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry(queue_depth_every=0, completion_steps=False)
        with pytest.raises(ExperimentError, match=message):
            run_campaign(
                CampaignSpec(name="bad", cells=[_acast_cell(), cell]),
                workers=2,
                metrics=metrics,
            )
        assert not any(metrics.counter_values().values())
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize(
        "cell, message",
        [
            ({"protocol": "weak_coin", "n": 4, "seeds": "abc"}, "seeds must be a non-empty list of integers, got 'abc'"),
            ({"protocol": "aba", "n": 4, "seeds": [0], "params": {"inputs": "x"}},
             "runner 'aba': param 'inputs' must map party ids to inputs, got 'x'"),
            ({"protocol": "weak_coin", "n": "4", "seeds": [0]}, "n must be a positive integer, got '4'"),
            ({"protocol": "weak_coin", "n": 4.5, "seeds": [0]}, r"n must be a positive integer, got 4\.5"),
            ({"protocol": "weak_coin", "n": True, "seeds": [0]}, "n must be a positive integer, got True"),
            ({"protocol": "weak_coin", "n": 4, "seeds": [1.5]}, r"seeds must be a non-empty list of integers, got \[1\.5\]"),
            ({"protocol": "weak_coin", "n": 4, "seeds": [True]}, r"seeds must be a non-empty list of integers, got \[True\]"),
            ({"protocol": "svss", "n": 4, "seeds": [0], "params": {"secret": 1.5}},
             r"runner 'svss': param 'secret' must be an integer, got 1\.5"),
            ({"protocol": "aba", "n": 4, "seeds": [0], "params": {"inputs": {"0": 2}}},
             "runner 'aba': param 'inputs' must give party 0 one of 0, 1, got 2"),
            ({"protocol": "svss", "n": 4, "seeds": [0], "params": {"secret": "x"}},
             "runner 'svss': param 'secret' must be an integer, got 'x'"),
            ({"protocol": "fba", "n": 4, "seeds": [0], "params": {"inputs": {"0": 1}}},
             r"runner 'fba': param 'inputs' must give every party an input; no input for parties \[1, 2, 3\]"),
        ],
        ids=[
            "seeds-string", "aba-inputs-string", "n-string", "n-float", "n-bool",
            "seed-float", "seed-bool", "svss-secret-float", "aba-input-2",
            "svss-secret-string", "fba-inputs-omit-parties",
        ],
    )
    def test_wrong_typed_sizes_and_inputs_fail_closed(self, cell, message, tmp_path, capsys):
        """``n``, seeds, an SVSS secret and agreement inputs are checked as
        written: one ``error: cell`` line at ``validate`` that names the cell
        and hides no other, and ``run_campaign`` refuses the cell -- never a
        parse error naming no cell, a traceback, a string, float or bool
        coerced to an int, or a worker failing at trial time."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "cells": [
            dict(cell, name="bad-cell"), _acast_cell("good").to_dict(),
        ]}))
        assert main(["validate", str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cell 'bad-cell': ") and re.search(message, line), line
        with pytest.raises(ExperimentError, match=message):
            run_campaign(CampaignSpec.load(path))

    def test_kwargs_runner_still_takes_any_param(self, monkeypatch):
        """Registered runners need not have the in-tree signatures: one that
        takes ``**kwargs`` is handed whatever the cell says."""
        seen = []

        def downstream(n, seed=0, scheduler=None, corruptions=None, **params):
            seen.append(params)
            return api.run_acast(n, "v", seed=seed)

        monkeypatch.setitem(RUNNERS._entries, "downstream", downstream)
        cell = ExperimentSpec(
            name="free-form", protocol="downstream", n=4, seeds=[0],
            params={"roundz": 1, "anything": {"goes": True}},
        )
        assert CellExecutor(cell).run(0).agreed_value == "v"
        (params,) = seen
        assert params["roundz"] == 1 and params["anything"] == {"goes": True}


class TestParallelEquality:
    def test_parallel_equals_sequential_statistics(self):
        campaign = _campaign()
        sequential = run_campaign(campaign, workers=1, chunk_trials=2)
        parallel = run_campaign(campaign, workers=3, chunk_trials=2)
        assert set(sequential) == set(parallel)
        for name in sequential:
            assert sequential[name].to_dict() == parallel[name].to_dict()

    def test_parallel_store_bytes_identical(self, tmp_path):
        """Stores are byte-identical across worker counts, except the single
        advisory wall-clock field backing the deliveries/s report column."""
        import json

        campaign = _campaign()
        seq_path, par_path = tmp_path / "seq.json", tmp_path / "par.json"
        run_campaign(campaign, workers=1, store=ResultStore.open(seq_path), chunk_trials=2)
        run_campaign(campaign, workers=3, store=ResultStore.open(par_path), chunk_trials=2)

        def canonical(path):
            data = json.loads(path.read_text())
            timings = []
            for cell in data["cells"].values():
                timings.append(cell.pop("elapsed_s"))
            return json.dumps(data, sort_keys=True), timings

        seq_data, seq_timings = canonical(seq_path)
        par_data, par_timings = canonical(par_path)
        assert seq_data == par_data
        # Timing is present (non-zero) on both sides, merely not identical.
        assert all(t > 0 for t in seq_timings + par_timings)

    def test_chunk_size_does_not_change_statistics(self):
        campaign = CampaignSpec(name="chunks", cells=[_acast_cell(seeds=range(7))])
        by_one = run_campaign(campaign, chunk_trials=1)["acast"]
        by_five = run_campaign(campaign, chunk_trials=5)["acast"]
        assert by_one.to_dict() == by_five.to_dict()


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        campaign = _campaign()
        store = ResultStore.open(tmp_path / "results.json")
        run_campaign(campaign, store=store, chunk_trials=2)
        first_bytes = (tmp_path / "results.json").read_bytes()

        events = []
        run_campaign(
            campaign,
            store=ResultStore.open(tmp_path / "results.json"),
            progress=events.append,
        )
        assert all(event.resumed for event in events)
        assert {event.cell for event in events} == {cell.name for cell in campaign.cells}
        assert (tmp_path / "results.json").read_bytes() == first_bytes

    def test_resume_recomputes_only_deleted_cell(self, tmp_path):
        import json

        campaign = _campaign()
        path = tmp_path / "results.json"
        run_campaign(campaign, store=ResultStore.open(path), chunk_trials=2)

        def canonical(raw):
            data = json.loads(raw)
            for cell in data["cells"].values():
                cell.pop("elapsed_s", None)
            return json.dumps(data, sort_keys=True)

        first = canonical(path.read_bytes())

        store = ResultStore.open(path)
        assert store.delete("crash")
        store.save()

        events = []
        run_campaign(campaign, store=ResultStore.open(path), progress=events.append, chunk_trials=2)
        ran = {event.cell for event in events if not event.resumed}
        assert ran == {"crash"}
        # The recomputed statistics are identical; only the advisory
        # wall-clock field of the recomputed cell may differ.
        assert canonical(path.read_bytes()) == first

    def test_changed_spec_invalidates_stored_cell(self, tmp_path):
        path = tmp_path / "results.json"
        campaign = CampaignSpec(name="c", cells=[_acast_cell(seeds=range(2))])
        run_campaign(campaign, store=ResultStore.open(path))

        changed = CampaignSpec(name="c", cells=[_acast_cell(seeds=range(3))])
        events = []
        results = run_campaign(changed, store=ResultStore.open(path), progress=events.append)
        assert not any(event.resumed for event in events)
        assert results["acast"].trials == 3

    def test_store_campaign_mismatch_rejected(self, tmp_path):
        path = tmp_path / "results.json"
        run_campaign(CampaignSpec(name="a", cells=[_acast_cell(seeds=[0])]),
                     store=ResultStore.open(path))
        with pytest.raises(ExperimentError, match="belongs to campaign"):
            run_campaign(CampaignSpec(name="b", cells=[_acast_cell(seeds=[0])]),
                         store=ResultStore.open(path))


class TestProgress:
    def test_progress_counts_reach_total(self):
        campaign = _campaign()
        events = []
        run_campaign(campaign, progress=events.append, chunk_trials=2)
        assert events[-1].completed == campaign.trials
        assert events[-1].total == campaign.trials
        per_cell = [event for event in events if event.cell == "plain"]
        assert per_cell[-1].cell_completed == 4


class TestRunSeeds:
    def test_run_seeds_parallel_matches_sequential(self):
        from repro.core import api

        sequential = run_seeds(api.run_acast, range(5), workers=1, n=4, value="v")
        parallel = run_seeds(api.run_acast, range(5), workers=2, chunk_trials=2,
                             n=4, value="v")
        assert sequential.to_dict() == parallel.to_dict()
        assert parallel.trials == 5
        assert parallel.frequency("v") == 1.0


class TestChunkSize:
    """A chunk size below 1 is refused before anything runs or is written: 0
    was a ``range()`` traceback, a negative size no chunks at all -- a cell
    persisted as complete with no trials -- and ``run_many`` read 0 as "the
    default"."""

    @staticmethod
    def _campaign_with_store(tmp_path, size):
        store = ResultStore.open(tmp_path / "results.json")
        try:
            run_campaign(_campaign(), store=store, chunk_trials=size)
        finally:
            assert not (tmp_path / "results.json").exists()
            assert not store.lock_path.exists()

    @pytest.mark.parametrize("size", [0, -3, "x"])
    @pytest.mark.parametrize("entry", ["campaign", "run_many", "run_many_inline"])
    def test_a_chunk_size_below_one_is_refused(self, entry, size, tmp_path):
        run = {
            "campaign": lambda: self._campaign_with_store(tmp_path, size),
            "run_many": lambda: api.run_many(
                api.run_weak_coin, range(4), n=4, workers=2, chunk_trials=size
            ),
            "run_many_inline": lambda: api.run_many(
                api.run_weak_coin, range(4), n=4, workers=1, chunk_trials=size
            ),
        }[entry]
        with pytest.raises(ExperimentError, match="chunk_trials must be a positive integer"):
            run()

    def test_run_many_reads_none_as_the_default(self):
        stats = api.run_many(api.run_acast, range(3), workers=2, chunk_trials=None,
                             n=4, value="v")
        assert stats.trials == 3

    @pytest.mark.parametrize("verb", ["run", "ablate"])
    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_the_cli_flag_takes_positive_ints_only(self, verb, size, tmp_path, capsys):
        campaign_path = tmp_path / "campaign.json"
        _campaign().save(campaign_path)
        out = tmp_path / "out.json"
        args = {
            "run": ["run", str(campaign_path), "--out", str(out)],
            "ablate": ["ablate", "--n", "4", "--seeds", "2", "--out", str(out)],
        }[verb]
        assert main(args + ["--chunk-trials", size, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --chunk-trials must be a positive integer, got '{size}'"
        ]
        assert not out.exists()
