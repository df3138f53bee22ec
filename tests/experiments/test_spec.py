"""Tests for campaign/experiment spec serialization and validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.spec import (
    BehaviorSpec,
    CampaignSpec,
    ExecutionPolicy,
    ExperimentSpec,
    FaultSpec,
    SchedulerSpec,
)


def _campaign() -> CampaignSpec:
    return CampaignSpec(
        name="demo",
        cells=[
            ExperimentSpec(
                name="plain",
                protocol="coinflip",
                n=4,
                seeds=[0, 1, 2],
                params={"rounds": 1},
            ),
            ExperimentSpec(
                name="attacked",
                protocol="fba",
                n=4,
                seeds=[5, 6],
                params={"inputs": {"0": "a", "1": "b", "2": "c", "3": "d"}},
                adversary={3: BehaviorSpec("crash")},
                scheduler=SchedulerSpec("favour_parties", {"favoured": [3]}),
            ),
        ],
    )


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        campaign = _campaign()
        clone = CampaignSpec.from_json(campaign.to_json())
        assert clone == campaign
        assert clone.to_json() == campaign.to_json()

    def test_save_load(self, tmp_path):
        path = tmp_path / "campaign.json"
        campaign = _campaign()
        campaign.save(path)
        assert CampaignSpec.load(path) == campaign

    def test_adversary_keys_are_ints_after_round_trip(self):
        clone = CampaignSpec.from_json(_campaign().to_json())
        assert list(clone.cell("attacked").adversary) == [3]

    def test_from_dict_accepts_plain_nested_dicts(self):
        cell = ExperimentSpec(
            name="x",
            protocol="coinflip",
            n=4,
            seeds=[0],
            adversary={1: {"behavior": "crash"}},  # type: ignore[dict-item]
            scheduler={"scheduler": "fifo"},  # type: ignore[arg-type]
        )
        assert cell.adversary[1] == BehaviorSpec("crash")
        assert cell.scheduler == SchedulerSpec("fifo")

    def test_malformed_json_raises_experiment_error(self):
        with pytest.raises(ExperimentError):
            CampaignSpec.from_json("{not json")
        with pytest.raises(ExperimentError):
            CampaignSpec.from_json('{"name": "x"}')


class TestValidation:
    def test_valid_campaign_passes(self):
        _campaign().validate()

    def test_duplicate_cell_names_rejected(self):
        campaign = _campaign()
        campaign.cells[1].name = campaign.cells[0].name
        with pytest.raises(ExperimentError, match="duplicate"):
            campaign.validate()

    def test_empty_seeds_rejected(self):
        campaign = _campaign()
        campaign.cells[0].seeds = []
        with pytest.raises(ExperimentError, match=r"seeds must be a non-empty list of integers, got \[\]"):
            campaign.validate()

    def test_corrupted_pid_out_of_range_rejected(self):
        campaign = _campaign()
        campaign.cells[1].adversary[7] = BehaviorSpec("crash")
        with pytest.raises(ExperimentError, match=r"adversary key 7 is not a party id in 0\.\.3"):
            campaign.validate()

    def test_reserved_params_rejected(self):
        campaign = _campaign()
        campaign.cells[0].params["seed"] = 7
        with pytest.raises(ExperimentError, match="params may not override seed"):
            campaign.validate()
        campaign.cells[0].params = {"scheduler": "fifo", "rounds": 1}
        with pytest.raises(ExperimentError, match="scheduler"):
            campaign.validate()

    def test_unknown_cell_lookup_raises(self):
        with pytest.raises(ExperimentError, match="no cell"):
            _campaign().cell("missing")


class TestSpecHash:
    def test_hash_ignores_name_but_not_parameters(self):
        cell = _campaign().cells[0]
        renamed = ExperimentSpec.from_dict({**cell.to_dict(), "name": "other"})
        assert renamed.spec_hash() == cell.spec_hash()
        changed = ExperimentSpec.from_dict({**cell.to_dict(), "seeds": [0, 1]})
        assert changed.spec_hash() != cell.spec_hash()

    def test_hash_stable_across_round_trip(self):
        cell = _campaign().cells[1]
        clone = ExperimentSpec.from_dict(cell.to_dict())
        assert clone.spec_hash() == cell.spec_hash()


class TestExecutionPlane:
    def test_policy_and_fault_round_trip(self):
        campaign = _campaign()
        campaign.policy = ExecutionPolicy(
            trial_timeout_s=2.5, max_chunk_retries=1, fail_fast=True
        )
        campaign.cells[0].fault = FaultSpec("sigkill", {"chunks": [1]})
        campaign.cells[0].trial_timeout_s = 0.5
        campaign.cells[0].max_chunk_retries = 4

        clone = CampaignSpec.from_json(campaign.to_json())
        assert clone == campaign
        assert clone.policy == campaign.policy
        assert clone.cells[0].fault == FaultSpec("sigkill", {"chunks": [1]})
        assert clone.cells[0].trial_timeout_s == 0.5
        assert clone.cells[0].max_chunk_retries == 4

    def test_policy_accepts_plain_dicts(self):
        campaign = CampaignSpec(
            name="c",
            cells=_campaign().cells,
            policy={"max_chunk_retries": 3},  # type: ignore[arg-type]
        )
        assert campaign.policy == ExecutionPolicy(max_chunk_retries=3)
        cell = ExperimentSpec(
            name="x",
            protocol="coinflip",
            n=4,
            seeds=[0],
            fault={"fault": "raise"},  # type: ignore[arg-type]
        )
        assert cell.fault == FaultSpec("raise")

    def test_execution_keys_do_not_change_spec_hash(self):
        """Chaos faults and supervision overrides never invalidate stored
        results: they change how trials are supervised, not what they compute."""
        clean = _campaign().cells[0]
        chaotic = ExperimentSpec.from_dict(clean.to_dict())
        chaotic.fault = FaultSpec("sigkill", {"attempts": None})
        chaotic.trial_timeout_s = 0.1
        chaotic.max_chunk_retries = 9
        assert chaotic.spec_hash() == clean.spec_hash()

    def test_policy_validation(self):
        with pytest.raises(ExperimentError, match="trial_timeout_s"):
            ExecutionPolicy(trial_timeout_s=0).validate()
        with pytest.raises(ExperimentError, match="max_chunk_retries"):
            ExecutionPolicy(max_chunk_retries=-1).validate()
        with pytest.raises(ExperimentError, match="backoff_base_s"):
            ExecutionPolicy(backoff_base_s=-0.5).validate()

    def test_cell_execution_field_validation(self):
        campaign = _campaign()
        campaign.cells[0].trial_timeout_s = -1.0
        with pytest.raises(ExperimentError, match="trial_timeout_s"):
            campaign.validate()
        campaign.cells[0].trial_timeout_s = None
        campaign.cells[0].fault = FaultSpec("")
        with pytest.raises(ExperimentError, match="fault"):
            campaign.validate()


class TestFieldsAsWritten:
    """Every cell and policy field is checked as written, by its schema
    field: a string, float or bool where another type goes is one
    :class:`ExperimentError`, never a traceback at a comparison or a string
    such as ``"false"`` read as true."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("trial_timeout_s", "5", "trial_timeout_s must be a number > 0 or null, got '5'"),
            ("trial_timeout_s", 0, "trial_timeout_s must be a number > 0 or null, got 0"),
            ("scenario", 5, "scenario must be a non-empty string or null, got 5"),
            ("max_chunk_retries", 1.5, r"max_chunk_retries must be a non-negative integer or null, got 1\.5"),
            ("max_chunk_retries", True, "max_chunk_retries must be a non-negative integer or null, got True"),
            ("invariants", "no", "invariants must be true, false or null, got 'no'"),
        ],
    )
    def test_a_wrong_typed_cell_field_is_refused(self, field, value, message):
        campaign = _campaign()
        setattr(campaign.cells[0], field, value)
        with pytest.raises(ExperimentError, match=f"^cell 'plain': {message}$"):
            campaign.validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("trial_timeout_s", "5", "trial_timeout_s must be a number > 0 or null, got '5'"),
            ("backoff_base_s", "x", "backoff_base_s must be a number >= 0 or null, got 'x'"),
            ("max_chunk_retries", 1.5, r"max_chunk_retries must be a non-negative integer or null, got 1\.5"),
            ("max_chunk_retries", True, "max_chunk_retries must be a non-negative integer or null, got True"),
            ("fail_fast", "false", "fail_fast must be true, false or null, got 'false'"),
        ],
    )
    def test_a_wrong_typed_policy_field_is_refused(self, field, value, message):
        policy = ExecutionPolicy.from_dict({field: value})
        with pytest.raises(ExperimentError, match=f"^policy: {message}$"):
            policy.validate()
        with pytest.raises(ExperimentError, match=f"^policy: {message}$"):
            CampaignSpec(name="c", cells=_campaign().cells, policy=policy).validate()

    def test_the_cli_refuses_each_with_one_error_line(self, tmp_path, capsys):
        """``validate`` prints one ``error: cell`` line per wrong-typed cell
        field and exits 1; a wrong-typed policy is one ``error:`` line and
        exit 2 -- never a traceback."""
        from repro.experiments.cli import main

        cells = [
            dict(_campaign().cells[0].to_dict(), name=f"bad-{field}", **{field: value})
            for field, value in [
                ("trial_timeout_s", "5"), ("scenario", 5), ("max_chunk_retries", 1.5),
                ("max_chunk_retries", True), ("invariants", "no"),
            ]
        ]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"name": "bad", "cells": cells}))
        assert main(["validate", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 5 and all(line.startswith("error: cell 'bad-") for line in lines)
        path.write_text(json.dumps({
            "name": "bad", "policy": {"fail_fast": "false"},
            "cells": [_campaign().cells[0].to_dict()],
        }))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: policy: fail_fast must be true, false or null, got 'false'"
        ]


    def test_a_policy_that_is_no_object_is_refused(self):
        campaign = CampaignSpec.from_dict(
            {"name": "c", "cells": [_campaign().cells[0].to_dict()], "policy": "x"}
        )
        with pytest.raises(ExperimentError, match="^policy must be a JSON object or null, got 'x'$"):
            campaign.validate()

    def test_cells_default_to_none_but_a_document_must_list_them(self):
        assert CampaignSpec(name="c").cells == []
        assert CampaignSpec(name="c").to_dict() == {"name": "c", "cells": []}
        with pytest.raises(ExperimentError, match=r"missing keys \['cells'\]"):
            CampaignSpec.from_dict({"name": "c"})


class TestGrid:
    def test_grid_expands_cartesian_product(self):
        campaign = CampaignSpec.grid(
            "sweep",
            protocol="coinflip",
            n=[4, 7],
            seeds=range(3),
            axes={"rounds": [1, 3], "epsilon": [0.25]},
        )
        assert len(campaign.cells) == 4
        names = [cell.name for cell in campaign.cells]
        assert "n=4,epsilon=0.25,rounds=1" in names
        by_name = {cell.name: cell for cell in campaign.cells}
        cell = by_name["n=7,epsilon=0.25,rounds=3"]
        assert cell.n == 7
        assert cell.params == {"epsilon": 0.25, "rounds": 3}
        assert cell.seeds == [0, 1, 2]

    def test_grid_single_n_omits_n_label(self):
        campaign = CampaignSpec.grid(
            "sweep", protocol="coinflip", n=4, seeds=[0], axes={"rounds": [1]}
        )
        assert [cell.name for cell in campaign.cells] == ["rounds=1"]

    def test_grid_trials_property(self):
        campaign = CampaignSpec.grid(
            "sweep", protocol="coinflip", n=4, seeds=range(5), axes={"rounds": [1, 3]}
        )
        assert campaign.trials == 10
