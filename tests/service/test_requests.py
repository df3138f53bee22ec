"""Beacon request/response envelopes: validation, routing, canonical payloads."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.experiments.spec import canonical_json
from repro.service.requests import (
    BeaconRequest,
    BeaconResponse,
    canonical_payload,
    cold_payload,
    resolve_protocol,
)


class TestBeaconRequest:
    def test_coin_alias_resolves_to_coinflip(self):
        request = BeaconRequest(protocol="coin", n=4, seed=1)
        assert request.protocol == "coinflip"
        assert resolve_protocol("coin") == "coinflip"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ServiceError, match="unknown beacon protocol"):
            resolve_protocol("nonsense")
        with pytest.raises(ServiceError):
            BeaconRequest(protocol="nonsense", n=4, seed=1).validate()

    def test_reserved_params_rejected(self):
        request = BeaconRequest(
            protocol="weak_coin", n=4, seed=1, params={"seed": 9}
        )
        with pytest.raises(ServiceError, match="may not override"):
            request.validate()

    @pytest.mark.parametrize(
        "protocol, params, named",
        [
            ("coinflip", {"roundz": 1}, "roundz"),
            ("coinflip", {"rounds": 1, "knobs": {}}, "knobs"),
            ("fba", {"coinflip_rounds": 1}, "inputs"),
            ("weak_coin", {"prime": 15}, "must be a prime integer, got prime=15"),
            ("coinflip", {"rounds": 1, "prime": 561}, "must be a prime integer, got prime=561"),
            ("fba", {"inputs": {}, "prime": "101"}, "must be a prime integer, got prime='101'"),
            ("aba", {"inputs": {}, "prime": 3}, "must exceed the number of parties"),
        ],
    )
    def test_params_the_runner_cannot_take_are_rejected(self, protocol, params, named):
        request = BeaconRequest(protocol=protocol, n=4, seed=1, params=params)
        with pytest.raises(ServiceError, match=f"{request.request_id}: runner .*{named}"):
            request.validate()

    @pytest.mark.parametrize(
        "n, seed, protocol, params, named",
        [
            ("4", 1, "weak_coin", {}, "n must be a positive integer, got '4'"),
            (True, 1, "weak_coin", {}, "n must be a positive integer, got True"),
            (4, 1.5, "weak_coin", {}, r"seed must be an integer, got 1\.5"),
            (4, True, "weak_coin", {}, "seed must be an integer, got True"),
            (4, 1, "aba", {"inputs": "x"}, "'inputs' must map party ids to inputs, got 'x'"),
            (4, 1, "aba", {"inputs": {0: 2}}, "'inputs' must give party 0 one of 0, 1, got 2"),
            (4, 1, "svss", {"secret": "x"}, "'secret' must be an integer, got 'x'"),
            (4, 1, "fba", {"inputs": {"0": 1}}, r"no input for parties \[1, 2, 3\]"),
        ],
        ids=[
            "n-string", "n-bool", "seed-float", "seed-bool", "aba-inputs-string",
            "aba-input-2", "svss-secret-string", "fba-inputs-omit-parties",
        ],
    )
    def test_wrong_typed_sizes_and_inputs_are_rejected(self, n, seed, protocol, params, named):
        """The campaign cell's check, so a request and a cell cannot disagree;
        ``from_dict`` keeps the values as written for it to refuse."""
        request = BeaconRequest(protocol=protocol, n=n, seed=seed, params=params)
        for candidate in (request, BeaconRequest.from_dict(request.to_dict())):
            with pytest.raises(ServiceError, match=f"request {request.request_id}: .*{named}"):
                candidate.validate()

    def test_unknown_fault_rejected(self):
        request = BeaconRequest(
            protocol="weak_coin", n=4, seed=1, fault={"fault": "gremlin"}
        )
        with pytest.raises(ServiceError, match="unknown fault"):
            request.validate()

    @pytest.mark.parametrize(
        "fault, named",
        [
            ({"fault": "sigkill", "params": {"attempts": 5}},
             "fault 'sigkill': param 'attempts' must be a list of non-negative integers or null, got 5"),
            ({"fault": "raise", "params": {"chunks": 3}},
             "fault 'raise': param 'chunks' must be a list of non-negative integers or null, got 3"),
            ({"fault": "hang", "params": {"seconds": "30"}},
             "fault 'hang': param 'seconds' must be a number >= 0, got '30'"),
            ({"fault": "exit", "params": {"code": True}},
             "fault 'exit': param 'code' must be an integer, got True"),
            ({"fault": "raise", "params": {"message": ["x"]}},
             r"fault 'raise': param 'message' must be a non-empty string, got \['x'\]"),
            ({"fault": "raise", "params": {"mesage": "x"}},
             r"fault 'raise': unknown keys \['mesage'\]; known: \['attempts', 'chunks', 'message'\]"),
            ({"fault": "raise", "params": "x"},
             "fault 'raise': params must be a JSON object, got 'x'"),
            ("sigkill", "fault must be a JSON object or null, got 'sigkill'"),
        ],
        ids=[
            "attempts-int", "chunks-int", "hang-seconds-string", "exit-code-bool",
            "raise-message-list", "misspelt-key", "params-string", "fault-string",
        ],
    )
    def test_malformed_fault_params_rejected_at_submit(self, fault, named):
        """A fault's params are checked by its row's fields when the request
        is validated, so a shard never receives a fault its hook or callable
        would raise a ``TypeError`` on."""
        request = BeaconRequest(protocol="weak_coin", n=4, seed=1, fault=fault)
        with pytest.raises(ServiceError, match=f"^request {request.request_id}: {named}$"):
            request.validate()

    def test_fault_params_in_range_are_accepted(self):
        for fault in [
            {"fault": "sigkill", "params": {"attempts": [0]}},
            {"fault": "hang", "params": {"attempts": [0], "seconds": 30.0}},
            {"fault": "raise", "params": {"chunks": None, "attempts": None, "message": "x"}},
            {"fault": "exit"},
        ]:
            BeaconRequest(protocol="weak_coin", n=4, seed=1, fault=fault).validate()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("protocol", 5, "protocol must be a non-empty string, got 5"),
            ("params", "x", "params must be a JSON object, got 'x'"),
            ("attempt", -1, "attempt must be a non-negative integer, got -1"),
            ("request_id", 7, "request_id must be a non-empty string, got 7"),
        ],
    )
    def test_wrong_typed_request_fields_are_rejected(self, field, value, named):
        request = BeaconRequest(protocol="weak_coin", n=4, seed=1, request_id="r-1")
        setattr(request, field, value)
        with pytest.raises(ServiceError, match=f"^request {request.request_id}: {named}$"):
            request.validate()

    def test_request_ids_autogenerate_uniquely(self):
        a = BeaconRequest(protocol="weak_coin", n=4, seed=1)
        b = BeaconRequest(protocol="weak_coin", n=4, seed=1)
        assert a.request_id and b.request_id and a.request_id != b.request_id

    def test_round_trips_through_dict(self):
        request = BeaconRequest(
            protocol="aba",
            n=4,
            seed=7,
            params={"inputs": {0: 1, 1: 0, 2: 1, 3: 0}},
            request_id="r-1",
            fault={"fault": "sigkill", "params": {"attempts": [0]}},
            attempt=1,
        )
        clone = BeaconRequest.from_dict(request.to_dict())
        assert clone.to_dict() == request.to_dict()

    def test_malformed_dict_raises_service_error(self):
        with pytest.raises(ServiceError, match="malformed"):
            BeaconRequest.from_dict({"protocol": "weak_coin"})

    def test_warm_key_ignores_seed_but_not_params(self):
        a = BeaconRequest(protocol="coinflip", n=4, seed=1, params={"rounds": 2})
        b = BeaconRequest(protocol="coinflip", n=4, seed=999, params={"rounds": 2})
        c = BeaconRequest(protocol="coinflip", n=4, seed=1, params={"rounds": 3})
        assert a.warm_key() == b.warm_key()
        assert a.warm_key() != c.warm_key()

    def test_shard_slot_is_stable_and_in_range(self):
        request = BeaconRequest(protocol="weak_coin", n=4, seed=1)
        slots = {request.shard_slot(4) for _ in range(10)}
        assert len(slots) == 1
        assert 0 <= slots.pop() < 4
        # Same shape -> same slot, whatever the seed.
        other = BeaconRequest(protocol="weak_coin", n=4, seed=12345)
        assert other.shard_slot(4) == request.shard_slot(4)

    def test_cell_defaults_tracing_off(self):
        cell = BeaconRequest(protocol="weak_coin", n=4, seed=3).cell()
        assert cell.params["tracing"] is False
        assert cell.seeds == [3]


class TestPayloads:
    def test_cold_payload_is_deterministic(self):
        request = BeaconRequest(protocol="weak_coin", n=4, seed=11)
        first = cold_payload(request)
        second = cold_payload(
            BeaconRequest(protocol="weak_coin", n=4, seed=11)
        )
        assert canonical_json(first) == canonical_json(second)
        assert set(first) == {"disagreement", "outputs", "steps", "value"}
        assert len(first["outputs"]) == 4

    def test_different_seeds_can_differ(self):
        payloads = {
            canonical_json(
                cold_payload(BeaconRequest(protocol="coinflip", n=4, seed=seed,
                                           params={"rounds": 2}))
            )
            for seed in range(6)
        }
        assert len(payloads) > 1

    def test_canonical_payload_agreed_value(self):
        class FakeResult:
            outputs = {1: 0, 0: 0, 2: 0, 3: 0}
            steps = 42

        payload = canonical_payload(FakeResult())
        assert payload["value"] == "0"
        assert payload["disagreement"] is False
        assert list(payload["outputs"]) == ["0", "1", "2", "3"]

    def test_canonical_payload_disagreement(self):
        class FakeResult:
            outputs = {0: 0, 1: 1}
            steps = 7

        payload = canonical_payload(FakeResult())
        assert payload["value"] is None
        assert payload["disagreement"] is True


class TestBeaconResponse:
    def test_to_dict_drops_absent_fields(self):
        response = BeaconResponse(request_id="r", status="shed", retry_after_s=0.05)
        data = response.to_dict()
        assert data == {
            "request_id": "r",
            "status": "shed",
            "attempts": 0,
            "retry_after_s": 0.05,
        }
        assert response.shed and not response.ok
