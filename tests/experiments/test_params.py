"""The one schema: every declared field of every registry row and of every
campaign / policy / request spec refuses its near misses with one
structured error, and builds from every value it accepts; every declared
field of an emitted payload refuses its near misses by its path.

The strategies live here, not in ``src/``: each field type maps to a
strategy of values it accepts and one of near misses -- a wrong type, a bool
for an int, a float for an int, a string for a list, a value out of range, a
party id at or above ``n``.  Rules that span params (a prime above ``n``,
disjoint partition groups, a message predicate's keys, a registered
scenario or runner name) are not the field's to check, so those params draw
their valid values from the overrides in :data:`VALID`.
"""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import schema
from repro.errors import ExperimentError, ServiceError
from repro.experiments.registry import (
    BEHAVIORS,
    FAULT_SELECTORS,
    FAULTS,
    RUNNERS,
    SCHEDULERS,
    runner_signature,
)
from repro.experiments.runner import CellExecutor
from repro.experiments.spec import (
    BehaviorSpec,
    ExecutionPolicy,
    ExperimentSpec,
    FaultSpec,
    SchedulerSpec,
)
from repro.obs.schema import (
    ENVELOPE,
    EVENTS,
    REPORT,
    SERVICE_COUNTERS,
    SERVICE_METRICS,
    SERVICE_METRICS_SCHEMA,
    validate_event,
    validate_report,
    validate_service_metrics,
)
from repro.service.requests import BeaconRequest

N = 4

_ints = st.integers(-50, 50)
_text = st.text(min_size=1, max_size=6)
_json_scalar = st.one_of(_ints, _text, st.booleans())


# ----------------------------------------------------------------------
# Strategies per field type.
def _valid(field: schema.Field, n: int) -> st.SearchStrategy:
    if isinstance(field, schema.Int):
        lo = -50 if field.lo is None else field.lo
        hi = lo + 100 if field.hi is None else field.hi
        values = st.integers(lo, hi)
        return values.filter(bool) if field.nonzero else values
    if isinstance(field, schema.Real):
        hi = min(field.hi, field.lo + 100.0)
        return st.floats(
            field.lo, hi,
            exclude_min=not field.lo_closed,
            exclude_max=not field.hi_closed or field.hi == math.inf,
        )
    if isinstance(field, schema.Bool):
        return st.booleans()
    if isinstance(field, schema.Name):
        return _text
    if isinstance(field, schema.Value):
        return st.one_of(_json_scalar, st.none()) if field.null else _json_scalar
    if isinstance(field, schema.Str):
        return st.text(max_size=4)
    if isinstance(field, schema.OneOf):
        return st.sampled_from(field.choices)
    if isinstance(field, schema.ListOf):
        return st.lists(_valid(field.item, n), min_size=int(field.nonempty), max_size=3)
    if isinstance(field, schema.Map):
        return st.dictionaries(_text, _valid(field.item, n), max_size=2)
    if isinstance(field, schema.Object):
        return _object(field.fields, n)
    if isinstance(field, schema.Pid):
        return st.integers(0, n - 1)
    if isinstance(field, schema.PartySelector):
        return st.one_of(
            st.integers(0, n - 1),
            st.lists(st.integers(0, n - 1), max_size=n),
            st.builds(lambda pids: {"pids": pids}, st.lists(st.integers(0, n - 1))),
            st.builds(lambda k: {"first": k}, st.integers(0, n)),
            st.builds(lambda k: {"last": k}, st.integers(0, n)),
            st.sampled_from([{"half": "low"}, {"half": "high"}, {"last_faulty": True}]),
            st.builds(lambda s, o: {"every": s, "offset": o}, st.integers(1, n), st.integers(0, n)),
        )
    if isinstance(field, schema.SessionPattern):
        component = st.one_of(_text, st.just("*"), st.just({"pid": True}), _ints)
        return st.builds(
            lambda head, body: head + body,
            st.sampled_from([[], ["..."]]),
            st.lists(component.filter(lambda c: c != "..."), min_size=1, max_size=3),
        )
    if isinstance(field, schema.InputMap):
        value = _json_scalar if field.domain is None else st.sampled_from(field.domain)
        if field.every:
            return st.fixed_dictionaries({pid: value for pid in range(n)})
        return st.dictionaries(st.integers(0, n - 1), value, max_size=n)
    if isinstance(field, schema.JsonObject):
        return st.dictionaries(_text, _json_scalar, max_size=3)
    raise AssertionError(f"no valid strategy for {field!r}")


def _object(fields: schema.Fields, n: int) -> st.SearchStrategy:
    """A table's valid objects: every required key, any optional ones."""
    return st.fixed_dictionaries(
        {name: _valid(field, n) for name, field in fields.items() if field.required},
        optional={name: _valid(field, n) for name, field in fields.items() if not field.required},
    )


_LIST_FIELDS = (schema.ListOf, schema.PartySelector, schema.SessionPattern)
_OBJECT_FIELDS = (schema.JsonObject, schema.InputMap, schema.Map, schema.Object)


def _near_misses(field: schema.Field, n: int) -> st.SearchStrategy:
    return st.sampled_from(_misses(field, n))


def _misses(field: schema.Field, n: int) -> list:
    """Values one step outside ``field``: each must be refused."""
    misses = []
    if not isinstance(field, _OBJECT_FIELDS + (schema.Value,)):
        misses.append({"x": 1})
    if not isinstance(field, _LIST_FIELDS + (schema.Value,)):
        misses.append([1])
    if not field.null and not isinstance(field, schema.Value):
        misses.append(None)
    if isinstance(field, schema.Int):
        misses += [True, False, 1.5, float(field.lo or 0), str(field.lo or 0)]
        if field.lo is not None:
            misses.append(field.lo - 1)
        if field.hi is not None:
            misses.append(field.hi + 1)
        if field.nonzero:
            misses.append(0)
    elif isinstance(field, schema.Real):
        misses += [True, "1", math.nan, math.inf, -math.inf]
        misses.append(field.lo if not field.lo_closed else field.lo - 0.5)
        if field.hi != math.inf:
            misses.append(field.hi if not field.hi_closed else field.hi + 0.5)
    elif isinstance(field, schema.Bool):
        misses += ["false", "true", 0, 1, "no"]
    elif isinstance(field, schema.Name):
        misses += ["", 5, True, ["x"]]
    elif isinstance(field, schema.Value):
        misses = [] if field.null else [None]
    elif isinstance(field, schema.Str):
        misses += [5, True, ["x"]]
    elif isinstance(field, schema.OneOf):
        misses += ["~", True, 1.5, -1]
        misses += [c.upper() if isinstance(c, str) else float(c) for c in field.choices]
    elif isinstance(field, schema.ListOf):
        # A string would be read as its characters.
        misses += ["READY", 5] + [[miss] for miss in _misses(field.item, n)]
        if field.nonempty:
            misses.append([])
    elif isinstance(field, schema.Map):
        misses += ["x", 5] + [{"k": miss} for miss in _misses(field.item, n)]
    elif isinstance(field, schema.Object):
        misses += ["x", 5]
        if any(inner.required for inner in field.fields.values()):
            misses.append({})
    elif isinstance(field, schema.Pid):
        misses += [-1, True, "0", 1.5, [0]] + ([] if n is None else [n])
    elif isinstance(field, schema.PartySelector):
        misses += [
            [n], [-1], n, "ab", True, [True], [1.5], {"half": "mid"}, {"bogus": 1},
            {"every": 0}, {"first": "x"}, {"pids": [n]}, {"pids": "ab"},
        ]
    elif isinstance(field, schema.SessionPattern):
        misses += ["rec", [], ["rec", "..."], [{"x": 1}], 5]
    elif isinstance(field, schema.InputMap):
        misses += ["x", [0], {n: 0}, {-1: 0}, {"a": 0}]
        misses.append({0: 2} if field.domain is not None else {0: None})
        if field.every:
            misses.append({0: 1})
    elif isinstance(field, schema.JsonObject):
        misses += ["x", 5, True] + [{key: 1} for key in sorted(field.reserved)]
    elif isinstance(field, schema.PyObject):
        misses += [0, "x", True, {"x": 1}]
    elif isinstance(field, schema.Nested):
        # A JSON object becomes the spec; anything else is kept, as is a
        # spec whose name is no non-empty string.
        misses += ["fifo", 5, True, field.spec(""), field.spec(["x"]), field.spec(5)]
    elif isinstance(field, schema.PartyMap):
        item = field.item.spec("crash")
        misses += ["x", 5, [0], {n: item}, {-1: item}, {"a": item}, {True: item}]
        misses += [{0: "crash"}, {0: field.item.spec(["x"])}, {0: field.item.spec("")}]
    else:
        raise AssertionError(f"no near misses for {field!r}")
    return misses


# ----------------------------------------------------------------------
# Where each declared field lives, and the smallest params each row builds
# from.
RUNNER_BASE = {
    "acast": {"value": "v"},
    "svss": {"secret": 5},
    "aba": {"inputs": {0: 1}},
    "common_subset": {"ready_parties": [0, 1, 2]},
    "fair_choice": {"m": 3},
    "fba": {"inputs": dict.fromkeys(range(N), "a")},
}
BEHAVIOR_BASE = {
    "silent_after": {"active_deliveries": 1},
    "equivocating": {"value_for_low": 0, "value_for_high": 1},
    "withholding_dealer": {"victims": [0]},
    "fba_value_injector": {"value": 1},
    "tamper": {"offset": 1},
}
SCHEDULER_BASE = {
    "delay_from_parties": {"parties": [0]},
    "delay_to_parties": {"parties": [0]},
    "session_starvation": {"pattern": ["...", "rec", "*"]},
    "partition_heal": {"group_a": [], "group_b": [], "duration": 5},
    "split_brain": {"group_a": [], "group_b": [], "duration": 5},
    "rushing": {"coalition": [0]},
    "message_filter_delay": {"predicate": {}, "n": N},
    "isolate_party": {"victim": 0},
    "delay_protocol": {"root": "acast"},
    "favour_parties": {"favoured": [0]},
}

#: Valid values of params whose acceptance also rests on a cross-field rule.
VALID = {
    ("runner", "prime"): st.sampled_from([5, 7, 101, 2_147_483_647]),
    ("scheduler", "predicate"): st.sampled_from([{}, {"kinds": ["READY"]}, {"senders": [0]}]),
    ("scheduler", "n"): st.integers(1, 16),
    ("cell", "protocol"): st.sampled_from(["weak_coin", "coinflip"]),
    ("cell", "n"): st.integers(1, 16),
    ("cell", "params"): st.sampled_from([{}, {"tracing": False}]),
    ("cell", "scenario"): st.sampled_from(["dealer-ambush", "coin-split-brain"]),
    ("cell", "adversary"): st.sampled_from(
        [{}, {3: BehaviorSpec("crash")}, {0: BehaviorSpec("replay", {"max_replays": 2})}]
    ),
    ("cell", "scheduler"): st.sampled_from([None, SchedulerSpec("fifo"), SchedulerSpec("random")]),
    ("cell", "fault"): st.sampled_from([None, FaultSpec("sigkill"), FaultSpec("raise")]),
    ("request", "protocol"): st.sampled_from(["weak_coin", "coinflip", "coin"]),
    ("request", "params"): st.sampled_from([{}, {"tracing": True}]),
    ("request", "fault"): st.sampled_from([{"fault": "sigkill"}, {"fault": "raise"}]),
}


def _runner_cases():
    for protocol in RUNNERS.names():
        _, accepted = runner_signature(RUNNERS.get(protocol))
        for name, field in RUNNERS.fields(protocol).items():
            if name in accepted:
                yield ("runner", protocol, name, field)


def _row_cases():
    yield from _runner_cases()
    for kind, registry in (("behavior", BEHAVIORS), ("scheduler", SCHEDULERS), ("fault", FAULTS)):
        for row in registry.names():
            for name, field in registry.fields(row).items():
                yield (kind, row, name, field)
    for name, field in ExperimentSpec.FIELDS.items():
        yield ("cell", None, name, field)
    for name, field in ExecutionPolicy.FIELDS.items():
        yield ("policy", None, name, field)
    for name, field in BeaconRequest.FIELDS.items():
        yield ("request", None, name, field)


CASES = list(_row_cases())


def _cell(**overrides) -> ExperimentSpec:
    spec = dict(name="cell", protocol="weak_coin", n=N, seeds=[0])
    spec.update(overrides)
    return ExperimentSpec(**spec)


def _attempts(kind, row, name, value):
    """``[(callable, error type)]``: each must accept ``value`` or refuse it
    with exactly that error type."""
    if kind == "runner":
        params = dict(RUNNER_BASE.get(row, {}), **{name: value})
        request = BeaconRequest(protocol=row, n=N, seed=0, params=params)
        return [
            (lambda: CellExecutor(_cell(protocol=row, params=params)), ExperimentError),
            (request.validate, ServiceError),
        ]
    if kind == "behavior":
        spec = BehaviorSpec(row, dict(BEHAVIOR_BASE.get(row, {}), **{name: value}))
        return [(lambda: CellExecutor(_cell(adversary={3: spec})), ExperimentError)]
    if kind == "scheduler":
        spec = SchedulerSpec(row, dict(SCHEDULER_BASE.get(row, {}), **{name: value}))
        return [(lambda: CellExecutor(_cell(scheduler=spec)), ExperimentError)]
    if kind == "fault":
        fault = {"fault": row, "params": {name: value}}
        request = BeaconRequest(protocol="weak_coin", n=N, seed=0, fault=fault)
        return [
            (lambda: CellExecutor(_cell(fault=FaultSpec.from_dict(fault))), ExperimentError),
            (request.validate, ServiceError),
        ]
    if kind == "cell":
        cell = _cell()
        setattr(cell, name, value)
        return [(lambda: CellExecutor(cell), ExperimentError)]
    if kind == "policy":
        return [(ExecutionPolicy(**{name: value}).validate, ExperimentError)]
    request = BeaconRequest(protocol="weak_coin", n=N, seed=0, request_id="r-0")
    setattr(request, name, value)
    return [(request.validate, ServiceError)]


_IDS = [f"{kind}-{row}-{name}" if row else f"{kind}-{name}" for kind, row, name, _ in CASES]


@pytest.mark.parametrize("kind, row, name, field", CASES, ids=_IDS)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_near_miss_is_one_structured_error(kind, row, name, field, data):
    value = data.draw(_near_misses(field, N), label=name)
    for attempt, error in _attempts(kind, row, name, value):
        with pytest.raises(error) as caught:
            attempt()
        # Exactly the structured type: a ServiceError is never an
        # ExperimentError in disguise, nor the other way round.
        assert type(caught.value) is error, caught.value


@pytest.mark.parametrize(
    "kind, row, name, field",
    [case for case in CASES if not isinstance(case[3], schema.PyObject)],
    ids=[i for i, case in zip(_IDS, CASES) if not isinstance(case[3], schema.PyObject)],
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_valid_draw_builds(kind, row, name, field, data):
    valid = VALID[kind, name] if (kind, name) in VALID else _valid(field, N)
    value = data.draw(valid, label=name)
    for attempt, _ in _attempts(kind, row, name, value):
        attempt()


# ----------------------------------------------------------------------
def _accepted(registry, row):
    """The param names a registry row's builder takes (None: any, ``**kwargs``)."""
    target = registry.get(row)
    if registry is RUNNERS:
        return runner_signature(target)[1]
    owner = getattr(target, "__self__", None)  # a ``Behavior.factory`` classmethod
    parameters = inspect.signature(owner if inspect.isclass(owner) else target).parameters
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return None
    names = {p.name for p in parameters.values() if p.kind is not p.VAR_POSITIONAL}
    return names | set(FAULT_SELECTORS) if registry is FAULTS else names


@pytest.mark.parametrize(
    "registry", [RUNNERS, BEHAVIORS, SCHEDULERS, FAULTS], ids=lambda r: r.noun
)
def test_every_in_tree_row_declares_every_param_it_takes(registry):
    """A param a builder takes but no field declares would reach the builder
    unchecked; a declared field the builder does not take is a typo."""
    for row in registry.names():
        target = registry.get(row)
        if not target.__module__.startswith("repro."):
            continue  # a downstream row may declare nothing
        declared = registry.fields(row)
        assert declared is not None, f"{registry.noun} {row!r} declares no fields"
        accepted = _accepted(registry, row)
        if accepted is None:
            continue
        assert accepted <= set(declared), (
            f"{registry.noun} {row!r} takes undeclared params {sorted(accepted - set(declared))}"
        )
        if registry is not RUNNERS:  # the runners share one table
            assert set(declared) <= accepted, (
                f"{registry.noun} {row!r} declares params it does not take "
                f"{sorted(set(declared) - accepted)}"
            )


def test_the_walker_names_the_first_refused_field_in_declaration_order():
    fields = {"a": schema.Int(0), "b": schema.Bool()}
    assert schema.problem(fields, {"b": "x", "a": -1}, None) == (
        "param 'a' must be a non-negative integer, got -1"
    )
    assert schema.problem(fields, {"b": True, "c": object()}, None) is None
    assert schema.problem(None, {"a": "anything"}, None) is None
    assert schema.problem(fields, {"a": None}, None, "{}") == (
        "a must be a non-negative integer, got None"
    )


def test_party_selectors_resolve_against_n():
    fields = {"victims": schema.PartySelector(), "kinds": schema.ListOf(schema.Str())}
    params = {"victims": {"last_faulty": True}, "kinds": ["READY"]}
    assert schema.resolve(fields, params, 7) == {"victims": [5, 6], "kinds": ["READY"]}
    assert schema.problem(fields, {"victims": [6]}, None) is None
    assert "resolves outside 0..3" in schema.problem(fields, {"victims": [6]}, 4)


# ----------------------------------------------------------------------
# What the system emits: every declared field of a trace event, a campaign
# report and a metrics dump refuses its near misses wherever it sits, and
# every valid draw passes.  Emitted payloads know no ``n``, so a party id is
# only shape-checked.
def _event(kind):
    return {**ENVELOPE, "kind": schema.OneOf((kind,), required=True), **EVENTS[kind][0]}


PAYLOADS = {
    **{f"event-{kind}": (_event(kind), validate_event) for kind in sorted(EVENTS)},
    "report": (REPORT, validate_report),
    "metrics": (SERVICE_METRICS, validate_service_metrics),
}


def _paths(fields, path=()):
    """``(path, field)`` for every declared field, into nested tables; ``[]``
    steps into a map's values or a list's items."""
    for name, field in fields.items():
        here = path + (name,)
        yield here, field
        while isinstance(field, (schema.Map, schema.ListOf)):
            field, here = field.item, here + ("[]",)
        if isinstance(field, schema.Object):
            yield from _paths(field.fields, here)


def _holding(field, path, miss):
    """The smallest valid value of ``field`` with ``miss`` at ``path``."""
    if not path:
        return st.just(miss)
    head, rest = path[0], path[1:]
    if head == "[]":
        inner = _holding(field.item, rest, miss)
        return inner.map(lambda value: {"k": value} if isinstance(field, schema.Map) else [value])
    required = {
        name: _valid(other, N) for name, other in field.fields.items()
        if other.required and name != head
    }
    inner = _holding(field.fields[head], rest, miss)
    return st.builds(
        lambda base, value: {**base, head: value}, st.fixed_dictionaries(required), inner
    )


def _where(table, path):
    """How a problem at ``path`` is named, up to the first list (a list of
    scalars reads as a whole)."""
    field, where = schema.Object(table), ""
    for part in path:
        if part != "[]":
            field, where = field.fields[part], f"{where}.{part}" if where else part
        elif isinstance(field, schema.ListOf):
            break
        else:
            field, where = field.item, f"{where}['k']"
    return where


def _conserved(dump):
    """The drawn dump with its requests accounted for (a cross-field rule)."""
    counters = dump["counters"]
    counters["service.requests"] = sum(
        counters[name] for name in ("service.ok", "service.errors", "service.shed")
    ) + dump["pending"]
    return dump


OUTPUT_CASES = [
    (payload, path, field)
    for payload, (table, _) in PAYLOADS.items()
    for path, field in _paths(table)
    if _misses(field, None)
]


@pytest.mark.parametrize(
    "payload, path, field", OUTPUT_CASES,
    ids=[f"{payload}-{'.'.join(path).replace('[]', '*')}" for payload, path, _ in OUTPUT_CASES],
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_emitted_near_miss_is_refused_where_it_sits(payload, path, field, data):
    table, validate = PAYLOADS[payload]
    miss = data.draw(_near_misses(field, None), label="miss")
    value = data.draw(_holding(schema.Object(table), path, miss), label=payload)
    problems = validate(value)
    where = _where(table, path)
    assert problems and all(problem.startswith(where) for problem in problems), problems


#: Emitted payloads that must be refused, written out by hand: no row reads
#: a declaration, so loosening a field (``seq`` without its lower bound, a
#: ``party`` that takes a bool) fails here even though the drawn near misses
#: above, drawn from the declarations, loosen with it.
_SEND = {"step": 3, "kind": "send", "party": 0, "sender": 0, "receiver": 1,
         "session": ["coin", 0], "msg_kind": "ECHO", "seq": 5}
_CELL = {"trials": 1, "disagreement_rate": 0.0, "value_counts": {}, "mean_messages": 0.0,
         "mean_steps": 0.0}
_DUMP = {"schema": SERVICE_METRICS_SCHEMA, "counters": dict.fromkeys(SERVICE_COUNTERS, 0),
         "latency_ms": {"count": 0, "summary": {"count": 0}}, "pending": 0}
REFUSED = [
    (validate_event, _SEND, {"seq": -1}, "seq "),
    (validate_event, _SEND, {"seq": "5"}, "seq "),
    (validate_event, _SEND, {"seq": 1.5}, "seq "),
    (validate_event, _SEND, {"party": True}, "party "),
    (validate_event, _SEND, {"party": -1}, "party "),
    (validate_event, _SEND, {"step": -1}, "step "),
    (validate_event, _SEND, {"step": True}, "step "),
    (validate_event, _SEND, {"sender": True}, "sender "),
    (validate_event, _SEND, {"receiver": -2}, "receiver "),
    (validate_event, _SEND, {"session": "coin"}, "session "),
    (validate_event, _SEND, {"kind": "sent"}, "kind "),
    (validate_event, {**_SEND, "kind": "drop", "reason": "shunned"}, {"reason": ""}, "reason "),
    (validate_event, {**_SEND, "kind": "drop", "reason": "shunned"}, {"seq": -1}, "seq "),
    (validate_event, {"step": 1, "kind": "phase", "party": 0, "session": ["c"], "phase": "ready"},
     {"phase": ""}, "phase "),
    (validate_event, {"step": 1, "kind": "shun", "party": 0, "session": ["c"], "shunned": 2},
     {"shunned": False}, "shunned "),
    (validate_report, {"report_version": 1, "cells": {"c": _CELL}},
     {"cells": {"c": {**_CELL, "trials": -1}}}, "cells['c'].trials "),
    (validate_report, {"report_version": 1, "cells": {"c": _CELL}},
     {"cells": {"c": {**_CELL, "disagreement_rate": 1.5}}}, "cells['c'].disagreement_rate "),
    (validate_service_metrics, _DUMP, {"pending": True}, "pending "),
    (validate_service_metrics, _DUMP,
     {"counters": {**_DUMP["counters"], "service.ok": -1}}, "counters.service.ok "),
]


@pytest.mark.parametrize("validate, base, change, where", REFUSED)
def test_a_written_out_near_miss_is_refused_where_it_sits(validate, base, change, where):
    assert validate(base) == []
    problems = validate({**base, **change})
    assert problems and all(problem.startswith(where) for problem in problems), problems


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_valid_emitted_draw_passes(payload, data):
    table, validate = PAYLOADS[payload]
    value = data.draw(_object(table, N), label=payload)
    if payload == "metrics":
        _conserved(value)
    assert validate(value) == []


def test_a_dump_that_loses_a_request_is_refused():
    dump = {
        "schema": SERVICE_METRICS_SCHEMA,
        "counters": dict.fromkeys(SERVICE_COUNTERS, 0),
        "latency_ms": {"count": 0, "summary": {"count": 0}},
        "pending": 1,
    }
    assert validate_service_metrics(_conserved(dict(dump))) == []
    dump["counters"] = dict(dump["counters"], **{"service.ok": 1})
    assert validate_service_metrics(dump) == [
        "request conservation violated: requests=1 but ok+errors+shed+pending=2"
    ]


def test_a_table_names_every_problem_by_its_path():
    fields = {
        "a": schema.Int(0, required=True),
        "b": schema.Map(schema.Object({"c": schema.Bool()})),
    }
    assert list(schema.problems(fields, {"b": {"x": {"c": 1}, "y": 2}}, None, "{}")) == [
        "a is missing",
        "b['x'].c must be true or false, got 1",
        "b['y'] must be a JSON object, got 2",
    ]
    assert schema.problem(fields, {"a": -1, "b": 5}, None, "{}") == (
        "a must be a non-negative integer, got -1"
    )
