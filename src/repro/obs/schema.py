"""What the system emits, declared as tables of the one schema (:mod:`repro.schema`).

* a JSONL trace: one object per :class:`~repro.net.tracing.TraceEvent`, the
  :data:`ENVELOPE` plus its kind's fields (:data:`EVENTS`), written by
  :func:`event_to_jsonable` and checked by :func:`validate_jsonl` (the CI
  smoke job and ``python -m repro.obs validate``);
* a campaign report (:data:`REPORT`), built by
  :func:`repro.experiments.report.build_report` and checked by
  :func:`validate_report`;
* a beacon metrics dump (:data:`SERVICE_METRICS`), built by
  ``BeaconService.metrics_dump`` and checked by
  :func:`validate_service_metrics`.

The tables are open: a key they do not declare passes.  Sessions serialise
as lists (JSON has no tuples); every event value passes through
:func:`repro.schema.jsonable`, which falls back to ``repr`` for anything JSON
cannot carry, so writing never fails mid-run.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro import schema
from repro.net.tracing import TraceEvent
from repro.schema import (
    Bool,
    Fields,
    Int,
    JsonObject,
    ListOf,
    Map,
    Name,
    Object,
    OneOf,
    Pid,
    Real,
    Str,
    Value,
    jsonable,
)

# ----------------------------------------------------------------------
# Trace events
_SESSION = ListOf(Value(null=True), required=True)
_PID = Pid(required=True)
_NAME = Name(required=True)
_ANY = Value(null=True, required=True)

#: A message's fields, in the order :func:`_message` reads them.
MESSAGE: Fields = {
    "sender": _PID,
    "receiver": _PID,
    "session": _SESSION,
    "msg_kind": Value(required=True),
    "seq": Int(0, required=True),
}


def _message(message: Any) -> Tuple[Any, ...]:
    return (message.sender, message.receiver, message.session, message.kind, message.seq)


#: Each event kind's fields after the envelope, and how its TraceEvent's
#: ``detail`` reads as their values (in the fields' order).
EVENTS: Dict[str, Tuple[Fields, Callable[[Any], Sequence[Any]]]] = {
    "send": (MESSAGE, _message),
    "deliver": (MESSAGE, _message),
    "drop": ({"reason": _NAME, **MESSAGE}, lambda detail: (detail[0], *_message(detail[1]))),
    "complete": ({"session": _SESSION, "value": _ANY}, tuple),
    "shun": ({"shunned": _PID, "session": _SESSION}, tuple),
    "corrupt": ({}, lambda detail: ()),
    "phase": ({"session": _SESSION, "phase": _NAME}, tuple),
    "session_open": ({"session": _SESSION}, lambda detail: (detail,)),
    "director": ({"action": _NAME, "detail": _ANY}, tuple),
    "note": ({"detail": _ANY}, lambda detail: (detail,)),
}

#: Event kinds a conforming JSONL trace may contain.
EVENT_KINDS = frozenset(EVENTS)

#: Every event's envelope; ``party`` is null for a global event.
ENVELOPE: Fields = {
    "step": Int(0, required=True),
    "kind": OneOf(sorted(EVENTS), required=True),
    "party": Pid(null=True),
}


def event_to_jsonable(event: TraceEvent) -> Dict[str, Any]:
    """Convert one trace event to its JSON-object (dict) form.

    A kind :data:`EVENTS` does not declare is free-form, like ``note``.
    """
    fields, values = EVENTS.get(event.kind, EVENTS["note"])
    data: Dict[str, Any] = {"step": event.step, "kind": event.kind, "party": event.party}
    data.update(zip(fields, map(jsonable, values(event.detail))))
    return data


def _problems(fields: Fields, data: Any, what: str, where: str = "") -> List[str]:
    """Every problem of the payload ``data`` against ``fields``."""
    if not isinstance(data, dict):
        return [f"{where}{what} is not a JSON object"]
    return list(schema.problems(fields, data, None, where + "{}"))


def validate_event(data: Any, lineno: int = 0) -> List[str]:
    """Schema-check one parsed event object; return a list of problems.

    An event whose kind is unknown is checked no further.
    """
    where = f"line {lineno}: " if lineno else ""
    problems = _problems({"kind": ENVELOPE["kind"]}, data, "event", where)
    if problems:
        return problems
    return _problems({**ENVELOPE, **EVENTS[data["kind"]][0]}, data, "event", where)


def validate_events(
    lines: Iterable[str], max_problems: int = 20
) -> Tuple[int, List[str]]:
    """Validate an iterable of JSONL lines.

    Returns ``(event_count, problems)``; validation stops collecting after
    ``max_problems`` issues (the count keeps going).  Steps must be
    non-decreasing -- the trace is recorded in execution order; the step is
    read off each event that passes.
    """
    count = 0
    problems: List[str] = []
    last_step = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        if len(problems) >= max_problems:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        event_problems = validate_event(data, lineno)
        problems.extend(event_problems)
        if not event_problems:
            step = data["step"]
            if step < last_step:
                problems.append(
                    f"line {lineno}: step {step} went backwards (previous {last_step})"
                )
            last_step = step
    return count, problems


def validate_jsonl(path: Any, max_problems: int = 20) -> Tuple[int, List[str]]:
    """Validate the JSONL trace file at ``path``; see :func:`validate_events`."""
    with open(path, "r", encoding="utf-8") as handle:
        return validate_events(handle, max_problems=max_problems)


# ----------------------------------------------------------------------
# Campaign reports: ``report --format json`` and ``ablate --format json``.
# An analysis that did not run is an absent key.  The only wall-clock
# derived values are the advisory throughput columns.

#: Version tag of the structured campaign-report payload.
REPORT_VERSION = 1

_COUNT = Int(0)
_AMOUNT = Real(0, lo_closed=True)
_COUNTS = Map(_COUNT)

#: One cell's row: :meth:`~repro.core.results.TrialAggregate.summary`.  The
#: later columns may be absent, so archived reports keep validating.
CELL_SUMMARY: Fields = {
    "trials": Int(0, required=True),
    "disagreement_rate": Real(0, 1, lo_closed=True, hi_closed=True, required=True),
    "value_counts": Map(_COUNT, required=True),
    "mean_messages": Real(0, lo_closed=True, required=True),
    "mean_steps": Real(0, lo_closed=True, required=True),
    "mean_shun_events": _AMOUNT,
    "mean_dropped": _AMOUNT,
    "director_actions": _COUNTS,
    "sent_by_kind": _COUNTS,
    "deliveries_per_s": Int(0, null=True),
}

_STAT = Real(0, lo_closed=True, null=True)

#: A histogram's headline numbers (:func:`~repro.obs.metrics.summarize_histogram`).
HISTOGRAM_SUMMARY: Fields = {
    "count": Int(0, required=True),
    "mean": _STAT,
    "p50": _STAT,
    "p90": _STAT,
    "p99": _STAT,
    "max": _STAT,
}

#: One claim's verdict (:meth:`~repro.analysis.claims.ClaimResult.to_dict`).
CLAIM: Fields = {
    "claim": Name(required=True),
    "statement": Str(),
    "status": OneOf(("pass", "fail", "skip"), required=True),
    "detail": Str(),
    "cells": ListOf(Str()),
}

#: Every claim's verdict (:meth:`~repro.analysis.claims.ClaimReport.to_dict`).
CLAIMS: Fields = {
    "campaign": Str(),
    "passed": Bool(required=True),
    "counts": _COUNTS,
    "claims": ListOf(Object(CLAIM), required=True),
}

#: A row of a contribution or sweep table; its columns are the report's
#: sections' business (:data:`repro.experiments.report.SECTIONS`).
_ROWS = ListOf(Object({"cell": Name(required=True)}))

REPORT: Fields = {
    "report_version": OneOf((REPORT_VERSION,), required=True),
    "campaign": Str(null=True),
    "cells": Map(Object(CELL_SUMMARY), required=True),
    # cell -> metric -> summary, for cells whose trials kept histograms
    "histograms": Map(Map(Object(HISTOGRAM_SUMMARY))),
    "contribution": _ROWS,
    "sweep": _ROWS,
    "claims": Object(CLAIMS),
    # cell -> its quarantine record (``Failure.to_record``)
    "failures": Map(Object({"kind": _NAME, "attempts": _COUNT})),
}


def validate_report(data: Any) -> List[str]:
    """Schema-check a structured campaign report; return a list of problems.

    Purely structural, no dependency on how the payload was produced, usable
    from CI on a JSON file that just crossed a process boundary.
    """
    return _problems(REPORT, data, "report")


# ----------------------------------------------------------------------
# Beacon-service metrics dumps: ``BeaconService.metrics_dump()`` and
# ``repro-experiments serve --metrics-json``.

#: Schema tag of the beacon-service metrics payload.
SERVICE_METRICS_SCHEMA = "repro.service.metrics/v1"

#: The counters of every dump, in dump order; the first four are the terms
#: of request conservation.  ``service.spills`` counts requests run on a
#: shard other than their home slot: ``spills / ok`` beside
#: ``warm_hits / ok`` says whether shape affinity is holding.
SERVICE_COUNTERS = (
    "service.requests", "service.ok", "service.errors", "service.shed",
    "service.retries", "service.timeouts", "service.shard_restarts",
    "service.heartbeat_failures", "service.warm_hits", "service.spills",
)

#: A latency histogram (``Histogram.to_dict``) plus its headline numbers.
_LATENCY = {"count": Int(0, required=True), "summary": Object(HISTOGRAM_SUMMARY, required=True)}

SERVICE_METRICS: Fields = {
    "schema": OneOf((SERVICE_METRICS_SCHEMA,), required=True),
    # the ServicePolicy knobs, checked where the policy is built
    "policy": JsonObject(),
    "counters": Object(dict.fromkeys(SERVICE_COUNTERS, Int(0, required=True)), required=True),
    "latency_ms": Object(_LATENCY, required=True),
    "exec_ms": Object(_LATENCY),
    "pending": Int(0, required=True),
    "uptime_s": _AMOUNT,
    "requests_per_s": Real(0, lo_closed=True, null=True),
}


def _conservation(data: Dict[str, Any]) -> List[str]:
    """Every accepted request is ok, an error, shed or still pending."""
    requests, *answered = (data["counters"][name] for name in SERVICE_COUNTERS[:4])
    accounted = sum(answered) + data["pending"]
    if accounted == requests:
        return []
    return [
        f"request conservation violated: requests={requests} but "
        f"ok+errors+shed+pending={accounted}"
    ]


def validate_service_metrics(data: Any) -> List[str]:
    """Schema-check a beacon-service metrics dump; return a problem list.

    Beyond shape, the only semantic check is conservation, made once the
    shape holds.
    """
    return _problems(SERVICE_METRICS, data, "service metrics dump") or _conservation(data)
