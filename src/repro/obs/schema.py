"""JSONL trace schema: event serialisation and validation.

One :class:`~repro.net.tracing.TraceEvent` maps to one JSON object (one line
in a ``.jsonl`` file) with the envelope ``{"step", "kind", "party", ...}``
plus kind-specific fields:

========== ==========================================================
kind        extra fields
========== ==========================================================
send        sender, receiver, session, msg_kind, seq
deliver     sender, receiver, session, msg_kind, seq
drop        reason, sender, receiver, session, msg_kind, seq
complete    session, value
shun        shunned, session
corrupt     --
phase       session, phase
session_open  session
director    action, detail
note        detail
========== ==========================================================

Sessions serialise as lists (JSON has no tuples); payload values and
free-form details pass through :func:`_jsonable`, which falls back to
``repr`` for anything JSON cannot carry, so writing never fails mid-run.
:func:`validate_jsonl` is the consumer-side check used by the CI smoke job
and ``python -m repro.obs validate``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.net.message import Message
from repro.net.tracing import TraceEvent

#: Event kinds a conforming JSONL trace may contain.
EVENT_KINDS = frozenset(
    [
        "send",
        "deliver",
        "drop",
        "complete",
        "shun",
        "corrupt",
        "phase",
        "session_open",
        "director",
        "note",
    ]
)

#: Required extra fields per event kind (the envelope step/kind/party is
#: always required; party may be null).
_REQUIRED_FIELDS: Dict[str, Tuple[str, ...]] = {
    "send": ("sender", "receiver", "session", "msg_kind", "seq"),
    "deliver": ("sender", "receiver", "session", "msg_kind", "seq"),
    "drop": ("reason", "sender", "receiver", "session", "msg_kind", "seq"),
    "complete": ("session", "value"),
    "shun": ("shunned", "session"),
    "corrupt": (),
    "phase": ("session", "phase"),
    "session_open": ("session",),
    "director": ("action", "detail"),
    "note": ("detail",),
}


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to a JSON-compatible value (repr fallback)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return repr(value)


def _message_fields(message: Message) -> Dict[str, Any]:
    return {
        "sender": message.sender,
        "receiver": message.receiver,
        "session": _jsonable(message.session),
        "msg_kind": _jsonable(message.kind),
        "seq": message.seq,
    }


def event_to_jsonable(event: TraceEvent) -> Dict[str, Any]:
    """Convert one trace event to its JSON-object (dict) form."""
    data: Dict[str, Any] = {
        "step": event.step,
        "kind": event.kind,
        "party": event.party,
    }
    kind = event.kind
    detail = event.detail
    if kind in ("send", "deliver"):
        data.update(_message_fields(detail))
    elif kind == "drop":
        reason, message = detail
        data["reason"] = reason
        data.update(_message_fields(message))
    elif kind == "complete":
        session, value = detail
        data["session"] = _jsonable(session)
        data["value"] = _jsonable(value)
    elif kind == "shun":
        shunned, session = detail
        data["shunned"] = shunned
        data["session"] = _jsonable(session)
    elif kind == "phase":
        session, phase = detail
        data["session"] = _jsonable(session)
        data["phase"] = phase
    elif kind == "session_open":
        data["session"] = _jsonable(detail)
    elif kind == "director":
        action, extra = detail
        data["action"] = action
        data["detail"] = _jsonable(extra)
    elif kind == "corrupt":
        pass
    else:  # note and any future free-form kinds
        data["detail"] = _jsonable(detail)
    return data


def validate_event(data: Any, lineno: int = 0) -> List[str]:
    """Schema-check one parsed event object; return a list of problems."""
    where = f"line {lineno}: " if lineno else ""
    if not isinstance(data, dict):
        return [f"{where}event is not a JSON object"]
    problems = []
    kind = data.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"{where}unknown event kind {kind!r}")
        return problems
    step = data.get("step")
    if not isinstance(step, int) or step < 0:
        problems.append(f"{where}step must be a non-negative integer, got {step!r}")
    party = data.get("party")
    if party is not None and not isinstance(party, int):
        problems.append(f"{where}party must be an integer or null, got {party!r}")
    for field in _REQUIRED_FIELDS[kind]:
        if field not in data:
            problems.append(f"{where}{kind} event missing field {field!r}")
    if "session" in data and "session" in _REQUIRED_FIELDS[kind]:
        if not isinstance(data.get("session"), list):
            problems.append(f"{where}session must be a list")
    return problems


def validate_events(
    lines: Iterable[str], max_problems: int = 20
) -> Tuple[int, List[str]]:
    """Validate an iterable of JSONL lines.

    Returns ``(event_count, problems)``; validation stops collecting after
    ``max_problems`` issues (the count keeps going).  Steps must be
    non-decreasing -- the trace is recorded in execution order.
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
        problems.extend(validate_event(data, lineno))
        step = data.get("step") if isinstance(data, dict) else None
        if isinstance(step, int):
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
# Structured campaign reports
#
# ``repro-experiments report --format json`` and ``ablate --format json``
# emit one JSON object per campaign with this shape (top-level keys marked
# (opt) are present only when the corresponding analysis ran):
#
#     {
#       "report_version": 1,
#       "campaign": "<campaign name>" | null,
#       "cells": {                     # per-cell TrialAggregate.summary()
#         "<cell>": {
#           "trials": int,
#           "disagreement_rate": float,
#           "value_counts": {"<repr(value)>": int, ...},
#           "mean_messages": float,
#           "mean_steps": float,
#           "mean_shun_events": float,
#           "mean_dropped": float,
#           "director_actions": {"<action>": int, ...},
#           "sent_by_kind": {"<kind>": int, ...},
#           "deliveries_per_s": int | null
#         }, ...
#       },
#       "histograms": {                # (opt) per-cell metric percentiles
#         "<cell>": {"<metric>": {"count": int, "mean": float|null,
#                                  "p50": float|null, "p90": float|null,
#                                  "p99": float|null, "max": float|null}}
#       },
#       "contribution": [...],         # (opt) ablation.contribution_table rows
#       "sweep": [...],                # (opt) ablation.sweep_table rows
#       "claims": {...},               # (opt) claims ClaimReport.to_dict()
#       "failures": {"<cell>": {...}}  # (opt) quarantine records
#     }
#
# The payload is deterministic for a given campaign + seeds (no timestamps;
# the advisory deliveries_per_s column is the only wall-clock-derived field).

#: Version tag of the structured campaign-report payload.
REPORT_VERSION = 1

#: Cell-summary keys every report must carry (older optional columns are
#: allowed to be absent so archived stores keep validating).
_SUMMARY_REQUIRED = (
    "trials",
    "disagreement_rate",
    "value_counts",
    "mean_messages",
    "mean_steps",
)

_CLAIM_STATUSES = frozenset({"pass", "fail", "skip"})


def validate_report(data: Any) -> List[str]:
    """Schema-check a structured campaign report; return a list of problems.

    Mirrors :func:`validate_event` in spirit: purely structural, no
    dependency on how the payload was produced, usable from CI on a JSON
    file that just crossed a process boundary.
    """
    if not isinstance(data, dict):
        return ["report is not a JSON object"]
    problems: List[str] = []
    version = data.get("report_version")
    if version != REPORT_VERSION:
        problems.append(
            f"report_version must be {REPORT_VERSION}, got {version!r}"
        )
    campaign = data.get("campaign")
    if campaign is not None and not isinstance(campaign, str):
        problems.append(f"campaign must be a string or null, got {campaign!r}")
    cells = data.get("cells")
    if not isinstance(cells, dict):
        problems.append("cells must be an object of per-cell summaries")
        cells = {}
    for name, summary in cells.items():
        if not isinstance(summary, dict):
            problems.append(f"cell {name!r}: summary is not an object")
            continue
        for key in _SUMMARY_REQUIRED:
            if key not in summary:
                problems.append(f"cell {name!r}: summary missing {key!r}")
        trials = summary.get("trials")
        if trials is not None and (not isinstance(trials, int) or trials < 0):
            problems.append(
                f"cell {name!r}: trials must be a non-negative integer"
            )
    histograms = data.get("histograms")
    if histograms is not None:
        if not isinstance(histograms, dict):
            problems.append("histograms must be an object keyed by cell")
        else:
            for cell, metrics in histograms.items():
                if not isinstance(metrics, dict):
                    problems.append(f"histograms[{cell!r}] is not an object")
                    continue
                for metric, summary in metrics.items():
                    if not isinstance(summary, dict) or "count" not in summary:
                        problems.append(
                            f"histograms[{cell!r}][{metric!r}] needs a 'count'"
                        )
    for key in ("contribution", "sweep"):
        rows = data.get(key)
        if rows is None:
            continue
        if not isinstance(rows, list):
            problems.append(f"{key} must be a list of row objects")
            continue
        for index, row in enumerate(rows):
            if not isinstance(row, dict) or "cell" not in row:
                problems.append(f"{key}[{index}] must be an object with 'cell'")
    claims = data.get("claims")
    if claims is not None:
        if not isinstance(claims, dict):
            problems.append("claims must be an object")
        else:
            if not isinstance(claims.get("passed"), bool):
                problems.append("claims.passed must be a boolean")
            entries = claims.get("claims")
            if not isinstance(entries, list):
                problems.append("claims.claims must be a list")
            else:
                for index, entry in enumerate(entries):
                    status = entry.get("status") if isinstance(entry, dict) else None
                    if status not in _CLAIM_STATUSES:
                        problems.append(
                            f"claims.claims[{index}].status must be one of "
                            f"{sorted(_CLAIM_STATUSES)}, got {status!r}"
                        )
    failures = data.get("failures")
    if failures is not None and not isinstance(failures, dict):
        problems.append("failures must be an object keyed by cell")
    return problems


# ----------------------------------------------------------------------
# Beacon-service metrics dumps
#
# ``BeaconService.metrics_dump()`` (and ``repro-experiments serve
# --metrics-json``) emits one JSON object with this shape:
#
#     {
#       "schema": "repro.service.metrics/v1",
#       "policy": {"shards": int, "queue_depth": int, ...},
#       "counters": {"service.requests": int, "service.ok": int,
#                    "service.errors": int, "service.shed": int,
#                    "service.retries": int, "service.timeouts": int,
#                    "service.shard_restarts": int,
#                    "service.heartbeat_failures": int,
#                    "service.warm_hits": int,   (opt)
#                    "service.spills": int,      (opt)
#                    ...},
#       "latency_ms": {<Histogram.to_dict()> + "summary": {...}},
#       "pending": int,
#       "uptime_s": float,          (opt)
#       "requests_per_s": float     (opt)
#     }
#
# ``service.spills`` counts requests dispatched to a shard other than their
# home slot (``BeaconRequest.shard_slot``): ``spills / ok`` beside
# ``warm_hits / ok`` says whether shape affinity is holding.

#: Schema tag of the beacon-service metrics payload.
SERVICE_METRICS_SCHEMA = "repro.service.metrics/v1"

#: Counters every service metrics dump must carry.
_SERVICE_COUNTERS_REQUIRED = (
    "service.requests",
    "service.ok",
    "service.errors",
    "service.shed",
    "service.retries",
    "service.timeouts",
    "service.shard_restarts",
    "service.heartbeat_failures",
)


def validate_service_metrics(data: Any) -> List[str]:
    """Schema-check a beacon-service metrics dump; return a problem list.

    Purely structural (like :func:`validate_report`): usable from the CI
    ``beacon-smoke`` job on a JSON file that just crossed a process boundary.
    Beyond shape, the only semantic check is conservation: every accepted
    request must be accounted for as ok, error, shed or still pending.
    """
    if not isinstance(data, dict):
        return ["service metrics dump is not a JSON object"]
    problems: List[str] = []
    schema = data.get("schema")
    if schema != SERVICE_METRICS_SCHEMA:
        problems.append(
            f"schema must be {SERVICE_METRICS_SCHEMA!r}, got {schema!r}"
        )
    counters = data.get("counters")
    if not isinstance(counters, dict):
        problems.append("counters must be an object")
        counters = {}
    for name in _SERVICE_COUNTERS_REQUIRED:
        value = counters.get(name)
        if not isinstance(value, int) or value < 0:
            problems.append(
                f"counters[{name!r}] must be a non-negative integer, got {value!r}"
            )
    latency = data.get("latency_ms")
    if not isinstance(latency, dict) or "count" not in latency:
        problems.append("latency_ms must be a histogram object with 'count'")
    elif not isinstance(latency.get("summary"), dict):
        problems.append("latency_ms.summary must be an object")
    pending = data.get("pending")
    if not isinstance(pending, int) or pending < 0:
        problems.append(f"pending must be a non-negative integer, got {pending!r}")
    if not problems:
        accounted = (
            counters["service.ok"]
            + counters["service.errors"]
            + counters["service.shed"]
            + pending
        )
        if accounted != counters["service.requests"]:
            problems.append(
                f"request conservation violated: requests="
                f"{counters['service.requests']} but ok+errors+shed+pending="
                f"{accounted}"
            )
    return problems
