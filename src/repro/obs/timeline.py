"""Session timelines: per-party phase/round lanes built from trace events.

A :class:`TimelineBuilder` consumes the JSON form of trace events (see
:mod:`repro.obs.schema`) either live -- attached to a trace as a sink -- or
offline from a previously written JSONL file.  It keys one *lane* per
``(party, session)`` pair from ``session_open`` / ``phase`` / ``complete``
events (SVSS row->ready phases, ABA ``round-k``, coin ``iter-k``) and
renders the result as an aligned text report or as Chrome
``chrome://tracing`` / Perfetto JSON where the time axis is the
deterministic delivery-step counter, not wall-clock time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.tracing import TraceEvent
from repro.obs.schema import event_to_jsonable
from repro.obs.sinks import TraceSink

LaneKey = Tuple[int, Tuple[str, ...]]

#: Event kinds that create no lane or mark: they only advance the observed
#: step horizon, so the live sink path skips their JSON conversion.
_HORIZON_ONLY = frozenset(("send", "deliver"))


class _Lane:
    """One (party, session) timeline lane."""

    __slots__ = ("open_step", "phases", "complete_step", "value")

    def __init__(self) -> None:
        self.open_step: Optional[int] = None
        self.phases: List[Tuple[int, str]] = []
        self.complete_step: Optional[int] = None
        self.value: Any = None


class TimelineBuilder(TraceSink):
    """Builds per-party session timelines from trace events.

    Usable directly as a trace sink (``trace.add_sink(TimelineBuilder())``)
    or rebuilt offline with :meth:`from_jsonl`.  Only lifecycle events
    (``session_open``, ``phase``, ``complete``) create lanes; sends and
    deliveries only advance the observed step horizon, so attaching the
    builder to a full trace stays cheap.
    """

    def __init__(self) -> None:
        self._lanes: Dict[LaneKey, _Lane] = {}
        self.max_step = 0
        self.events_seen = 0
        self.marks: List[Tuple[int, str, Optional[int], Any]] = []

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if event.kind in _HORIZON_ONLY:
            self.events_seen += 1
            if event.step > self.max_step:
                self.max_step = event.step
        else:
            self.add(event_to_jsonable(event))

    def emit_many(self, events: Sequence[TraceEvent]) -> None:
        # A batch is the send events of one fan-out: one kind, one step.
        if events and events[0].kind in _HORIZON_ONLY:
            self.events_seen += len(events)
            if events[0].step > self.max_step:
                self.max_step = events[0].step
        else:
            super().emit_many(events)

    def add(self, data: Dict[str, Any]) -> None:
        """Ingest one event in its JSON-object form."""
        self.events_seen += 1
        step = data.get("step", 0)
        if step > self.max_step:
            self.max_step = step
        kind = data.get("kind")
        party = data.get("party")
        if kind == "session_open":
            self._lane(party, data["session"]).open_step = step
        elif kind == "phase":
            self._lane(party, data["session"]).phases.append((step, data["phase"]))
        elif kind == "complete":
            lane = self._lane(party, data["session"])
            lane.complete_step = step
            lane.value = data.get("value")
        elif kind in ("shun", "corrupt", "director"):
            detail = data.get("action") if kind == "director" else data.get("shunned")
            self.marks.append((step, kind, party, detail))

    def _lane(self, party: Any, session: Any) -> _Lane:
        key = (party, tuple(str(part) for part in session))
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = _Lane()
        return lane

    @classmethod
    def from_jsonl(cls, path: Any) -> "TimelineBuilder":
        """Rebuild a timeline from a JSONL trace file.

        Raises :class:`ValueError` naming the line for one that is not a
        trace event in its JSON-object form (``python -m repro.obs validate``
        lists every such line).
        """
        builder = cls()
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    builder.add(json.loads(line))
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(
                        f"line {lineno}: not a trace event ({exc!r})"
                    ) from None
        return builder

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def _sorted_lanes(self) -> List[Tuple[LaneKey, _Lane]]:
        return sorted(self._lanes.items(), key=lambda item: (item[0][1], item[0][0]))

    def render_text(self) -> str:
        """An aligned, deterministic text report of every session lane."""
        lines = [
            f"timeline: {self.events_seen} events, "
            f"{len(self._lanes)} lanes, steps 0..{self.max_step}"
        ]
        current_session: Optional[Tuple[str, ...]] = None
        for (party, session), lane in self._sorted_lanes():
            if session != current_session:
                current_session = session
                lines.append(f"session {'/'.join(session)}:")
            parts = []
            if lane.open_step is not None:
                parts.append(f"open@{lane.open_step}")
            parts.extend(f"{phase}@{step}" for step, phase in lane.phases)
            if lane.complete_step is not None:
                done = f"done@{lane.complete_step}"
                if lane.value is not None:
                    done += f"={lane.value}"
                parts.append(done)
            lines.append(f"  party {party}: " + (" ".join(parts) or "(no milestones)"))
        for step, kind, party, detail in sorted(
            self.marks, key=lambda mark: (mark[0], mark[1], str(mark[2]))
        ):
            lines.append(f"mark @{step}: {kind} party={party} {detail}")
        return "\n".join(lines) + "\n"

    def to_chrome_json(self) -> Dict[str, Any]:
        """Chrome ``chrome://tracing`` / Perfetto trace-event JSON.

        ``pid`` is the party, ``tid`` indexes the session lane, and ``ts`` /
        ``dur`` are measured in delivery steps (the simulator's deterministic
        clock), not microseconds.  Each phase becomes an ``X`` complete event
        spanning until the next phase (or completion / end of run); shun,
        corrupt and director actions become ``i`` instant events.
        """
        events: List[Dict[str, Any]] = []
        session_tids: Dict[Tuple[str, ...], int] = {}
        named_pids = set()
        for (party, session), lane in self._sorted_lanes():
            tid = session_tids.setdefault(session, len(session_tids))
            pid = party if party is not None else -1
            if pid not in named_pids:
                named_pids.add(pid)
                events.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "name": "process_name",
                        "args": {"name": f"party {pid}"},
                    }
                )
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": "/".join(session)},
                }
            )
            milestones: List[Tuple[int, str]] = []
            if lane.open_step is not None:
                milestones.append((lane.open_step, "open"))
            milestones.extend(lane.phases)
            end = lane.complete_step if lane.complete_step is not None else self.max_step
            for index, (step, phase) in enumerate(milestones):
                next_step = (
                    milestones[index + 1][0] if index + 1 < len(milestones) else end
                )
                events.append(
                    {
                        "name": phase,
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "ts": step,
                        "dur": max(next_step - step, 0),
                        "cat": "phase",
                    }
                )
            if lane.complete_step is not None:
                events.append(
                    {
                        "name": "complete",
                        "ph": "i",
                        "pid": pid,
                        "tid": tid,
                        "ts": lane.complete_step,
                        "s": "t",
                        "cat": "lifecycle",
                        "args": {"value": lane.value},
                    }
                )
        for step, kind, party, detail in sorted(
            self.marks, key=lambda mark: (mark[0], mark[1], str(mark[2]))
        ):
            events.append(
                {
                    "name": f"{kind}:{detail}" if detail is not None else kind,
                    "ph": "i",
                    "pid": party if party is not None else -1,
                    "tid": 0,
                    "ts": step,
                    "s": "g",
                    "cat": "fault",
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"time_axis": "delivery steps"},
        }
