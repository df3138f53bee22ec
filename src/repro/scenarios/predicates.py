"""The scenario predicate language: who/what an attack targets, by description.

Scenarios never hard-code party id lists -- they *describe* their targets, and
the engine resolves the description against the concrete system size when a
scenario is instantiated.  Three small vocabularies cover everything the
attack library needs:

* **party selectors** (:func:`resolve_parties`) -- JSON forms naming a set of
  parties relative to ``n``: explicit pids, the first/last ``k``, a half of
  the network, a stride, or "the maximal faulty set" (the last ``t`` parties);
* **session patterns** (:func:`match_session`) -- structural matches against
  hierarchical session ids, with a ``{"pid": true}`` component that captures
  the party id embedded in the session (e.g. the dealer of an SVSS instance);
* **message predicates** (:func:`compile_message_predicate`) -- conjunctive
  filters over in-flight messages (sender/receiver selectors, root protocol,
  payload kind, session pattern) used by the hostile scheduler family,
  compiled to a :class:`~repro.net.scheduler.Filter`.

The style follows attribute-based communication (arXiv:1602.05635): attacks
address *predicates over attributes*, not enumerated processes, which is what
lets one scenario definition scale from ``n = 4`` to ``n = 64`` unchanged.
It also makes a predicate cheap on a fan-out: the copies of a broadcast
share every attribute but the receiver, so one evaluation names the
receivers it matches.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro import schema
from repro.core.config import max_faults
from repro.errors import ExperimentError
from repro.net.message import SessionId
from repro.net.queues import everyone
from repro.net.scheduler import NOBODY, Filter
from repro.schema import is_int

#: A party selector: an int, an explicit pid list, or a keyword mapping.
PartySelector = Any
#: A session pattern: a list of component patterns (see :func:`match_session`).
SessionPattern = Sequence[Any]

#: Pattern component capturing an embedded party id.
_PID_CAPTURE = {"pid": True}
#: Pattern component matching any single session component.
_WILDCARD = "*"
#: Leading pattern component matching any session prefix.
_ELLIPSIS = "..."


def resolve_parties(selector: PartySelector, n: int) -> List[int]:
    """Resolve a party selector against a system of ``n`` parties.

    Supported forms:

    * ``3`` / ``[0, 2, 5]`` -- explicit pid(s);
    * ``{"pids": [...]}`` -- explicit pids, spelled out;
    * ``{"first": k}`` / ``{"last": k}`` -- the lowest / highest ``k`` pids;
    * ``{"half": "low" | "high"}`` -- one half of the network (the high half
      gets the extra party when ``n`` is odd);
    * ``{"every": s, "offset": o}`` -- pids congruent to ``o`` modulo ``s``;
    * ``{"last_faulty": true}`` -- the last ``t = (n - 1) // 3`` parties, the
      canonical maximal corruptible coalition.

    Returns a sorted, de-duplicated pid list; raises
    :class:`~repro.errors.ExperimentError` on unknown forms or out-of-range
    pids.
    """
    out = sorted(set(_selected_pids(selector, n)))
    for pid in out:
        if not 0 <= pid < n:
            raise ExperimentError(
                f"party selector {selector!r} resolves outside 0..{n - 1}: {pid}"
            )
    return out


def _selected_pids(selector: PartySelector, n: int) -> List[int]:
    """The pids ``selector`` names at ``n`` (unsorted, not yet range-checked)."""
    if isinstance(selector, bool):
        raise ExperimentError(f"invalid party selector {selector!r}")
    if isinstance(selector, int):
        return [selector]
    if isinstance(selector, (list, tuple)):
        return _explicit_pids(selector, selector)
    if isinstance(selector, Mapping):
        return _resolve_mapping(selector, n)
    raise ExperimentError(f"invalid party selector {selector!r}")


def _explicit_pids(selector: PartySelector, pids: Any) -> List[int]:
    """An explicit pid list, refusing any entry that is not an int (``int()``
    would read ``true`` as 1 and truncate ``1.5``)."""
    if not isinstance(pids, (list, tuple)):
        raise ExperimentError(f"party selector {selector!r} needs a list of pids")
    for pid in pids:
        if not is_int(pid):
            raise ExperimentError(
                f"party selector {selector!r} names a pid that is not an integer: {pid!r}"
            )
    return [int(pid) for pid in pids]


def _resolve_mapping(selector: Mapping[str, Any], n: int) -> List[int]:
    if "pids" in selector:
        return _explicit_pids(selector, selector["pids"])
    if "first" in selector:
        return list(range(min(int(selector["first"]), n)))
    if "last" in selector:
        count = min(int(selector["last"]), n)
        return list(range(n - count, n))
    if "half" in selector:
        side = selector["half"]
        if side == "low":
            return list(range(n // 2))
        if side == "high":
            return list(range(n // 2, n))
        raise ExperimentError(f"half selector must be 'low' or 'high', got {side!r}")
    if "every" in selector:
        stride = int(selector["every"])
        offset = int(selector.get("offset", 0))
        if stride < 1:
            raise ExperimentError(f"every-selector stride must be >= 1, got {stride}")
        return [pid for pid in range(n) if pid % stride == offset % stride]
    if "last_faulty" in selector and selector["last_faulty"]:
        t = max_faults(n)
        return list(range(n - t, n))
    raise ExperimentError(f"unknown party selector form {selector!r}")


#: System size selectors are shape-checked at: the smallest one (``t = 1``).
_SHAPE_CHECK_N = 4


def validate_party_selector(selector: PartySelector) -> None:
    """Shape-check a selector without a concrete ``n`` (spec validation).

    The range forms (``first`` / ``last`` / ``half`` / ``every`` /
    ``last_faulty``) stay inside ``0..n-1`` at every ``n`` by construction,
    so resolving them at the smallest system size checks their shape;
    explicit pids only have to be non-negative here -- their upper bound is
    checked by :func:`resolve_parties` once the scenario meets a concrete
    ``n``.
    """
    for pid in _selected_pids(selector, _SHAPE_CHECK_N):
        if pid < 0:
            raise ExperimentError(
                f"party selector {selector!r} names a negative pid: {pid}"
            )


# ----------------------------------------------------------------------
# Session patterns.
# ----------------------------------------------------------------------
def match_session(pattern: SessionPattern, session: SessionId) -> Optional[Dict[str, Any]]:
    """Match ``session`` against ``pattern``; return captures or ``None``.

    Each pattern component matches one session component: ``"*"`` matches
    anything, ``{"pid": true}`` matches an ``int`` and captures it under
    ``"pid"``, anything else must compare equal.  A leading ``"..."`` lets the
    rest of the pattern match any *suffix* of the session, which is how
    scenarios address protocol layers without knowing the full stack above
    them (``["...", "share", {"pid": true}]`` matches an SVSS share session
    wherever it is spawned).
    """
    pattern = list(pattern)
    if pattern and pattern[0] == _ELLIPSIS:
        tail = pattern[1:]
        if len(tail) > len(session):
            return None
        return _match_exact(tail, tuple(session)[len(session) - len(tail):])
    return _match_exact(pattern, tuple(session))


def _match_exact(pattern: List[Any], session: SessionId) -> Optional[Dict[str, Any]]:
    if len(pattern) != len(session):
        return None
    captures: Dict[str, Any] = {}
    for component, actual in zip(pattern, session):
        if component == _WILDCARD:
            continue
        if component == _PID_CAPTURE:
            if isinstance(actual, bool) or not isinstance(actual, int):
                return None
            captures["pid"] = actual
            continue
        if component != actual:
            return None
    return captures


def validate_session_pattern(pattern: Any) -> None:
    """Shape-check a session pattern; raise :class:`ExperimentError`."""
    if not isinstance(pattern, (list, tuple)) or not pattern:
        raise ExperimentError(f"session pattern must be a non-empty list, got {pattern!r}")
    body = pattern[1:] if pattern[0] == _ELLIPSIS else pattern
    for component in body:
        if component == _ELLIPSIS:
            raise ExperimentError('"..." is only valid as the first pattern component')
        if isinstance(component, Mapping) and component != _PID_CAPTURE:
            raise ExperimentError(f"unknown pattern component {component!r}")


# ----------------------------------------------------------------------
# Message predicates (the hostile schedulers' targeting language).
# ----------------------------------------------------------------------
#: The keys of a message predicate (all optional, conjunctive).
PREDICATE_FIELDS = {
    "senders": schema.PartySelector(),
    "receivers": schema.PartySelector(),
    "roots": schema.ListOf(schema.Str()),
    "kinds": schema.ListOf(schema.Str()),
    "session": schema.SessionPattern(),
}


def validate_message_predicate(spec: Mapping[str, Any], n: Optional[int] = None) -> None:
    """Check a message-predicate spec at ``n`` (None: shape only)."""
    problem = schema.problem(PREDICATE_FIELDS, spec, n, closed=True)
    if problem is not None:
        raise ExperimentError(f"message predicate: {problem}")


def compile_message_predicate(spec: Mapping[str, Any], n: int) -> Filter:
    """Compile a JSON message-predicate spec into a :class:`Filter`.

    Recognised (conjunctive) keys: ``senders`` / ``receivers`` (party
    selectors), ``roots`` (top-level protocol names), ``kinds`` (payload kind
    tags), ``session`` (a session pattern).  An empty spec matches everything.
    The filter reads the sender, root, kind and session once per fan-out and
    names the matching receivers; called on a Message it is the predicate.
    """
    validate_message_predicate(spec, n)
    parts = schema.resolve(PREDICATE_FIELDS, spec, n)
    senders, receivers, roots, kinds = (
        frozenset(parts[key]) if key in parts else None
        for key in ("senders", "receivers", "roots", "kinds")
    )
    session_pattern = parts.get("session")

    def matching(fanout: Any, size: int) -> frozenset:
        if senders is not None and fanout.sender not in senders:
            return NOBODY
        if roots is not None and fanout.root not in roots:
            return NOBODY
        if kinds is not None and fanout.kind not in kinds:
            return NOBODY
        if session_pattern is not None and match_session(session_pattern, fanout.session) is None:
            return NOBODY
        return everyone(size) if receivers is None else receivers

    return Filter(matching)
