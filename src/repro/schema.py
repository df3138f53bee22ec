"""One schema for every outside input and every emitted payload.

Campaign cells, policies, beacon requests, scenario and tamper specs and the
params of the four registries arrive as plain JSON; trace events, campaign
reports and beacon metrics dumps leave as JSON (their tables are in
:mod:`repro.obs.schema`).  Each key is declared once, as a typed
:class:`Field` in a table such as
``{"victims": PartySelector(null=True), "max_delay_steps": Int(0, null=True)}``,
and one walker, :func:`problems`, names every value its field refuses
(``param 'burst' must be a non-negative integer, got '2'``) and every
``required`` key that is absent; :func:`problem` names the first.  The
caller prefixes its row and cell.  A nested refusal is named by its path
(``cells['c'].trials must be ...``).  Values are checked as written:
``True`` and ``1.5`` are not integers, ``"false"`` is not a boolean.  Rules
that span keys (disjoint groups, a prime above ``n``, the corruption budget,
request conservation) stay with their callers.  ``n`` is the run's party
count, or None where none is known (a scenario's timeline, an emitted
payload): party ids are then only shape-checked.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence

from repro.errors import ExperimentError


def is_int(value: Any) -> bool:
    """True for an integer that is not a bool (``True`` is an int in Python)."""
    if type(value) is int:  # the common case, without the ABC check
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_object(value: Any) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


def _is_pid(value: Any, n: Optional[int]) -> bool:
    return is_int(value) and 0 <= value and (n is None or value < n)


def _pids(n: Optional[int]) -> str:
    return "party ids" if n is None else f"party ids in 0..{n - 1}"


def _nested(why: str) -> bool:
    """Whether a refusal is named by a path inside the value (``[0].status ...``)."""
    return why[:1] in ".["


def _at(path: str, why: str) -> str:
    """``why`` said of ``path``; a nested refusal continues the path."""
    return path + why if _nested(why) else f"{path} {why}"


class Field:
    """The check of one key; ``null=True`` also accepts None (JSON null),
    and ``required=True`` refuses a table that lacks the key.

    A subclass says what it :meth:`accepts` and how it reads in a message
    (:attr:`noun`, or :meth:`describe` when that depends on ``n``), or
    overrides :meth:`check` when the reason depends on the value.
    """

    #: What an accepted value is, as a message reads it.
    noun = ""

    def __init__(self, null: bool = False, required: bool = False) -> None:
        self.null, self.required = null, required

    def problem(self, value: Any, n: Optional[int]) -> Optional[str]:
        """Why ``value`` is refused at ``n``, as a ``must ...`` clause (or None)."""
        if value is None and self.null:
            return None
        return self.check(value, n)

    def problems(self, value: Any, n: Optional[int]) -> Sequence[str]:
        """Every reason ``value`` is refused (a :class:`Compound` has several)."""
        why = self.problem(value, n)
        return () if why is None else (why,)

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        return None if self.accepts(value, n) else self.refusal(value, n)

    def refusal(self, value: Any, n: Optional[int]) -> str:
        return f"must be {self.describe(n)}{' or null' if self.null else ''}, got {value!r}"

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        raise NotImplementedError

    def describe(self, n: Optional[int]) -> str:
        return self.noun

    def plural(self, n: Optional[int]) -> str:
        """:meth:`describe` as the items of a list read (``strings``)."""
        return self.describe(n).split(" ", 1)[1] + "s"

    def resolve(self, value: Any, n: int) -> Any:
        """The value the builder receives (a party selector's pid list)."""
        return value


class Int(Field):
    """An integer in ``lo..hi`` (either bound optional; ``nonzero`` refuses 0)."""

    def __init__(self, lo: Optional[int] = None, hi: Optional[int] = None,
                 nonzero: bool = False, **flags: bool) -> None:
        super().__init__(**flags)
        self.lo, self.hi, self.nonzero = lo, hi, nonzero

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return (
            is_int(value)
            and (self.lo is None or value >= self.lo)
            and (self.hi is None or value <= self.hi)
            and not (self.nonzero and value == 0)
        )

    def describe(self, n: Optional[int]) -> str:
        if self.hi is not None:
            return f"an integer in {self.lo}..{self.hi}"
        if self.nonzero or self.lo is None:
            return "a non-zero integer" if self.nonzero else "an integer"
        named = {0: "a non-negative integer", 1: "a positive integer"}
        return named.get(self.lo, f"an integer >= {self.lo}")

    def plural(self, n: Optional[int]) -> str:
        return self.describe(n).split(" ", 1)[1].replace("integer", "integers", 1)


class Real(Field):
    """A number (int or float, never a bool) in an interval, open unless closed."""

    def __init__(self, lo: float = 0, hi: float = math.inf, lo_closed: bool = False,
                 hi_closed: bool = False, **flags: bool) -> None:
        super().__init__(**flags)
        self.lo, self.hi = lo, hi
        self.lo_closed, self.hi_closed = lo_closed, hi_closed and hi != math.inf

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        above = value >= self.lo if self.lo_closed else value > self.lo
        return above and (value <= self.hi if self.hi_closed else value < self.hi)

    def describe(self, n: Optional[int]) -> str:
        if self.hi == math.inf:
            return f"a number {'>=' if self.lo_closed else '>'} {self.lo:g}"
        opening, closing = "[" if self.lo_closed else "(", "]" if self.hi_closed else ")"
        return f"a number in {opening}{self.lo:g}, {self.hi:g}{closing}"


class Bool(Field):
    """``true`` or ``false``."""

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return isinstance(value, bool)

    def describe(self, n: Optional[int]) -> str:
        return "true, false" if self.null else "true or false"


class Str(Field):
    """A string."""

    noun = "a string"

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return isinstance(value, str)


class Name(Field):
    """A non-empty string."""

    noun = "a non-empty string"

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return isinstance(value, str) and bool(value)


class Value(Field):
    """Any value but null (an A-Cast value, an input)."""

    noun = "a value"

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return value is not None


class OneOf(Field):
    """One of a fixed set of values (a trigger event, a version tag), of its type."""

    def __init__(self, choices: Sequence[Any], **flags: bool) -> None:
        super().__init__(**flags)
        self.choices = tuple(choices)

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return any(type(value) is type(choice) and value == choice for choice in self.choices)

    def describe(self, n: Optional[int]) -> str:
        return "one of " + ", ".join(map(repr, self.choices))


class JsonObject(Field):
    """A JSON object; its keys are another table's business (``reserved`` ones refused)."""

    noun = "a JSON object"

    def __init__(self, reserved: Sequence[str] = (), **flags: bool) -> None:
        super().__init__(**flags)
        self.reserved = frozenset(reserved)

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        taken = sorted(self.reserved.intersection(value)) if _is_object(value) else ()
        if taken:
            return f"may not override {', '.join(taken)} (use the dedicated spec fields)"
        return super().check(value, n)

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return _is_object(value)


class PyObject(Field):
    """A Python object (a trace sink, a coin source): no JSON spec can carry one."""

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        return "takes a Python object and cannot be set from a spec"


class Pid(Field):
    """One party id in ``0..n-1``."""

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return _is_pid(value, n)

    def describe(self, n: Optional[int]) -> str:
        return "a non-negative party id" if n is None else f"one party id in 0..{n - 1}"

    def plural(self, n: Optional[int]) -> str:
        return _pids(n)


class PartySelector(Field):
    """A party selector (:func:`repro.scenarios.predicates.resolve_parties`).

    Resolved at ``n`` when it is known (every pid it names must be in
    ``0..n-1``), shape-checked otherwise; the builder receives the pid list.
    """

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        # Imported here: the predicate language builds on this package.
        from repro.scenarios import predicates

        try:
            if n is None:
                predicates.validate_party_selector(value)
            else:
                predicates.resolve_parties(value, n)
        except (ExperimentError, TypeError, ValueError) as exc:
            over = "" if n is None else f" over 0..{n - 1}"
            return f"must be a party selector{over}: {exc}"
        return None

    def resolve(self, value: Any, n: int) -> Any:
        from repro.scenarios.predicates import resolve_parties

        return None if value is None else resolve_parties(value, n)


class SessionPattern(Field):
    """A session pattern (:func:`repro.scenarios.predicates.match_session`)."""

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        from repro.scenarios.predicates import validate_session_pattern

        try:
            validate_session_pattern(value)
        except ExperimentError as exc:
            return f"must be a session pattern: {exc}"
        return None


class InputMap(Field):
    """An agreement runner's inputs: party id -> input.

    ``domain`` is the values an input may take (None: any but null);
    ``every`` needs an input for every party.  Keys are ints (the runner
    row's normalizer turns a JSON object's string keys back first).
    """

    def __init__(self, domain: Optional[Sequence[Any]] = None, every: bool = False) -> None:
        super().__init__()
        self.domain, self.every = domain, every

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        if not _is_object(value):
            return f"must map party ids to inputs, got {value!r}"
        for pid, given in value.items():
            if not _is_pid(pid, n):
                return f"must map {_pids(n)} to inputs, got key {pid!r}"
            if self.domain is None and given is None:
                return f"must give party {pid} an input, got null"
            if self.domain is not None and not (is_int(given) and given in self.domain):
                choices = ", ".join(map(str, self.domain))
                return f"must give party {pid} one of {choices}, got {given!r}"
        if self.every and n is not None and len(value) < n:
            missing = sorted(set(range(n)) - set(value))
            return f"must give every party an input; no input for parties {missing}"
        return None


class Nested(Field):
    """A nested spec: an instance of ``spec`` whose own ``spec.FIELDS`` pass."""

    noun = "a JSON object"

    def __init__(self, spec: type, null: bool = False) -> None:
        super().__init__(null)
        self.spec = spec

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        if not isinstance(value, self.spec):
            return self.refusal(value, n)
        why = problem(self.spec.FIELDS, vars(value), n, "{}")
        return None if why is None else f"spec: {why}"


class PartyMap(Field):
    """Party id in ``0..n-1`` -> a value its ``item`` field accepts."""

    def __init__(self, item: Field) -> None:
        super().__init__()
        self.item = item

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        if not _is_object(value):
            return f"must be a JSON object, got {value!r}"
        for pid, item in value.items():
            if not _is_pid(pid, n):
                return f"key {pid!r} is not a party id{'' if n is None else f' in 0..{n - 1}'}"
            why = self.item.problem(item, n)
            if why is not None:
                return f"{pid} {why}"
        return None


class Compound(Field):
    """A field that walks what it holds: each refusal inside is its own
    problem, named by its path."""

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        return next(self.walk(value, n), None)

    def problems(self, value: Any, n: Optional[int]) -> Sequence[str]:
        return () if value is None and self.null else list(self.walk(value, n))

    def walk(self, value: Any, n: Optional[int]) -> Iterator[str]:
        raise NotImplementedError


class ListOf(Compound):
    """A list whose every item ``item`` accepts; ``nonempty`` refuses ``[]``.

    A refused scalar item refuses the list as a whole (``must be a list of
    strings, got ['a', 5]``); a refusal inside an item's own table is named
    by the item's index (``[0].status must be ...``).
    """

    def __init__(self, item: Field, nonempty: bool = False, **flags: bool) -> None:
        super().__init__(**flags)
        self.item, self.nonempty = item, nonempty

    def describe(self, n: Optional[int]) -> str:
        return f"a {'non-empty ' if self.nonempty else ''}list of {self.item.plural(n)}"

    def walk(self, value: Any, n: Optional[int]) -> Iterator[str]:
        if not isinstance(value, (list, tuple)) or (self.nonempty and not value):
            yield self.refusal(value, n)
            return
        for index, item in enumerate(value):
            for why in self.item.problems(item, n):
                if not _nested(why):
                    yield self.refusal(value, n)
                    return
                yield f"[{index}]{why}"


class Map(Compound):
    """A JSON object whose every value ``item`` accepts (keyed by a cell, a counter)."""

    noun = "a JSON object"

    def __init__(self, item: Field, **flags: bool) -> None:
        super().__init__(**flags)
        self.item = item

    def walk(self, value: Any, n: Optional[int]) -> Iterator[str]:
        if not _is_object(value):
            yield self.refusal(value, n)
            return
        for key, item in value.items():
            for why in self.item.problems(item, n):
                yield _at(f"[{key!r}]", why)


class Object(Compound):
    """A JSON object checked against a table; keys the table does not declare pass."""

    noun = "a JSON object"

    def __init__(self, fields: "Fields", **flags: bool) -> None:
        super().__init__(**flags)
        self.fields = fields

    def walk(self, value: Any, n: Optional[int]) -> Iterator[str]:
        if not _is_object(value):
            yield self.refusal(value, n)
            return
        yield from problems(self.fields, value, n, ".{}")


#: A params table: param name -> its field.
Fields = Mapping[str, Field]


def problems(fields: Optional[Fields], params: Mapping[str, Any], n: Optional[int],
             label: str = "param {!r}", closed: bool = False) -> Iterator[str]:
    """Each value in ``params`` its field refuses, as ``<label> must ...``.

    Fields are walked in declaration order, so the order of the problems
    does not depend on a JSON object's key order; an absent ``required``
    field is ``<label> is missing``.  A name the table does not declare is
    refused when ``closed``, and otherwise left to the caller (a builder's
    signature): a row that declares no fields is checked by name.
    """
    if not _is_object(params):
        yield f"params must be a JSON object, got {params!r}"
        return
    fields = fields or {}
    unknown = sorted(set(params) - set(fields)) if closed else ()
    if unknown:
        yield f"unknown keys {unknown}; known: {sorted(fields)}"
        return
    for name, field in fields.items():
        if name in params:
            for why in field.problems(params[name], n):
                yield _at(label.format(name), why)
        elif field.required:
            yield f"{label.format(name)} is missing"


def problem(fields: Optional[Fields], params: Mapping[str, Any], n: Optional[int],
            label: str = "param {!r}", closed: bool = False) -> Optional[str]:
    """The first of :func:`problems` (or None)."""
    return next(problems(fields, params, n, label, closed), None)


def resolve(fields: Optional[Fields], params: Mapping[str, Any], n: int) -> Dict[str, Any]:
    """``params`` as their builder receives them at ``n`` (checked first)."""
    fields = fields or {}
    return {
        name: fields[name].resolve(value, n) if name in fields else value
        for name, value in params.items()
    }


def jsonable(value: Any) -> Any:
    """``value`` as JSON can carry it: the one serialiser of emitted values.

    Primitives pass through; a list or tuple becomes a list and a dict an
    object with string keys, converted item by item; a set or frozenset
    becomes a list of its converted items, sorted by ``repr`` so that equal
    sets always read alike; anything else is its ``repr``.  Trace events
    (:mod:`repro.obs.schema`) and stored aggregates
    (:mod:`repro.core.results`) both write through it, so one output reads
    the same in both.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(item) for item in value), key=repr)
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return repr(value)
