"""One parameter schema for every outside input.

Campaign cells, policies, beacon requests, scenario and tamper specs and the
params of the four registries arrive as plain JSON.  Each param is declared
once, as a typed :class:`Field` in a table such as
``{"victims": PartySelector(null=True), "max_delay_steps": Int(0, null=True)}``,
and one walker, :func:`problem`, names the first value its field refuses
(``param 'burst' must be a non-negative integer, got '2'``); the caller
prefixes its row and cell.  Values are checked as written: ``True`` and
``1.5`` are not integers, ``"false"`` is not a boolean.  Rules that span
params (disjoint groups, a prime above ``n``, the corruption budget) stay
with their callers.  ``n`` is the run's party count, or None where none is
known yet (a scenario's timeline): party ids are then only shape-checked.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Dict, Mapping, Optional, Sequence

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


class Field:
    """The check of one param; ``null=True`` also accepts None (JSON null).

    A subclass says what it :meth:`accepts` and how it reads in a message
    (:attr:`noun`, or :meth:`describe` when that depends on ``n``), or
    overrides :meth:`check` when the reason depends on the value.
    """

    #: What an accepted value is, as a message reads it.
    noun = ""

    def __init__(self, null: bool = False) -> None:
        self.null = null

    def problem(self, value: Any, n: Optional[int]) -> Optional[str]:
        """Why ``value`` is refused at ``n``, as a ``must ...`` clause (or None)."""
        if value is None and self.null:
            return None
        return self.check(value, n)

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        if self.accepts(value, n):
            return None
        return f"must be {self.describe(n)}{' or null' if self.null else ''}, got {value!r}"

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        raise NotImplementedError

    def describe(self, n: Optional[int]) -> str:
        return self.noun

    def resolve(self, value: Any, n: int) -> Any:
        """The value the builder receives (a party selector's pid list)."""
        return value


class Int(Field):
    """An integer in ``lo..hi`` (either bound optional; ``nonzero`` refuses 0)."""

    def __init__(self, lo: Optional[int] = None, hi: Optional[int] = None,
                 nonzero: bool = False, null: bool = False) -> None:
        super().__init__(null)
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


class Real(Field):
    """A number (int or float, never a bool) in an interval, open unless closed."""

    def __init__(self, lo: float = 0, hi: float = math.inf, lo_closed: bool = False,
                 hi_closed: bool = False, null: bool = False) -> None:
        super().__init__(null)
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
    """One of a fixed set of values (a trigger event, a transition name)."""

    def __init__(self, choices: Sequence[Any], null: bool = False) -> None:
        super().__init__(null)
        self.choices = tuple(choices)

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return isinstance(value, str) and value in self.choices

    def describe(self, n: Optional[int]) -> str:
        return "one of " + ", ".join(map(repr, self.choices))


class JsonObject(Field):
    """A JSON object; its keys are another table's business (``reserved`` ones refused)."""

    noun = "a JSON object"

    def __init__(self, reserved: Sequence[str] = (), null: bool = False) -> None:
        super().__init__(null)
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


class StrList(Field):
    """A list of strings (a bare string would be read as its characters)."""

    noun = "a list of strings"

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


class IntList(Field):
    """A list of integers ``>= lo``; ``nonempty`` refuses ``[]``."""

    def __init__(self, lo: Optional[int] = None, nonempty: bool = False,
                 null: bool = False) -> None:
        super().__init__(null)
        self.item, self.nonempty = Int(lo), nonempty

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return (
            isinstance(value, (list, tuple))
            and (bool(value) or not self.nonempty)
            and all(self.item.accepts(item, n) for item in value)
        )

    def describe(self, n: Optional[int]) -> str:
        items = self.item.describe(n).split(" ", 1)[1]  # "a non-negative integer"
        return f"a {'non-empty ' if self.nonempty else ''}list of {items}s"


class Pid(Field):
    """One party id in ``0..n-1``."""

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return _is_pid(value, n)

    def describe(self, n: Optional[int]) -> str:
        return "a non-negative party id" if n is None else f"one party id in 0..{n - 1}"


class PidList(Field):
    """A list of party ids in ``0..n-1``."""

    def accepts(self, value: Any, n: Optional[int]) -> bool:
        return isinstance(value, (list, tuple)) and all(_is_pid(pid, n) for pid in value)

    def describe(self, n: Optional[int]) -> str:
        return f"a list of {_pids(n)}"


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

    def __init__(self, spec: type, null: bool = False) -> None:
        super().__init__(null)
        self.spec = spec

    def check(self, value: Any, n: Optional[int]) -> Optional[str]:
        if not isinstance(value, self.spec):
            return f"must be a JSON object{' or null' if self.null else ''}, got {value!r}"
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


#: A params table: param name -> its field.
Fields = Mapping[str, Field]


def problem(fields: Optional[Fields], params: Mapping[str, Any], n: Optional[int],
            label: str = "param {!r}", closed: bool = False) -> Optional[str]:
    """The first value in ``params`` its field refuses, as ``<label> must ...`` (or None).

    Fields are walked in declaration order, so which problem is named does
    not depend on a JSON object's key order.  A name the table does not
    declare is refused when ``closed``, and otherwise left to the caller (a
    builder's signature): a row that declares no fields is checked by name.
    """
    if not _is_object(params):
        return f"params must be a JSON object, got {params!r}"
    fields = fields or {}
    unknown = sorted(set(params) - set(fields)) if closed else ()
    if unknown:
        return f"unknown keys {unknown}; known: {sorted(fields)}"
    for name, field in fields.items():
        if name in params:
            why = field.problem(params[name], n)
            if why is not None:
                return f"{label.format(name)} {why}"
    return None


def resolve(fields: Optional[Fields], params: Mapping[str, Any], n: int) -> Dict[str, Any]:
    """``params`` as their builder receives them at ``n`` (checked first)."""
    fields = fields or {}
    return {
        name: fields[name].resolve(value, n) if name in fields else value
        for name, value in params.items()
    }
