"""Error types shared across the checker."""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter


class Record:
    """A value compared, hashed and printed by the fields its class names in
    `_fields`, not by its other slots (a span, a term's size, a type's
    facts): `==` holds between instances of one class with equal fields,
    `hash` is that of the fields' tuple, `repr` is `Class(field=value, ...)`.
    A subclass writes its `__slots__` and `__init__`; `__init_subclass__`
    gives it `__eq__` and `_rehash`, its `__hash__` unless it has its own."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__dict__.get("_fields")
        if fields is None:
            return
        key, one = attrgetter(*fields), len(fields) == 1  # of one field: its value

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def _rehash(self):
            return hash((key(self),) if one else key(self))

        cls.__eq__, cls._rehash = __eq__, _rehash
        if cls.__hash__ is object.__hash__:  # not a composite type or a Context
            cls.__hash__ = _rehash

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class SourceSpan(Record):
    """Half-open range [start, end) within a named input, counted in
    characters of its text: for a file, the text decoded from UTF-8 with
    CRLF and CR read as LF.  The one span that counts bytes is that of the
    parse error "invalid UTF-8", at the first byte that does not decode."""

    __slots__ = _fields = ("file", "start", "end")

    def __init__(self, file: str, start: int, end: int):
        if start > end:
            raise ValueError(f"span start {start} is after end {end}")
        self.file, self.start, self.end = file, start, end

    def __str__(self) -> str:
        return f"{self.file}:{self.start}-{self.end}"


# kinds a rejection can carry; everything else is an internal bug
ERROR_KINDS = (
    "parse",
    "unbound-variable",
    "subtype-failure",
    "ambiguous-let",
    "arity",
    "shape",
)


class TypeCheckError(Exception):
    """A single structured rejection: kind, message, optional span and partial trace.

    The message may be given as `parts` (text, and the types, terms or
    contexts it names), printed when `message` is first read."""

    def __init__(self, kind: str, message, span: SourceSpan | None = None,
                 trace: tuple = ()):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind: {kind}")
        self.kind = kind
        self.parts = (message,) if isinstance(message, str) else tuple(message)
        self.span = span
        self.trace = tuple(trace)

    @cached_property
    def message(self) -> str:
        from .subtype import show  # not at the top: subtype imports this module
        return show(self.parts)

    def __str__(self) -> str:
        at = f" at {self.span}" if self.span is not None else ""
        return f"[{self.kind}] {self.message}{at}"


class InvariantViolation(Exception):
    """An internal postcondition or metric assertion failed; never a user error."""


class OracleBudgetExceeded(Exception):
    """The bounded declarative search ran out of budget; fail loudly, never silently."""


def require(cond: bool, what: str, error=ValueError):
    """Reject a call whose documented precondition does not hold, with
    `error`: by default a ValueError, since meeting it is the caller's job."""
    if not cond:
        raise error(what)
