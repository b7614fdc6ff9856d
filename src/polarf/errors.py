"""Error types shared across the checker."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple


@dataclass(frozen=True)
class SourceSpan:
    """Half-open range [start, end) within a named input, counted in
    characters of its text: for a file, the text decoded from UTF-8 with
    CRLF and CR read as LF.  The one span that counts bytes is that of the
    parse error "invalid UTF-8", at the first byte that does not decode."""

    file: str
    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"span start {self.start} is after end {self.end}")

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

    def __init__(self, kind: str, message, span: Optional[SourceSpan] = None,
                 trace: Tuple = ()):
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


def require(cond: bool, what: str):
    """Reject a call whose documented precondition does not hold."""
    if not cond:
        raise ValueError(what)
