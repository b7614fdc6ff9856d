"""Error types shared across the checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class SourceSpan:
    """Half-open byte range [start, end) within a named input."""

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
    """A single structured rejection: kind, message, optional span and partial trace."""

    def __init__(self, kind: str, message: str, span: Optional[SourceSpan] = None,
                 trace: Tuple = ()):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind: {kind}")
        self.kind = kind
        self.message = message
        self.span = span
        self.trace = tuple(trace)
        super().__init__(message)

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
