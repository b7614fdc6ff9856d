"""The error values: how a rejection prints, and what they refuse to build."""

import pytest

from polarf import SourceSpan, TypeCheckError


def test_a_rejection_prints_its_kind_message_and_span():
    err = TypeCheckError("arity", "too many arguments", SourceSpan("f.ipf", 3, 7))
    assert str(err) == "[arity] too many arguments at f.ipf:3-7"


def test_a_rejection_without_a_span_prints_none():
    assert str(TypeCheckError("parse", "unexpected end of input")) == \
        "[parse] unexpected end of input"


def test_a_span_may_be_empty_but_not_reversed():
    assert str(SourceSpan("f", 4, 4)) == "f:4-4"
    with pytest.raises(ValueError, match="span start 5 is after end 4"):
        SourceSpan("f", 5, 4)


def test_an_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown error kind: typo"):
        TypeCheckError("typo", "message")
