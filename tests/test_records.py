"""The value classes (`errors.Record` and its subclasses) behave as the
frozen dataclasses they replaced: one instance of each of the 29 classes
prints as a literal recorded from the dataclasses, is equal to and hashes
like a twin built again, differs from a copy with one compared field
changed, ignores its span (and a quantifier its hint), builds from keyword
arguments, and survives `copy`, `deepcopy` and `pickle`.

A hash is that of the tuple of the compared fields, listed here by class
so that a change to a class's `_fields` shows.  Slots no class compares
(spans, a term's size, a type's facts) are not in that tuple.
"""

import copy
import pickle

import pytest

from polarf import (
    Arrow, BVar, BoolLit, Context, Data, DataDecl, Down, EVar, Forall, IntLit,
    Lambda, Let, LetAnn, NegData, PairVal, Program, Return, Solved, SourceSpan,
    SubtypeResult, SynthResult, Thunk, TypeAbs, TypeEnv, UVar, Universal,
    Unsolved, Up, Var,
)
from polarf.corpus import Example


def cases():
    """(class, keyword arguments, the same with one compared field changed,
    compared fields, `repr`), built afresh on each call."""
    Int, Bool, a = Data("Int", ()), Data("Bool"), UVar("a")
    span = SourceSpan("f", 1, 4)
    return [
        (UVar, dict(name="a"), dict(name="b"), ("name",), "UVar(name='a')"),
        (BVar, dict(index=0), dict(index=1), ("index",), "BVar(index=0)"),
        (EVar, dict(name="e1"), dict(name="e2"), ("name",), "EVar(name='e1')"),
        (Down, dict(body=Arrow(Int, Up(Int))), dict(body=Up(Int)), ("body",),
         "Down(body=Arrow(domain=Data(constructor='Int', args=()), "
         "codomain=Up(body=Data(constructor='Int', args=()))))"),
        (Data, dict(constructor="List", args=(Int,)), dict(constructor="List", args=(Bool,)),
         ("constructor", "args"),
         "Data(constructor='List', args=(Data(constructor='Int', args=()),))"),
        (Arrow, dict(domain=Int, codomain=Up(Int)), dict(domain=Bool, codomain=Up(Int)),
         ("domain", "codomain"),
         "Arrow(domain=Data(constructor='Int', args=()), "
         "codomain=Up(body=Data(constructor='Int', args=())))"),
        (Forall, dict(binder="a", body=Arrow(a, Up(a))), dict(binder="a", body=Arrow(a, Up(Int))),
         ("scope",),
         "Forall(scope=Arrow(domain=BVar(index=0), codomain=Up(body=BVar(index=0))), hint='a')"),
        (Up, dict(body=Bool), dict(body=Int), ("body",),
         "Up(body=Data(constructor='Bool', args=()))"),
        (NegData, dict(constructor="ST", args=(Int, Bool)), dict(constructor="ST", args=(Int, Int)),
         ("constructor", "args"),
         "NegData(constructor='ST', args=(Data(constructor='Int', args=()), "
         "Data(constructor='Bool', args=())))"),
        (Var, dict(name="x", span=span), dict(name="y", span=span), ("name",), "Var(name='x')"),
        (Thunk, dict(body=Return(Var("x"), span), span=span), dict(body=Return(Var("y")), span=span),
         ("body",), "Thunk(body=Return(value=Var(name='x')))"),
        (IntLit, dict(value=3, span=span), dict(value=4, span=span), ("value",), "IntLit(value=3)"),
        (BoolLit, dict(value=True, span=span), dict(value=False, span=span), ("value",),
         "BoolLit(value=True)"),
        (PairVal, dict(first=IntLit(1), second=BoolLit(False), span=span),
         dict(first=IntLit(1), second=BoolLit(True), span=span), ("first", "second"),
         "PairVal(first=IntLit(value=1), second=BoolLit(value=False))"),
        (Lambda, dict(param="x", annotation=Int, body=Return(Var("x")), span=span),
         dict(param="x", annotation=Bool, body=Return(Var("x")), span=span),
         ("param", "annotation", "body"),
         "Lambda(param='x', annotation=Data(constructor='Int', args=()), "
         "body=Return(value=Var(name='x')))"),
        (TypeAbs, dict(binder="a", body=Return(IntLit(2)), span=span),
         dict(binder="b", body=Return(IntLit(2)), span=span), ("binder", "body"),
         "TypeAbs(binder='a', body=Return(value=IntLit(value=2)))"),
        (Return, dict(value=Var("y"), span=span), dict(value=Var("z"), span=span), ("value",),
         "Return(value=Var(name='y'))"),
        (LetAnn, dict(name="t", annotation=Int, head=Var("f"), args=(Var("x"), IntLit(1)),
                      cont=Return(Var("t")), span=span),
         dict(name="t", annotation=Int, head=Var("f"), args=(Var("x"),),
              cont=Return(Var("t")), span=span),
         ("name", "annotation", "head", "args", "cont"),
         "LetAnn(name='t', annotation=Data(constructor='Int', args=()), head=Var(name='f'), "
         "args=(Var(name='x'), IntLit(value=1)), cont=Return(value=Var(name='t')))"),
        (Let, dict(name="t", head=Var("f"), args=(Var("x"),), cont=Return(Var("t")), span=span),
         dict(name="t", head=Var("g"), args=(Var("x"),), cont=Return(Var("t")), span=span),
         ("name", "head", "args", "cont"),
         "Let(name='t', head=Var(name='f'), args=(Var(name='x'),), "
         "cont=Return(value=Var(name='t')))"),
        (Universal, dict(name="a"), dict(name="b"), ("name",), "Universal(name='a')"),
        (Unsolved, dict(name="e1"), dict(name="e2"), ("name",), "Unsolved(name='e1')"),
        (Solved, dict(name="e2", solution=Int), dict(name="e2", solution=Bool),
         ("name", "solution"), "Solved(name='e2', solution=Data(constructor='Int', args=()))"),
        (TypeEnv, dict(bindings=(("x", Int),)), dict(bindings=(("x", Bool),)), ("bindings",),
         "TypeEnv(bindings=(('x', Data(constructor='Int', args=())),))"),
        (SourceSpan, dict(file="f", start=1, end=4), dict(file="f", start=1, end=5),
         ("file", "start", "end"), "SourceSpan(file='f', start=1, end=4)"),
        (DataDecl, dict(name="List", polarity="+", arity=1), dict(name="List", polarity="-", arity=1),
         ("name", "polarity", "arity"), "DataDecl(name='List', polarity='+', arity=1)"),
        (Program, dict(datatypes=(DataDecl("Int", "+", 0),), assumptions=(("x", Int),),
                       body=Return(Var("x"))),
         dict(datatypes=(), assumptions=(("x", Int),), body=Return(Var("x"))),
         ("datatypes", "assumptions", "body"),
         "Program(datatypes=(DataDecl(name='Int', polarity='+', arity=0),), "
         "assumptions=(('x', Data(constructor='Int', args=())),), body=Return(value=Var(name='x')))"),
        (SubtypeResult, dict(context=Context((Universal("a"),)), trace=()),
         dict(context=Context(), trace=()), ("context", "trace"),
         "SubtypeResult(context=Context(entries=(Universal(name='a'),)), trace=())"),
        (SynthResult, dict(type=Up(Int), context=Context(), trace=()),
         dict(type=Up(Bool), context=Context(), trace=()), ("type", "context", "trace"),
         "SynthResult(type=Up(body=Data(constructor='Int', args=())), "
         "context=Context(entries=()), trace=())"),
        (Example, dict(name="A5", term="let t = id(auto); return t", expected="ok"),
         dict(name="A5", term="let t = id(auto); return t", expected="reject"),
         ("name", "term", "expected"),
         "Example(name='A5', term='let t = id(auto); return t', expected='ok')"),
    ]


IDS = [case[0].__name__ for case in cases()]


def test_every_class_is_covered():
    assert len(set(IDS)) == len(IDS) == 29


@pytest.fixture(params=range(len(IDS)), ids=IDS)
def case(request):
    return request.param


def test_repr_is_the_dataclass_one(case):
    cls, kwargs, _, _, shown = cases()[case]
    assert repr(cls(**kwargs)) == shown


def test_eq_and_hash(case):
    cls, kwargs, changed, fields, _ = cases()[case]
    value, twin = cls(**kwargs), cls(**cases()[case][1])
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(getattr(value, f) for f in fields))
    other = cls(**changed)
    assert value != other and hash(value) != hash(other)
    assert value.__eq__(object()) is NotImplemented and value != object()


def test_a_quantifiers_hint_is_not_compared():
    a, b = UVar("a"), UVar("b")
    value, other = Forall("a", Arrow(a, Up(a))), Forall("b", Arrow(b, Up(b)))
    assert value == other and hash(value) == hash(other) and repr(value) != repr(other)


SPANNED = [i for i, (_, kwargs, _, _, _) in enumerate(cases()) if "span" in kwargs]


@pytest.mark.parametrize("case", SPANNED, ids=[IDS[i] for i in SPANNED])
def test_spans_are_not_compared(case):
    cls, kwargs, _, _, shown = cases()[case]
    value, other = cls(**kwargs), cls(**{**kwargs, "span": SourceSpan("g", 0, 9)})
    assert other.span == SourceSpan("g", 0, 9) and repr(other) == shown
    assert value == other and hash(value) == hash(other)


def test_keyword_and_positional_builds_agree(case):
    cls, kwargs, _, _, _ = cases()[case]
    value = cls(*kwargs.values())
    assert value == cls(**kwargs) and repr(value) == repr(cls(**kwargs))


def test_copies_and_pickles_are_equal(case):
    cls, kwargs, _, _, shown = cases()[case]
    value = cls(**kwargs)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == shown
        assert getattr(twin, "span", None) == getattr(value, "span", None)
        assert getattr(twin, "size", None) == getattr(value, "size", None)


def test_records_have_slots_not_a_dict(case):
    cls, kwargs, _, _, _ = cases()[case]
    assert not hasattr(cls(**kwargs), "__dict__")
