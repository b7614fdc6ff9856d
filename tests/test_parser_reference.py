"""The one-rule type parser against the eleven methods it replaced.

`_Parser.type_any` reads every type with four helpers (`atom`, `neg_head`,
`args`, `want`).  The reference kept here is the recursive descent it
replaced, one method per grammar position, with the polarity checks
spread over them.  Both must give the same type (`==` and `repr`) or the
same parse error (message, span start and end) through `parse_type` at
each polarity and through `val`, lambda and `let` annotations, on every
type written in the corpus, on seeded random token strings, and on
one-token mutations of generated types.  The inputs stay far below
`MAX_TYPE_HEIGHT`, which the reference does not have.
"""

import random

import pytest

from gen import gen_type
from polarf import TypeCheckError, parse_program, parse_type, pretty
from polarf import parser
from polarf.corpus import ENVIRONMENT, EXAMPLES, STRIPPED
from polarf.parser import _Parser, _lex
from polarf.syntax import (
    Arrow, BVar, Data, Down, Forall, NegData, NegType, PosType, UVar, Up,
)


# -- reference -----------------------------------------------------------------

class RefParser(_Parser):
    """The parser with the type grammar as eleven methods; its term rules
    read annotations through the `type_any` below."""

    def type_any(self):
        """Parse a type of either polarity; polarity is checked at use sites."""
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "forall":
            return self.forall_type()
        if kind == "up":
            self.pos += 1
            body = self.pos_atom_checked("up expects a value type")
            res = Up(body)
            if self.at("arrow"):
                self.err("arrow domain must be positive (wrap it in 'dn (...)')")
            return res
        if kind == "conid" and self.sig(text).polarity == "-":
            res = self.negdata_type()
            if self.at("arrow"):
                self.err("arrow domain must be positive (wrap it in 'dn (...)')")
            return res
        left = self.pos_type()
        if self.at("arrow"):
            if not isinstance(left, PosType):
                self.err("arrow domain must be positive (wrap it in 'dn (...)')")
            self.pos += 1
            return Arrow(left, self.neg_type())
        return left

    def forall_type(self):
        self.expect("forall")
        binders = [self.expect("ident")]
        while self.at("ident"):
            binders.append(self.expect("ident"))
        self.expect(".")
        self.scope += binders
        body = self.neg_type()
        del self.scope[-len(binders):]
        for b in reversed(binders):
            body = Forall.bind(b, body)
        return body

    def negdata_type(self):
        name = self.texts[self.pos]
        self.pos += 1
        return NegData(name, self.constructor_args(name))

    def constructor_args(self, name):
        args = []
        for i in range(self.sig(name).arity):
            a = self.pos_atom()
            if not isinstance(a, PosType):
                self.err(f"argument {i + 1} of {name} must be a positive type")
            args.append(a)
        return tuple(args)

    def neg_type(self):
        t = self.type_any()
        if not isinstance(t, NegType):
            self.err("expected a computation type here")
        return t

    def pos_type_checked(self, msg):
        t = self.type_any()
        if not isinstance(t, PosType):
            self.err(msg)
        return t

    def pos_type(self):
        """Constructor application plus the `P * Q` product sugar (right assoc)."""
        left = self.pos_app()
        if self.at("*"):
            if not isinstance(left, PosType):
                self.err("product components must be positive types")
            self.pos += 1
            right = self.pos_type()
            if not isinstance(right, PosType):
                self.err("product components must be positive types")
            return Data("Pair", (left, right))
        return left

    def pos_app(self):
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "conid":
            decl = self.sig(text)
            if decl.polarity == "-":
                self.err(f"{text} is a computation type constructor")
            if decl.arity > 0:
                self.pos += 1
                return Data(text, self.constructor_args(text))
        return self.pos_atom()

    def pos_atom(self):
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "ident":
            self.pos += 1
            if text in self.scope:
                return BVar(self.scope[::-1].index(text))
            self.free.add(text)
            return UVar(text)
        if kind == "conid":
            decl = self.sig(text)
            if decl.polarity == "-":
                self.err(f"{text} is a computation type constructor")
            if decl.arity > 0:
                self.err(f"{text} needs {decl.arity} argument(s); "
                         "parenthesize the application")
            self.pos += 1
            return Data(text, ())
        if kind == "dn":
            self.pos += 1
            return Down(self.neg_atom())
        if kind == "(":
            self.pos += 1
            inner = self.type_any()
            self.expect(")")
            return inner
        self.err(f"expected a type, found {text!r}")

    def neg_atom(self):
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == "(":
            self.pos += 1
            inner = self.neg_type()
            self.expect(")")
            return inner
        if kind == "up":
            self.pos += 1
            return Up(self.pos_atom_checked("up expects a value type"))
        if kind == "conid" and self.sig(text).polarity == "-":
            return self.negdata_type()
        self.err("dn expects a computation type (usually 'dn (...)')")

    def pos_atom_checked(self, msg):
        t = self.pos_atom()
        if not isinstance(t, PosType):
            self.err(msg)
        return t


def ref_parse_type(text, polarity):
    p = RefParser(text, "<type>")
    t = p.parse(p.type_any)
    p.expect("eof")
    if polarity == "+" and not isinstance(t, PosType):
        p.err("expected a positive type")
    if polarity == "-" and not isinstance(t, NegType):
        p.err("expected a negative type")
    return t


def ref_parse_program(text):
    """The reference's parse of a program.  It runs with an empty memo of
    assumption types, so that every `val` type is read by the reference's
    rules, and leaves the parser's memo as it found it."""
    kept = parser._ASSUMPTION_TYPES
    parser._ASSUMPTION_TYPES = {}
    try:
        p = RefParser(text, "<input>")
        return p.parse(p.program)
    finally:
        parser._ASSUMPTION_TYPES = kept


# -- comparison -----------------------------------------------------------------

def outcome(parse, *args):
    try:
        result = parse(*args)
    except TypeCheckError as e:
        return "error", e.message, e.span.start, e.span.end
    return "ok", result, repr(result)


WRAPPERS = ("val f : {}\nrun return f",
            "run \\x : {}. return x",
            "run let y : {} = g(); return y")


def assert_same(text):
    for polarity in ("any", "+", "-"):
        assert outcome(parse_type, text, polarity) == \
            outcome(ref_parse_type, text, polarity), (text, polarity)
    for wrapper in WRAPPERS:
        src = wrapper.format(text)
        assert outcome(parse_program, src) == outcome(ref_parse_program, src), src


# -- inputs ---------------------------------------------------------------------

CORPUS = [ex.source for ex in EXAMPLES + STRIPPED]


def corpus_types():
    """The text of every type the corpus writes: what follows each `:` of
    an assumption or a lambda or `let` annotation, as far as a type reads."""
    texts = set()
    for src in [ENVIRONMENT] + CORPUS:
        p = _Parser(src, "<input>")
        for i, kind in enumerate(p.kinds):
            if kind == ":":
                p.pos = i + 1
                p.type_any()
                texts.add(src[p.start(i + 1):p.ends[p.pos - 1]])
    return sorted(texts)


def test_corpus_programs():
    for src in CORPUS:
        assert outcome(parse_program, src) == outcome(ref_parse_program, src)


def test_corpus_types():
    texts = corpus_types()
    assert len(texts) > 20
    for text in texts:
        assert_same(text)


TOKENS = ("a", "b", "Int", "Bool", "List", "Pair", "ST", "Foo", "forall", "up",
          "dn", "(", ")", "*", "->", ".")


def test_random_token_strings():
    rng = random.Random(81)
    for _ in range(1_500):
        assert_same(" ".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 10))))


def mutants(rng, count):
    """One-token deletions, duplications and insertions in printed types."""
    for _ in range(count):
        text = pretty(gen_type(rng, rng.choice("+-"), depth=3))
        toks = _lex(text, "<type>")[1][:-1]
        i = rng.randrange(len(toks) + 1)
        edit = rng.choice(("delete", "duplicate", "insert"))
        if edit == "insert":
            toks.insert(i, rng.choice(TOKENS))
        elif i < len(toks):
            toks[i:i + 1] = [] if edit == "delete" else [toks[i]] * 2
        yield " ".join(toks)


def test_one_token_mutations():
    for text in mutants(random.Random(82), 1_000):
        assert_same(text)


@pytest.mark.parametrize("text", ["Int * Int -> up Int", "forall a b. a -> up (a * b)",
                                  "dn (forall a. ST a Int)", "dn up (List Int)"])
def test_reference_reads_types(text):
    """The comparison means something: the reference accepts real types."""
    assert outcome(ref_parse_type, text, "any")[0] == "ok"
