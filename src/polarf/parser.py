"""Concrete syntax: lexer, recursive-descent parser, and pretty printer.

The surface language is one-token-lookahead.  One rule reads types of
both polarities (P value types, N computation types), checked where used:

    type     forall a b. N
           | up atom | C atom ... atom       C a computation constructor
           | app (* app)* (-> N)?            `P * Q` is `Pair P Q`, right assoc
    app      D atom ... atom | atom          D a value constructor
    atom     a | D | ( type )                D of arity 0
           | dn ( N ) | dn up atom | dn C atom ... atom

    values           x | { t } | 42 | true | false | (v, w)
    computations     \\x : P. t | /\\a. t | return v
                     | let x = v(s); t | let x : P = v(s); t
    programs         data T <pos|neg> <arity> ...  val x : P ...  run t

Lexical grammar (files use the `.ipf` extension):

    whitespace   space, tab, CR and LF; nothing else
    comment      `--` to the end of the line
    identifier   a letter (`str.isalpha`) followed by letters, digits,
                 `_` and `'` (`str.isalnum`); an uppercase first letter
                 makes a constructor name, and the ten keywords
                 forall up dn let return run val data true false
                 are reserved
    integer      decimal digits (`\\d+`, the digits `int()` reads)
    punctuation  ( ) { } , ; : . * = -> \\ /\\

Any other character is a parse error, as are a lone `-` or `/`.

The parse error "nested too deeply" has two meanings.  A type taller than
`MAX_TYPE_HEIGHT` (nodes on its longest path to a leaf, quantifiers
included) is one, at the first token of the innermost type too tall: the
layers after the parser follow types by recursion.  Other input nested
past the interpreter's recursion limit, such as 3,000 nested parentheses
(which add no height) or braces, is one at the token reached; a chain of
`let`s is read in a loop.  The command line reports the same error when a
program's type, trace or error message is too deep to print.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import SourceSpan, TypeCheckError
from .syntax import (
    Arrow, BVar, BoolLit, Computation, Context, Data, Down, EVar, Forall,
    IntLit, Lambda, Let, LetAnn, NegData, NegType, PairVal, PosType, Return,
    Solved, Thunk, TypeAbs, TypeEnv, UVar, Up, Value, Var, fresh_name,
)

KEYWORDS = {"forall", "up", "dn", "let", "return", "run", "val", "data",
            "true", "false"}


@dataclass(frozen=True)
class DataDecl:
    """A datatype constructor: name, polarity ('+' or '-'), and arity."""

    name: str
    polarity: str
    arity: int


BUILTIN_DATATYPES = (
    DataDecl("Int", "+", 0),
    DataDecl("Bool", "+", 0),
    DataDecl("String", "+", 0),
    DataDecl("List", "+", 1),
    DataDecl("Pair", "+", 2),
    DataDecl("ST", "-", 2),
)


# The tallest type the parser reads; a taller one is the parse error "nested
# too deeply".  From an empty stack, under the default recursion limit of
# 1,000, the subtyping engine and the printer follow nested constructors (the
# shape that costs them the most frames per level) to a height of about 250,
# so this leaves room for their callers' frames.
MAX_TYPE_HEIGHT = 200

_PRODUCT = "product components must be positive types"


@dataclass(frozen=True)
class Program:
    """A parsed source file: datatype declarations, assumptions, and one term."""

    datatypes: tuple
    assumptions: tuple
    body: Computation


class Token:
    """A lexeme and its half-open character range.  `kind` is the text itself
    for keywords and punctuation, else ident | conid | int | arrow | lambda
    | tyabs | eof."""

    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.start}, {self.end})"


# One match per token: the gap before it (whitespace and comments), then the
# token.  The group that matched names its kind.  `word` starts outside
# ASCII and is an identifier only if its first character is a letter: the
# class also admits non-decimal digits such as `²`.  `bad` is a character
# no token starts with.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]+|--[^\n]*)*
    (?: (?P<ident>[a-z][\w']*)
      | (?P<conid>[A-Z][\w']*)
      | (?P<punct>[(){},;:.*=])
      | (?P<arrow>->)
      | (?P<int>\d+)
      | (?P<lambda>\\)
      | (?P<tyabs>/\\)
      | (?P<word>[^\W\d_][\w']*)
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""", re.VERBOSE | re.DOTALL)

_STRAY = {"-": "unexpected '-' (did you mean '->' or a '--' comment?)",
          "/": "unexpected '/' (did you mean '/\\'?)"}


def _lex(src: str, filename: str) -> list:
    toks = []
    append = toks.append
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        start, end = m.span(kind)
        text = src[start:end]
        if kind == "ident":
            if text in KEYWORDS:
                kind = text
        elif kind == "punct":
            kind = text
        elif kind == "eof":
            break
        elif kind == "word" or kind == "bad":
            c = text[0]
            if c.isalpha():
                kind = "conid" if c.isupper() else "ident"
            else:
                msg = _STRAY.get(c) or f"unexpected character {c!r}"
                raise TypeCheckError("parse", msg,
                                     SourceSpan(filename, start, start + 1))
        append(Token(kind, text, start, end))
    append(Token("eof", "", len(src), len(src)))
    return toks


class _Parser:
    def __init__(self, src: str, filename: str):
        self.filename = filename
        self.toks = _lex(src, filename)
        self.pos = 0
        self.sigs = {d.name: d for d in BUILTIN_DATATYPES}
        self.scope = []    # the type variables bound by enclosing foralls
        self.free = set()  # type variables read outside their scope

    # -- token plumbing ------------------------------------------------
    # `eof` is consumed only by a rule's last `expect("eof")`, so `pos` stays
    # in range for every lookahead; only an error can come after it.

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind: str) -> bool:
        return self.toks[self.pos].kind == kind

    def err(self, msg: str, tok: Optional[Token] = None):
        tok = tok or self.toks[min(self.pos, len(self.toks) - 1)]
        raise TypeCheckError("parse", msg, SourceSpan(self.filename, tok.start, tok.end))

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind:
            self.err(f"expected {kind!r}, found {t.text or 'end of input'!r}")
        self.pos += 1
        return t

    def sig(self, name: str) -> DataDecl:
        decl = self.sigs.get(name)
        if decl is None:
            self.err(f"unknown type constructor {name}")
        return decl

    def span_from(self, start: int) -> SourceSpan:
        end = self.toks[self.pos - 1].end if self.pos > 0 else start
        return SourceSpan(self.filename, start, end)

    def parse(self, rule):
        """Run `rule`; running out of stack is the parse error "nested too
        deeply" at the token reached."""
        try:
            return rule()
        except RecursionError:
            pass
        self.err("nested too deeply")

    # -- types ---------------------------------------------------------
    # One rule reads a type of either polarity; `want` checks the polarity
    # where the type is used.

    def type_any(self):
        """A quantifier, or a head, its `*` factors and then `-> N`."""
        first = self.peek()
        if first.kind == "forall":
            self.next()
            binders = [self.expect("ident").text]
            while self.at("ident"):
                binders.append(self.next().text)
            self.expect(".")
            self.scope += binders
            t = self.want(self.type_any(), NegType, "expected a computation type here")
            del self.scope[-len(binders):]
            for b in reversed(binders):
                t = Forall.bind(b, t)
        else:
            t = self.neg_head()
            if t is None:
                t = self.atom(True)
                if self.at("*"):  # `P * Q` is `Pair P Q`, right associative
                    factors = []
                    while self.at("*"):
                        factors.append(self.want(t, PosType, _PRODUCT))
                        self.next()
                        t = self.want(self.atom(True), PosType, _PRODUCT)
                    for f in reversed(factors):
                        t = Data("Pair", (f, t))
            if self.at("arrow"):
                self.want(t, PosType,
                          "arrow domain must be positive (wrap it in 'dn (...)')")
                self.next()
                t = Arrow(t, self.want(self.type_any(), NegType,
                                       "expected a computation type here"))
        if t.height > MAX_TYPE_HEIGHT:
            self.err("nested too deeply", first)
        return t

    def atom(self, apply: bool):
        """A variable, `dn N`, a parenthesized type, or a value constructor,
        which takes its arguments only when `apply`."""
        tok = self.peek()
        kind = tok.kind
        if kind == "ident":
            self.pos += 1
            if tok.text in self.scope:  # counted in binders outward
                return BVar(self.scope[::-1].index(tok.text))
            self.free.add(tok.text)
            return UVar(tok.text)
        if kind == "conid":
            decl = self.sig(tok.text)
            if decl.polarity == "-":
                self.err(f"{tok.text} is a computation type constructor")
            if decl.arity and not apply:
                self.err(f"{tok.text} needs {decl.arity} argument(s); "
                         "parenthesize the application")
            self.pos += 1
            return Data(tok.text, self.args(decl) if decl.arity else ())
        if kind == "(":
            self.pos += 1
            t = self.type_any()
            self.expect(")")
            return t
        if kind != "dn":
            self.err(f"expected a type, found {tok.text!r}")
        self.pos += 1
        if not self.at("("):  # `dn` before a computation head
            return Down(self.neg_head()
                        or self.err("dn expects a computation type (usually 'dn (...)')"))
        self.pos += 1
        t = self.want(self.type_any(), NegType, "expected a computation type here")
        self.expect(")")
        return Down(t)

    def neg_head(self):
        """`up P` or a computation constructor and its arguments; None at
        any other token."""
        tok = self.peek()
        if tok.kind == "up":
            self.next()
            return Up(self.want(self.atom(False), PosType, "up expects a value type"))
        if tok.kind == "conid":
            decl = self.sig(tok.text)
            if decl.polarity == "-":
                self.next()
                return NegData(tok.text, self.args(decl))
        return None

    def args(self, decl: DataDecl) -> tuple:
        """The arguments of `decl`'s constructor, one atom each."""
        args = []
        for i in range(decl.arity):
            msg = f"argument {i + 1} of {decl.name} must be a positive type"
            args.append(self.want(self.atom(False), PosType, msg))
        return tuple(args)

    def want(self, t, cls, msg: str):
        """`t`, if it has the polarity `cls`; else the parse error `msg`."""
        if not isinstance(t, cls):
            self.err(msg)
        return t

    # -- terms -----------------------------------------------------------

    def computation(self) -> Computation:
        """The `let`s in front of a computation are read in a loop and nested
        afterwards, so a chain of them costs no stack."""
        lets = []
        while self.at("let"):
            start = self.next().start
            name = self.expect("ident").text
            anno = None
            if self.at(":"):
                self.next()
                anno = self.want(self.type_any(), PosType,
                                 "let annotations must be value types")
            self.expect("=")
            head = self.value()
            self.expect("(")
            args = []
            if not self.at(")"):
                args.append(self.value())
                while self.at(","):
                    self.next()
                    args.append(self.value())
            self.expect(")")
            self.expect(";")
            lets.append((start, name, anno, head, tuple(args)))
        t = self.peek()
        start = t.start
        if t.kind == "lambda":
            self.next()
            param = self.expect("ident").text
            self.expect(":")
            anno = self.want(self.type_any(), PosType,
                             "lambda annotations must be value types")
            self.expect(".")
            body = Lambda(param, anno, self.computation(), self.span_from(start))
        elif t.kind == "tyabs":
            self.next()
            binder = self.expect("ident").text
            self.expect(".")
            body = TypeAbs(binder, self.computation(), self.span_from(start))
        elif t.kind == "return":
            self.next()
            body = Return(self.value(), self.span_from(start))
        else:
            self.err(f"expected a computation, found {t.text or 'end of input'!r}")
        # every let in the chain ends where its innermost continuation ends
        for start, name, anno, head, args in reversed(lets):
            span = self.span_from(start)
            if anno is None:
                body = Let(name, head, args, body, span)
            else:
                body = LetAnn(name, anno, head, args, body, span)
        return body

    def value(self) -> Value:
        t = self.peek()
        start = t.start
        if t.kind == "ident":
            self.next()
            return Var(t.text, self.span_from(start))
        if t.kind == "int":
            self.next()
            return IntLit(int(t.text), self.span_from(start))
        if t.kind == "true" or t.kind == "false":
            self.next()
            return BoolLit(t.kind == "true", self.span_from(start))
        if t.kind == "{":
            self.next()
            body = self.computation()
            self.expect("}")
            return Thunk(body, self.span_from(start))
        if t.kind == "(":
            self.next()
            first = self.value()
            if self.at(","):
                self.next()
                second = self.value()
                self.expect(")")
                return PairVal(first, second, self.span_from(start))
            self.expect(")")
            return first
        self.err(f"expected a value, found {t.text or 'end of input'!r}")

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        decls = []
        while self.at("data"):
            self.next()
            name_tok = self.expect("conid")
            if name_tok.text in self.sigs:
                self.err(f"datatype {name_tok.text} is already declared", name_tok)
            pol_tok = self.expect("ident")
            if pol_tok.text not in ("pos", "neg"):
                self.err("datatype polarity must be 'pos' or 'neg'", pol_tok)
            arity_tok = self.expect("int")
            decl = DataDecl(name_tok.text, "+" if pol_tok.text == "pos" else "-",
                            int(arity_tok.text))
            self.sigs[decl.name] = decl
            decls.append(decl)
        assumptions = []
        seen = set()
        while self.at("val"):
            self.next()
            name_tok = self.expect("ident")
            if name_tok.text in seen:
                self.err(f"duplicate assumption {name_tok.text}", name_tok)
            seen.add(name_tok.text)
            self.expect(":")
            tok0 = self.peek()
            self.free.clear()
            ty = self.want(self.type_any(), PosType, "assumptions must have value types")
            if self.free:
                loose = ", ".join(sorted(self.free))
                self.err(f"assumption type must be closed (unbound: {loose})", tok0)
            assumptions.append((name_tok.text, ty))
        self.expect("run")
        body = self.computation()
        self.expect("eof")
        return Program(tuple(decls), tuple(assumptions), body)


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse a whole program; raises TypeCheckError(parse) with a span."""
    p = _Parser(text, filename)
    return p.parse(p.program)


def parse_type(text: str, polarity: str = "any", filename: str = "<type>"):
    """Parse a single type; `polarity` is '+', '-', or 'any'."""
    p = _Parser(text, filename)
    t = p.parse(p.type_any)
    p.expect("eof")
    if polarity == "+" and not isinstance(t, PosType):
        p.err("expected a positive type")
    if polarity == "-" and not isinstance(t, NegType):
        p.err("expected a negative type")
    return t


# ---------------------------------------------------------------------------
# Pretty printing

def pretty(x) -> str:
    """Render a type, term, or context with minimal parentheses."""
    if isinstance(x, PosType):
        return _pp_pos(x)
    if isinstance(x, NegType):
        return _pp_neg(x)
    if isinstance(x, Value):
        return _pp_value(x)
    if isinstance(x, Computation):
        return _pp_comp(x)
    if isinstance(x, Context):
        return _pp_context(x)
    if isinstance(x, TypeEnv):
        return ", ".join(f"{n} : {_pp_pos(p)}" for n, p in x) or "·"
    raise TypeError(f"cannot pretty-print {x!r}")


def _pp_pos(p, env=None) -> str:
    """`env` holds the binders around `p` (None outside every binder)."""
    cls = type(p)
    if cls is UVar or cls is EVar:
        if env is not None and p.name in env.names:
            env.mention(p.name, 0)
        return p.name
    if cls is BVar:
        if env is None or p.index >= len(env.names):
            raise TypeError(f"bound variable without a binder: {p!r}")
        name = env.names[-1 - p.index]
        if p.index and env.names.count(name) > 1:
            env.mention(name, len(env.names) - p.index)
        return name
    if cls is Down:
        return f"dn ({_pp_neg(p.body, env)})"
    if cls is Data:
        if p.constructor == "Pair" and len(p.args) == 2:
            left, right = p.args
            lt = f"({_pp_pos(left, env)})" if _is_pair(left) else _pp_pos(left, env)
            return f"{lt} * {_pp_pos(right, env)}"
        if not p.args:
            return p.constructor
        return p.constructor + " " + " ".join(_pp_pos_atom(a, env) for a in p.args)
    raise TypeError(f"not a positive type: {p!r}")


def _pp_pos_atom(p, env=None) -> str:
    if type(p) in (UVar, EVar, BVar) or (type(p) is Data and not p.args):
        return _pp_pos(p, env)
    return f"({_pp_pos(p, env)})"


def _pp_neg(n, env=None) -> str:
    if isinstance(n, Forall):
        return _Binders().render(n) if env is None else env.forall(n)
    if isinstance(n, Arrow):
        return f"{_pp_pos(n.domain, env)} -> {_pp_neg(n.codomain, env)}"
    if isinstance(n, Up):
        return f"up {_pp_pos_atom(n.body, env)}"
    if isinstance(n, NegData):
        if not n.args:
            return n.constructor
        return n.constructor + " " + " ".join(_pp_pos_atom(a, env) for a in n.args)
    raise TypeError(f"not a negative type: {n!r}")


class _Binders:
    """The binders around the part of a type being printed, innermost last."""

    def render(self, n) -> str:
        """Print the outermost quantifier `n`.  A binder prints as its hint;
        if that would capture something its scope mentions, the binder is
        renamed to a name that appears nowhere in the output and `n` is
        printed again."""
        self.renamed = {}  # id of a Forall -> the name it prints as
        while True:
            self.foralls, self.names, self.capturing = [], [], {}
            out = self.forall(n)
            if not self.capturing:
                return out
            taken = set(re.split(r"[\s().*]+", out))
            for key, binder in self.capturing.items():
                self.renamed[key] = fresh_name(binder.hint, taken)
                taken.add(self.renamed[key])

    def forall(self, n) -> str:
        k = len(self.names)
        while isinstance(n, Forall):
            self.foralls.append(n)
            self.names.append(self.renamed.get(id(n), n.hint))
            n = n.scope
        out = f"forall {' '.join(self.names[k:])}. {_pp_neg(n, self)}"
        del self.names[k:], self.foralls[k:]
        return out

    def mention(self, name: str, below: int):
        """`name` occurs here: the binders past `below` that print as it capture it."""
        for i in range(below, len(self.names)):
            if self.names[i] == name:
                self.capturing[id(self.foralls[i])] = self.foralls[i]


def _is_pair(p) -> bool:
    return isinstance(p, Data) and p.constructor == "Pair" and len(p.args) == 2


def _pp_value(v) -> str:
    if isinstance(v, Var):
        return v.name
    if isinstance(v, IntLit):
        return str(v.value)
    if isinstance(v, BoolLit):
        return "true" if v.value else "false"
    if isinstance(v, Thunk):
        return "{" + _pp_comp(v.body) + "}"
    if isinstance(v, PairVal):
        return f"({_pp_value(v.first)}, {_pp_value(v.second)})"
    raise TypeError(f"not a value: {v!r}")


def _pp_comp(t) -> str:
    if isinstance(t, Lambda):
        return f"\\{t.param} : {_pp_pos(t.annotation)}. {_pp_comp(t.body)}"
    if isinstance(t, TypeAbs):
        return f"/\\{t.binder}. {_pp_comp(t.body)}"
    if isinstance(t, Return):
        return f"return {_pp_value(t.value)}"
    if isinstance(t, (Let, LetAnn)):
        anno = f" : {_pp_pos(t.annotation)}" if isinstance(t, LetAnn) else ""
        args = ", ".join(_pp_value(v) for v in t.args)
        return f"let {t.name}{anno} = {_pp_value(t.head)}({args}); {_pp_comp(t.cont)}"
    raise TypeError(f"not a computation: {t!r}")


def _pp_context(theta: Context) -> str:
    if not theta.entries:
        return "·"
    parts = []
    for e in theta.entries:
        if isinstance(e, Solved):
            parts.append(f"{e.name} = {_pp_pos(e.solution)}")
        else:
            parts.append(e.name)
    return ", ".join(parts)
