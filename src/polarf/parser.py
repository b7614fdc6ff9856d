"""Concrete syntax: lexer, recursive-descent parser, and pretty printer.

The surface language is one-token-lookahead:

    positive types   a | dn N | T P1 ... Pk | P * Q | ( ... )
    negative types   P -> N (right assoc) | forall a b. N | up P | ST P Q
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

Any other character is a parse error, as are a lone `-` or `/`.  Input
nested past the interpreter's recursion limit is the parse error "nested
too deeply"; a chain of `let`s is parsed in a loop and may be any length.
`pretty` takes more stack per level than the parser, so the command line
reports the same error when a checked program's type or trace is too deep
to print.
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


def builtin_signatures() -> dict:
    return {d.name: d for d in BUILTIN_DATATYPES}


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
    def __init__(self, src: str, filename: str, signatures: Optional[dict] = None):
        self.filename = filename
        self.toks = _lex(src, filename)
        self.pos = 0
        self.sigs = dict(signatures) if signatures is not None else builtin_signatures()
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

    def type_any(self):
        """Parse a type of either polarity; polarity is checked at use sites."""
        t = self.peek()
        if t.kind == "forall":
            return self.forall_type()
        if t.kind == "up":
            self.next()
            body = self.pos_atom_checked("up expects a value type")
            res = Up(body)
            if self.at("arrow"):
                self.err("arrow domain must be positive (wrap it in 'dn (...)')")
            return res
        if t.kind == "conid" and self.sig(t.text).polarity == "-":
            res = self.negdata_type()
            if self.at("arrow"):
                self.err("arrow domain must be positive (wrap it in 'dn (...)')")
            return res
        left = self.pos_type()
        if self.at("arrow"):
            if not isinstance(left, PosType):
                self.err("arrow domain must be positive (wrap it in 'dn (...)')")
            self.next()
            return Arrow(left, self.neg_type())
        return left

    def forall_type(self):
        self.expect("forall")
        binders = [self.expect("ident").text]
        while self.at("ident"):
            binders.append(self.next().text)
        self.expect(".")
        self.scope += binders
        body = self.neg_type()
        del self.scope[-len(binders):]
        for b in reversed(binders):
            body = Forall.bind(b, body)
        return body

    def negdata_type(self):
        tok = self.next()
        return NegData(tok.text, self.constructor_args(tok.text))

    def constructor_args(self, name: str) -> tuple:
        args = []
        for i in range(self.sig(name).arity):
            a = self.pos_atom()
            if not isinstance(a, PosType):
                self.err(f"argument {i + 1} of {name} must be a positive type")
            args.append(a)
        return tuple(args)

    def neg_type(self) -> NegType:
        t = self.type_any()
        if not isinstance(t, NegType):
            self.err("expected a computation type here")
        return t

    def pos_type_checked(self, msg: str) -> PosType:
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
            self.next()
            right = self.pos_type()
            if not isinstance(right, PosType):
                self.err("product components must be positive types")
            return Data("Pair", (left, right))
        return left

    def pos_app(self):
        t = self.peek()
        if t.kind == "conid":
            decl = self.sig(t.text)
            if decl.polarity == "-":
                self.err(f"{t.text} is a computation type constructor")
            if decl.arity > 0:
                self.next()
                return Data(t.text, self.constructor_args(t.text))
        return self.pos_atom()

    def pos_atom(self):
        t = self.peek()
        if t.kind == "ident":
            self.next()
            if t.text in self.scope:  # counted in binders outward
                return BVar(self.scope[::-1].index(t.text))
            self.free.add(t.text)
            return UVar(t.text)
        if t.kind == "conid":
            decl = self.sig(t.text)
            if decl.polarity == "-":
                self.err(f"{t.text} is a computation type constructor")
            if decl.arity > 0:
                self.err(f"{t.text} needs {decl.arity} argument(s); "
                         "parenthesize the application")
            self.next()
            return Data(t.text, ())
        if t.kind == "dn":
            self.next()
            return Down(self.neg_atom())
        if t.kind == "(":
            self.next()
            inner = self.type_any()
            self.expect(")")
            return inner
        self.err(f"expected a type, found {t.text!r}")

    def neg_atom(self) -> NegType:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.neg_type()
            self.expect(")")
            return inner
        if t.kind == "up":
            self.next()
            return Up(self.pos_atom_checked("up expects a value type"))
        if t.kind == "conid" and self.sig(t.text).polarity == "-":
            return self.negdata_type()
        self.err("dn expects a computation type (usually 'dn (...)')")

    def pos_atom_checked(self, msg: str) -> PosType:
        t = self.pos_atom()
        if not isinstance(t, PosType):
            self.err(msg)
        return t

    def sig(self, name: str) -> DataDecl:
        decl = self.sigs.get(name)
        if decl is None:
            self.err(f"unknown type constructor {name}")
        return decl

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
                anno = self.pos_type_checked("let annotations must be value types")
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
            anno = self.pos_type_checked("lambda annotations must be value types")
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
            ty = self.pos_type_checked("assumptions must have value types")
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


def parse_type(text: str, polarity: str = "any", filename: str = "<type>",
               signatures: Optional[dict] = None):
    """Parse a single type; `polarity` is '+', '-', or 'any'."""
    p = _Parser(text, filename, signatures)
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
