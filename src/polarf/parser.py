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

Any other character is a parse error, as are a lone `-` or `/`; so is an
integer literal longer than `int()` reads (`sys.get_int_max_str_digits()`).

`_lex` reads the whole input with one `findall` of one pattern, whose
matches are (gap, token) pairs, the gap being whitespace and comments.  It
returns three lists: the token kinds, the token texts and the offset just
past each token, a running sum of the gap and token lengths; a token starts
at its end minus its length.  Offsets count characters of the text, not
bytes.  Kinds are decided once per distinct text, so lexing builds no
object and makes no Python call per token.  The parser reads the three lists
by index: `pos` is the next token.

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
from itertools import accumulate, chain
from operator import itemgetter
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


# One match per token: the gap before it (whitespace and comments), then the
# token.  A word that starts outside ASCII is an identifier only if its first
# character is a letter: `[^\W\d_]` also admits non-decimal digits such as
# `²`.  The empty token at the end is `eof`; `.` is a character no token
# starts with.
_TOKEN = re.compile(r"""
    ([ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*)
    (->|/\\|[^\W\d_][\w']*|\d+|\Z|.)""", re.VERBOSE | re.DOTALL)

# the kinds of the tokens whose kind is not decided by their first character
_FIXED_KINDS = {**{k: k for k in KEYWORDS}, **{p: p for p in "(){},;:.*="},
                "->": "arrow", "\\": "lambda", "/\\": "tyabs", "": "eof"}

_STRAY = {"-": "unexpected '-' (did you mean '->' or a '--' comment?)",
          "/": "unexpected '/' (did you mean '/\\'?)"}


def _kind(text: str) -> str:
    """The kind of a token with this text: keywords and punctuation are
    their own kind; `bad` is a character no token starts with."""
    kind = _FIXED_KINDS.get(text)
    if kind is None:
        c = text[0]
        if c.isdecimal():
            kind = "int"
        elif c.isalpha():
            kind = "conid" if c.isupper() else "ident"
        else:
            kind = "bad"
    return kind


def _lex(src: str, filename: str):
    """The tokens of `src` as three lists: `kinds`, `texts` and `ends` (the
    offset just past each token; a token starts at its end minus its
    length).  The last token is `eof`.  Raises the parse error of the first
    character no token starts with."""
    pairs = _TOKEN.findall(src)
    # after a gap that ends the input, the pattern matches once more, empty
    if len(pairs) > 1 and not pairs[-2][1]:
        del pairs[-1]
    texts = list(map(itemgetter(1), pairs))
    kind_of = {text: _kind(text) for text in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    ends = list(accumulate(map(len, chain.from_iterable(pairs))))[1::2]
    if "bad" in kind_of.values():
        i = kinds.index("bad")
        c = texts[i][0]
        start = ends[i] - len(texts[i])
        msg = _STRAY.get(c) or f"unexpected character {c!r}"
        raise TypeCheckError("parse", msg, SourceSpan(filename, start, start + 1))
    return kinds, texts, ends


class _Parser:
    def __init__(self, src: str, filename: str):
        self.filename = filename
        self.kinds, self.texts, self.ends = _lex(src, filename)
        self.pos = 0
        self.sigs = {d.name: d for d in BUILTIN_DATATYPES}
        self.scope = []    # the type variables bound by enclosing foralls
        self.free = set()  # type variables read outside their scope

    # -- token plumbing ------------------------------------------------
    # Tokens are read by index.  `eof` is consumed only by a rule's last
    # `expect("eof")`, so `pos` stays in range for every lookahead; only an
    # error can come after it.

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def start(self, i: int) -> int:
        """The offset of token `i`'s first character."""
        return self.ends[i] - len(self.texts[i])

    def err(self, msg: str, i: Optional[int] = None):
        """The parse error `msg`, spanning token `i` (by default the next)."""
        if i is None:
            i = min(self.pos, len(self.kinds) - 1)
        raise TypeCheckError("parse", msg,
                             SourceSpan(self.filename, self.start(i), self.ends[i]))

    def expect(self, kind: str) -> str:
        """Consume a token of `kind`; returns its text."""
        i = self.pos
        if self.kinds[i] != kind:
            self.err(f"expected {kind!r}, found {self.texts[i] or 'end of input'!r}")
        self.pos = i + 1
        return self.texts[i]

    def integer(self) -> int:
        """Consume an `int` token; returns its value.  A literal longer than
        `int()` reads (`sys.get_int_max_str_digits()`, 4,300 digits by
        default) is a parse error."""
        i = self.pos
        text = self.expect("int")
        try:
            return int(text)
        except ValueError:
            self.err("integer literal too long", i)

    def sig(self, name: str) -> DataDecl:
        decl = self.sigs.get(name)
        if decl is None:
            self.err(f"unknown type constructor {name}")
        return decl

    def span_from(self, start: int) -> SourceSpan:
        end = self.ends[self.pos - 1] if self.pos > 0 else start
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
        first = self.pos
        if self.kinds[first] == "forall":
            self.pos += 1
            binders = [self.expect("ident")]
            while self.at("ident"):
                binders.append(self.expect("ident"))
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
                        self.pos += 1
                        t = self.want(self.atom(True), PosType, _PRODUCT)
                    for f in reversed(factors):
                        t = Data("Pair", (f, t))
            if self.at("arrow"):
                self.want(t, PosType,
                          "arrow domain must be positive (wrap it in 'dn (...)')")
                self.pos += 1
                t = Arrow(t, self.want(self.type_any(), NegType,
                                       "expected a computation type here"))
        if t.height > MAX_TYPE_HEIGHT:
            self.err("nested too deeply", first)
        return t

    def atom(self, apply: bool):
        """A variable, `dn N`, a parenthesized type, or a value constructor,
        which takes its arguments only when `apply`."""
        i = self.pos
        kind = self.kinds[i]
        text = self.texts[i]
        if kind == "ident":
            self.pos = i + 1
            if text in self.scope:  # counted in binders outward
                return BVar(self.scope[::-1].index(text))
            self.free.add(text)
            return UVar(text)
        if kind == "conid":
            decl = self.sig(text)
            if decl.polarity == "-":
                self.err(f"{text} is a computation type constructor")
            if decl.arity and not apply:
                self.err(f"{text} needs {decl.arity} argument(s); "
                         "parenthesize the application")
            self.pos = i + 1
            return Data(text, self.args(decl) if decl.arity else ())
        if kind == "(":
            self.pos = i + 1
            t = self.type_any()
            self.expect(")")
            return t
        if kind != "dn":
            self.err(f"expected a type, found {text!r}")
        self.pos = i + 1
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
        i = self.pos
        kind = self.kinds[i]
        if kind == "up":
            self.pos = i + 1
            return Up(self.want(self.atom(False), PosType, "up expects a value type"))
        if kind == "conid":
            decl = self.sig(self.texts[i])
            if decl.polarity == "-":
                self.pos = i + 1
                return NegData(decl.name, self.args(decl))
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
            start = self.start(self.pos)
            self.pos += 1
            name = self.expect("ident")
            anno = None
            if self.at(":"):
                self.pos += 1
                anno = self.want(self.type_any(), PosType,
                                 "let annotations must be value types")
            self.expect("=")
            head = self.value()
            self.expect("(")
            args = []
            if not self.at(")"):
                args.append(self.value())
                while self.at(","):
                    self.pos += 1
                    args.append(self.value())
            self.expect(")")
            self.expect(";")
            lets.append((start, name, anno, head, tuple(args)))
        i = self.pos
        kind = self.kinds[i]
        start = self.start(i)
        if kind == "lambda":
            self.pos = i + 1
            param = self.expect("ident")
            self.expect(":")
            anno = self.want(self.type_any(), PosType,
                             "lambda annotations must be value types")
            self.expect(".")
            body = Lambda(param, anno, self.computation(), self.span_from(start))
        elif kind == "tyabs":
            self.pos = i + 1
            binder = self.expect("ident")
            self.expect(".")
            body = TypeAbs(binder, self.computation(), self.span_from(start))
        elif kind == "return":
            self.pos = i + 1
            body = Return(self.value(), self.span_from(start))
        else:
            self.err(f"expected a computation, found "
                     f"{self.texts[i] or 'end of input'!r}")
        # every let in the chain ends where its innermost continuation ends
        for start, name, anno, head, args in reversed(lets):
            span = self.span_from(start)
            if anno is None:
                body = Let(name, head, args, body, span)
            else:
                body = LetAnn(name, anno, head, args, body, span)
        return body

    def value(self) -> Value:
        i = self.pos
        kind = self.kinds[i]
        start = self.start(i)
        if kind == "ident":
            self.pos = i + 1
            return Var(self.texts[i], self.span_from(start))
        if kind == "int":
            return IntLit(self.integer(), self.span_from(start))
        if kind == "true" or kind == "false":
            self.pos = i + 1
            return BoolLit(kind == "true", self.span_from(start))
        if kind == "{":
            self.pos = i + 1
            body = self.computation()
            self.expect("}")
            return Thunk(body, self.span_from(start))
        if kind == "(":
            self.pos = i + 1
            first = self.value()
            if self.at(","):
                self.pos += 1
                second = self.value()
                self.expect(")")
                return PairVal(first, second, self.span_from(start))
            self.expect(")")
            return first
        self.err(f"expected a value, found {self.texts[i] or 'end of input'!r}")

    # -- programs ----------------------------------------------------------

    def program(self) -> Program:
        decls = []
        while self.at("data"):
            self.pos += 1
            name_at = self.pos
            name = self.expect("conid")
            if name in self.sigs:
                self.err(f"datatype {name} is already declared", name_at)
            pol_at = self.pos
            polarity = self.expect("ident")
            if polarity not in ("pos", "neg"):
                self.err("datatype polarity must be 'pos' or 'neg'", pol_at)
            decl = DataDecl(name, "+" if polarity == "pos" else "-", self.integer())
            self.sigs[decl.name] = decl
            decls.append(decl)
        assumptions = []
        seen = set()
        while self.at("val"):
            self.pos += 1
            name_at = self.pos
            name = self.expect("ident")
            if name in seen:
                self.err(f"duplicate assumption {name}", name_at)
            seen.add(name)
            self.expect(":")
            type_at = self.pos
            self.free.clear()
            ty = self.want(self.type_any(), PosType, "assumptions must have value types")
            if self.free:
                loose = ", ".join(sorted(self.free))
                self.err(f"assumption type must be closed (unbound: {loose})", type_at)
            assumptions.append((name, ty))
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
