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

`_lex` returns three lists: the token kinds, the token texts and the
offset just past each token (in characters, not bytes); a token starts at
its end minus its length.  The parser reads them by index: `pos` is the
next token.  An input is lexed by one `findall` of (gap, token) pairs, the
gap being whitespace and comments, and each distinct token text's kind is
read once.  The tokens are kept for the process by the input's text, with
ends from its start, so an input that comes back, at any offset, is read
in one lookup.

The parse error "nested too deeply" is a type as written taller than
`MAX_TYPE_HEIGHT` (nodes on its longest path to a leaf, quantifiers
included), spanning its first token, or a term nested more than
`MAX_TERM_DEPTH` levels deep, at the first token past that depth: braces,
lambda and type-abstraction bodies, pairs and parentheses add a level, and
so do parentheses in a type but those around the argument of a constructor
or `up`; a chain of `let`s adds none.  The typer adds a term whose type
would be taller than `MAX_TYPE_HEIGHT`.  Within the bounds no layer runs
out of stack (see `MAX_TERM_DEPTH`).

Programs tend to repeat their declarations: every corpus program starts
with the same 26 `val` lines.  So `parse_program` keeps, for the whole
process, the datatypes and assumptions that the clean parse of each
declaration block produced, by the block's text: the block is every line
before the first line whose first token is `run`.  A program whose block
was seen before is lexed and parsed from its `run` line on, and nothing of
the block is lexed, parsed or built again.  A `run` that does not start
its line, a block longer than `MEMO_TEXT_MAX` characters or a parse error
takes the full path.  The block holds the program's `data` declarations,
which decide what a constructor means, and its binders' names, so
alpha-variants keep entries of their own and print with their own names.

Each memo keeps at most `MEMO_CAP` texts of at most `MEMO_TEXT_MAX`
characters, the oldest leaving first; a longer input is never looked up.
No input or block that fails is kept, so it fails again with the same
message and span.  Type nodes are never changed once built, so parses may
share them.  Terms carry spans and are always parsed afresh.  `parse_type`
keeps its tokens like any input's, and builds its type afresh.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import itemgetter

from .errors import Record, SourceSpan, TypeCheckError
from .syntax import (
    Arrow, BVar, BoolLit, Computation, Context, Data, Down, EVar, Forall,
    IntLit, Lambda, Let, LetAnn, NegData, NegType, PairVal, PosType, Return,
    Solved, Thunk, TypeAbs, TypeEnv, UVar, Up, Value, Var, fresh_name,
)

KEYWORDS = {"forall", "up", "dn", "let", "return", "run", "val", "data",
            "true", "false"}


class DataDecl(Record):
    """A datatype constructor: name, polarity ('+' or '-'), and arity."""

    __slots__ = _fields = ("name", "polarity", "arity")

    def __init__(self, name: str, polarity: str, arity: int):
        self.name, self.polarity, self.arity = name, polarity, arity


BUILTIN_DATATYPES = (
    DataDecl("Int", "+", 0),
    DataDecl("Bool", "+", 0),
    DataDecl("String", "+", 0),
    DataDecl("List", "+", 1),
    DataDecl("Pair", "+", 2),
    DataDecl("ST", "-", 2),
)


# The tallest type read or built; a taller one is "nested too deeply".
MAX_TYPE_HEIGHT = 200

# The deepest a term nests.  Within both bounds every layer fits the default
# recursion limit of 1,000 with 50 to spare for the callers of `cli.main`.
# In units of the limit (C-level comparisons count), a term level costs the
# parser 3 (a thunk: `value`, `nested`, `computation`), the typer 4 (a thunk
# argument: `comp`, `_let_application`, `spine`, `value`) and the printer 2;
# a type level costs the parser 4 (a constructor argument: `type_any`,
# `atom`, `args`, `atom`), subtyping 4 (`==` on equal types: a `Record`
# `__eq__` frame, then comparing the field tuples, the `args` tuples and an
# argument; a one-field node such as `up` costs 2) and the printer 2, up
# to twice this tall (a parameter type completed with a solution).  The
# most from `main` is 931: a let under 32 thunk arguments checking an
# argument against 198 nested `List`s.
MAX_TERM_DEPTH = 32

_PRODUCT = "product components must be positive types"


class Program(Record):
    """A parsed source file: datatype declarations, assumptions, and one term."""

    __slots__ = _fields = ("datatypes", "assumptions", "body")

    def __init__(self, datatypes: tuple, assumptions: tuple, body: Computation):
        self.datatypes, self.assumptions, self.body = datatypes, assumptions, body


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


# The tokens of the inputs lexed so far (kinds, texts and ends counted from
# the input's start) and the datatypes and assumptions of the declaration
# blocks parsed cleanly so far, each by its text, the oldest leaving first:
# at most MEMO_CAP texts each, of at most MEMO_TEXT_MAX characters.
MEMO_CAP = 64
MEMO_TEXT_MAX = 8192
_INPUT_TOKENS: dict = {}
_PRELUDES: dict = {}


def _keep(memo: dict, key, value):
    """Store `value` in a memo of at most MEMO_CAP entries, the oldest
    leaving first.  Threads share the memos: another may drop the same
    entry first."""
    while len(memo) >= MEMO_CAP:
        try:
            del memo[next(iter(memo))]
        except (KeyError, RuntimeError):  # RuntimeError: changed while read
            pass
    memo[key] = value


def _lex(src: str, filename: str, start: int = 0):
    """The tokens of `src` from offset `start` as three new lists: `kinds`,
    `texts` and `ends` (the offset in `src` just past each token; a token
    starts at its end minus its length).  The last token is `eof`.  Raises
    the parse error of the first character no token starts with."""
    text = src[start:]
    short = len(text) <= MEMO_TEXT_MAX
    kept = _INPUT_TOKENS.get(text) if short else None
    if kept is None:
        pairs = _TOKEN.findall(text)
        # after a gap that ends the input, the pattern matches once more, empty
        if len(pairs) > 1 and not pairs[-2][1]:
            del pairs[-1]
        texts = list(map(itemgetter(1), pairs))
        kind_of = {t: _kind(t) for t in set(texts)}
        kinds = list(map(kind_of.__getitem__, texts))
        ends = list(accumulate(map(len, chain.from_iterable(pairs))))[1::2]
        if "bad" in kind_of.values():
            i = kinds.index("bad")
            c = texts[i][0]
            at = start + ends[i] - len(texts[i])
            msg = _STRAY.get(c) or f"unexpected character {c!r}"
            raise TypeCheckError("parse", msg, SourceSpan(filename, at, at + 1))
        if short:
            _keep(_INPUT_TOKENS, text, (tuple(kinds), tuple(texts), tuple(ends)))
    else:
        kinds, texts, ends = map(list, kept)
    return kinds, texts, list(map(start.__add__, ends)) if start else ends


_BUILTIN_SIGS = {d.name: d for d in BUILTIN_DATATYPES}


class _Parser:
    def __init__(self, src: str, filename: str, start: int = 0):
        self.filename = filename
        self.kinds, self.texts, self.ends = _lex(src, filename, start)
        self.pos = self.type_start = 0
        self.sigs = _BUILTIN_SIGS.copy()
        self.scope = []    # the type variables bound by enclosing foralls
        self.free = set()  # type variables read outside their scope
        self.depth = 0     # the levels of term nesting around the next token

    # -- token plumbing ------------------------------------------------
    # Tokens are read by index.  `eof` is consumed only by a rule's last
    # `expect("eof")`, so `pos` stays in range for every lookahead; only an
    # error can come after it.

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def start(self, i: int) -> int:
        """The offset of token `i`'s first character."""
        return self.ends[i] - len(self.texts[i])

    def err(self, msg: str, i: int | None = None):
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

    def nested(self, rule, *args):
        """`rule(*args)`, a term level deeper; past the bound, at the next token."""
        if self.depth == MAX_TERM_DEPTH:
            self.err("nested too deeply")
        self.depth += 1
        result = rule(*args)
        self.depth -= 1
        return result

    # -- types ---------------------------------------------------------
    # One rule reads a type of either polarity; `want` checks the polarity
    # where the type is used.  `d` counts the nodes the type surely has above
    # the next token: it is too tall once `d` reaches the bound, or a part
    # read under `d` nodes is too tall for them.

    def whole_type(self):
        self.type_start = self.pos  # where "nested too deeply" points
        return self.type_any()

    def type_any(self, d: int = 0):
        """A quantifier, or a head, its `*` factors and then `-> N`."""
        if d >= MAX_TYPE_HEIGHT:
            self.err("nested too deeply", self.type_start)
        if self.at("forall"):
            self.pos += 1
            binders = [self.expect("ident")]
            while self.at("ident"):
                binders.append(self.expect("ident"))
            self.expect(".")
            self.scope += binders
            t = self.want(self.type_any(d + len(binders)), NegType,
                          "expected a computation type here")
            del self.scope[-len(binders):]
            for b in reversed(binders):
                t = Forall.bind(b, t)
        else:
            t = self.neg_head(d)
            if t is None:
                t = self.atom(True, d)
                if self.at("*"):  # `P * Q` is `Pair P Q`, right associative
                    factors = []
                    while self.at("*"):
                        factors.append(self.want(t, PosType, _PRODUCT))
                        self.pos += 1
                        t = self.want(self.atom(True, d), PosType, _PRODUCT)
                    for f in reversed(factors):
                        t = Data("Pair", (f, t))
            if self.at("arrow"):
                self.want(t, PosType,
                          "arrow domain must be positive (wrap it in 'dn (...)')")
                self.pos += 1
                t = Arrow(t, self.want(self.type_any(d + 1), NegType,
                                       "expected a computation type here"))
        if t.height + d > MAX_TYPE_HEIGHT:
            self.err("nested too deeply", self.type_start)
        return t

    def atom(self, apply: bool, d: int):
        """A variable, `dn N`, a parenthesized type, or a value constructor,
        which takes its arguments only when `apply`."""
        if d >= MAX_TYPE_HEIGHT:
            self.err("nested too deeply", self.type_start)
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
            return Data(text, self.args(decl, d) if decl.arity else ())
        if kind == "(":  # around an argument, it is part of that node
            self.pos = i + 1
            t = self.nested(self.type_any, d) if apply else self.type_any(d)
            self.expect(")")
            return t
        if kind != "dn":
            self.err(f"expected a type, found {text!r}")
        self.pos = i + 1
        if not self.at("("):  # `dn` before a computation head
            return Down(self.neg_head(d + 1)
                        or self.err("dn expects a computation type (usually 'dn (...)')"))
        self.pos += 1
        t = self.want(self.type_any(d + 1), NegType, "expected a computation type here")
        self.expect(")")
        return Down(t)

    def neg_head(self, d: int):
        """`up P` or a computation constructor and its arguments; None at
        any other token."""
        i = self.pos
        kind = self.kinds[i]
        if kind == "up":
            self.pos = i + 1
            return Up(self.want(self.atom(False, d + 1), PosType, "up expects a value type"))
        if kind == "conid":
            decl = self.sig(self.texts[i])
            if decl.polarity == "-":
                self.pos = i + 1
                return NegData(decl.name, self.args(decl, d))
        return None

    def args(self, decl: DataDecl, d: int) -> tuple:
        """The arguments of `decl`'s constructor, one atom each."""
        args = []
        for i in range(decl.arity):
            t = self.atom(False, d + 1)
            if not isinstance(t, PosType):
                self.err(f"argument {i + 1} of {decl.name} must be a positive type")
            args.append(t)
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
                anno = self.want(self.whole_type(), PosType,
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
            anno = self.want(self.whole_type(), PosType,
                             "lambda annotations must be value types")
            self.expect(".")
            body = Lambda(param, anno, self.nested(self.computation),
                          self.span_from(start))
        elif kind == "tyabs":
            self.pos = i + 1
            binder = self.expect("ident")
            self.expect(".")
            body = TypeAbs(binder, self.nested(self.computation), self.span_from(start))
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
            body = self.nested(self.computation)
            self.expect("}")
            return Thunk(body, self.span_from(start))
        if kind == "(":
            self.pos = i + 1
            first = self.nested(self.value)
            if self.at(","):
                self.pos += 1
                second = self.nested(self.value)
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
            ty = self.want(self.whole_type(), PosType, "assumptions must have value types")
            if self.free:
                loose = ", ".join(sorted(self.free))
                self.err(f"assumption type must be closed (unbound: {loose})", type_at)
            assumptions.append((name, ty))
        return self.run(tuple(decls), tuple(assumptions))

    def run(self, datatypes: tuple, assumptions: tuple) -> Program:
        """`run t` and the end of input, after the declaration block."""
        self.expect("run")
        body = self.computation()
        self.expect("eof")
        return Program(datatypes, assumptions, body)


# The first line whose first token is `run`: `run'` and `runx` are identifiers.
_RUN_LINE = re.compile(r"^[ \t\r]*run(?![\w'])", re.MULTILINE)


def _block_length(src: str):
    """The length of `src`'s declaration block: the characters before the
    first line whose first token is `run`.  None if there is no such line
    or the block is longer than MEMO_TEXT_MAX.  Only the lines that start
    by that bound are read: those before the last one end before it, and
    the last one is matched where it starts, however long its indent."""
    last = src.rfind("\n", 0, MEMO_TEXT_MAX) + 1
    m = _RUN_LINE.search(src, 0, last) or _RUN_LINE.match(src, last)
    return m.start() if m else None


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse a whole program; raises TypeCheckError(parse) with a span."""
    n = _block_length(text)
    block = None if n is None else text[:n]
    kept = _PRELUDES.get(block)
    if kept is not None:
        p = _Parser(text, filename, n)
        p.sigs.update((d.name, d) for d in kept[0])
        return p.run(*kept)
    prog = _Parser(text, filename).program()
    if block is not None:
        _keep(_PRELUDES, block, (prog.datatypes, prog.assumptions))
    return prog


def parse_type(text: str, polarity: str = "any", filename: str = "<type>"):
    """Parse a single type; `polarity` is '+', '-', or 'any'."""
    p = _Parser(text, filename)
    t = p.whole_type()
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


def _pp_pos(p, env=None, atom=False) -> str:
    """`env` holds the binders around `p` (None outside every binder); an
    `atom` is parenthesized unless it is a variable or a constant."""
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
        out = f"dn ({_pp_neg(p.body, env)})"
    elif cls is not Data:
        raise TypeError(f"not a positive type: {p!r}")
    elif not p.args:
        return p.constructor
    elif _is_pair(p):
        left, right = p.args
        out = f"{_pp_pos(left, env, _is_pair(left))} * {_pp_pos(right, env)}"
    else:
        out = " ".join([p.constructor] + [_pp_pos(a, env, True) for a in p.args])
    return f"({out})" if atom else out


def _pp_neg(n, env=None) -> str:
    if isinstance(n, Forall):
        return _Binders().render(n) if env is None else env.forall(n)
    if isinstance(n, Arrow):
        return f"{_pp_pos(n.domain, env)} -> {_pp_neg(n.codomain, env)}"
    if isinstance(n, Up):
        return f"up {_pp_pos(n.body, env, True)}"
    if isinstance(n, NegData):
        return " ".join([n.constructor] + [_pp_pos(a, env, True) for a in n.args])
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
    lets = []  # a chain of lets is printed in a loop
    while isinstance(t, (Let, LetAnn)):
        anno = f" : {_pp_pos(t.annotation)}" if isinstance(t, LetAnn) else ""
        args = ", ".join([_pp_value(v) for v in t.args])
        lets.append(f"let {t.name}{anno} = {_pp_value(t.head)}({args}); ")
        t = t.cont
    if isinstance(t, Lambda):
        last = f"\\{t.param} : {_pp_pos(t.annotation)}. {_pp_comp(t.body)}"
    elif isinstance(t, TypeAbs):
        last = f"/\\{t.binder}. {_pp_comp(t.body)}"
    elif isinstance(t, Return):
        last = f"return {_pp_value(t.value)}"
    else:
        raise TypeError(f"not a computation: {t!r}")
    return "".join(lets) + last


def _pp_context(theta: Context) -> str:
    return ", ".join([f"{e.name} = {_pp_pos(e.solution)}" if type(e) is Solved else e.name
                      for e in theta.entries]) or "·"
