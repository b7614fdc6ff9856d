"""Abstract syntax: polarized types, terms, and ordered checker contexts.

Positive types classify values and negative types classify computations;
the shifts mediate between the two (`Down` thunks a computation type into
a value type, `Up` is the type of a computation returning a value).

Binders are locally nameless (Charguéraud, "The Locally Nameless
Representation", JAR 2012): a `Forall` binds the `BVar`s of its scope and
every `UVar` is free, so `==` and `hash` are alpha-equivalence and
substitution never renames.  One structural map (`_map`) and one node walk
(`nodes`) serve every operation on types.  Everything here is immutable,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from .errors import InvariantViolation, SourceSpan

# ---------------------------------------------------------------------------
# Types

class PosType:
    """Base class for positive (value) types."""

    __slots__ = ()


class NegType:
    """Base class for negative (computation) types."""

    __slots__ = ()


Type = Union[PosType, NegType]


@dataclass(frozen=True)
class UVar(PosType):
    """Universal type variable."""

    name: str


@dataclass(frozen=True)
class BVar(PosType):
    """Bound type variable, found only in a `Forall`'s scope: `BVar(0)` is
    the variable of the nearest enclosing `Forall`, `BVar(1)` the next."""

    index: int


@dataclass(frozen=True)
class EVar(PosType):
    """Existential placeholder; checker-internal, never produced by parsing."""

    name: str


@dataclass(frozen=True)
class Down(PosType):
    """Thunk type: suspends a computation of the wrapped negative type."""

    body: NegType


@dataclass(frozen=True)
class Data(PosType):
    """Opaque positive datatype constructor applied to positive arguments."""

    constructor: str
    args: tuple = ()


@dataclass(frozen=True)
class Arrow(NegType):
    """Function type; domain is positive, codomain negative."""

    domain: PosType
    codomain: NegType


@dataclass(frozen=True, init=False)
class Forall(NegType):
    """Universal quantification over a positive type variable.

    Inside `scope` the bound variable is a `BVar`, so the generated `==`
    and `hash` are alpha-equivalence; `hint` is the name it prints as
    unless that would capture.  `Forall(binder, body)`, `.binder` and
    `.body` are a named view (opened once, then cached) for callers outside
    the parser, the printer and the checker, which work on `scope`.
    """

    scope: NegType
    hint: str = field(compare=False)

    # the class is frozen, so fields are set through `__dict__`
    def __init__(self, binder: str, body: NegType):
        close = lambda v, k: BVar(k) if type(v) is UVar and v.name == binder else v
        self.__dict__.update(scope=_map(body, close), hint=binder, _named=(binder, body))

    @classmethod
    def bind(cls, hint: str, scope: NegType) -> "Forall":
        """The quantifier whose scope is `scope` (its variable is `BVar(0)`)."""
        self = object.__new__(cls)
        self.__dict__.update(scope=scope, hint=hint)
        return self

    def open(self, p: PosType) -> NegType:
        """The scope with the bound variable replaced by the closed type `p`."""
        return _map(self.scope, lambda v, k: p if type(v) is BVar and v.index == k else v)

    @cached_property
    def _named(self) -> tuple:
        binder = fresh_name(self.hint, free_uvars(self.scope))
        return binder, self.open(UVar(binder))

    binder = property(lambda self: self._named[0])
    body = property(lambda self: self._named[1])


@dataclass(frozen=True)
class Up(NegType):
    """Returner type: a computation producing a value of the wrapped type."""

    body: PosType


@dataclass(frozen=True)
class NegData(NegType):
    """Opaque negative datatype constructor (positive arguments)."""

    constructor: str
    args: tuple = ()


def alpha_equal(a: Type, b: Type) -> bool:
    """Equality up to renaming of bound variables, which is plain `==`."""
    return a == b


def nodes(t: Type, named: bool = False, k: int = 0, out: list = None) -> list:
    """Every node of `t` in pre-order, each with the number of binders above
    it (`k` and `out` carry the recursion).  The walk enters a `Forall`'s
    `scope`, or with `named=True` its named view, where nodes are closed."""
    if out is None:
        out = []
    out.append((t, k))
    cls = type(t)
    if cls is Arrow:
        nodes(t.domain, named, k, out)
        nodes(t.codomain, named, k, out)
    elif cls is Down or cls is Up:
        nodes(t.body, named, k, out)
    elif cls is Data or cls is NegData:
        for a in t.args:
            nodes(a, named, k, out)
    elif cls is Forall:
        if named:
            nodes(t.body, named, k, out)
        else:
            nodes(t.scope, named, k + 1, out)
    return out


def _map(t: Type, leaf, k: int = 0) -> Type:
    """Rebuild `t` with every variable `v` (UVar, EVar or BVar) replaced by
    `leaf(v, k)`, where `k` counts the binders above `v`.  Unchanged
    subtrees are returned as they are.  Nothing is ever renamed: bound
    variables are `BVar`s, and the types put in for free ones are closed.
    """
    cls = type(t)
    if cls is Data or cls is NegData:
        if not t.args:
            return t
        args = tuple([_map(a, leaf, k) for a in t.args])
        return t if args == t.args else cls(t.constructor, args)
    if cls is UVar or cls is EVar or cls is BVar:
        return leaf(t, k)
    if cls is Arrow:
        dom, cod = _map(t.domain, leaf, k), _map(t.codomain, leaf, k)
        return t if dom is t.domain and cod is t.codomain else Arrow(dom, cod)
    if cls is Down or cls is Up:
        body = _map(t.body, leaf, k)
        return t if body is t.body else cls(body)
    if cls is Forall:
        scope = _map(t.scope, leaf, k + 1)
        return t if scope is t.scope else Forall.bind(t.hint, scope)
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Terms

class Value:
    """Base class for value terms."""

    __slots__ = ()


class Computation:
    """Base class for computation terms."""

    __slots__ = ()


Term = Union[Value, Computation]

# argument lists are plain tuples of values, applied all at once
ArgList = tuple


@dataclass(frozen=True)
class Var(Value):
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Thunk(Value):
    """Braces around a computation, suspending it."""

    body: Computation
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IntLit(Value):
    value: int
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoolLit(Value):
    value: bool
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PairVal(Value):
    first: Value
    second: Value
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Lambda(Computation):
    """Annotated function abstraction; the annotation is a positive type."""

    param: str
    annotation: PosType
    body: Computation
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TypeAbs(Computation):
    binder: str
    body: Computation
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Return(Computation):
    value: Value
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LetAnn(Computation):
    """let x : P = head(args); cont  -- the annotated sequencing form."""

    name: str
    annotation: PosType
    head: Value
    args: ArgList
    cont: Computation
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Let(Computation):
    """let x = head(args); cont  -- allowed only when the result is unambiguous."""

    name: str
    head: Value
    args: ArgList
    cont: Computation
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


def term_nodes(t):
    """Every node of a term, in pre-order."""
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        yield t
        if cls is Thunk or cls is Lambda or cls is TypeAbs:
            stack.append(t.body)
        elif cls is PairVal:
            stack += (t.second, t.first)
        elif cls is Return:
            stack.append(t.value)
        elif cls is Let or cls is LetAnn:
            stack += (t.cont, *reversed(t.args), t.head)
        elif cls is not Var and cls is not IntLit and cls is not BoolLit:
            raise TypeError(f"not a term: {t!r}")


def term_size(t) -> int:
    """Structural size of a term (number of AST nodes)."""
    return sum(1 for _ in term_nodes(t))


# ---------------------------------------------------------------------------
# Contexts and environments

@dataclass(frozen=True)
class Universal:
    """A universal type variable entry."""

    name: str


@dataclass(frozen=True)
class Unsolved:
    """An existential variable without a solution yet."""

    name: str


@dataclass(frozen=True)
class Solved:
    """An existential variable with its (ground) solution."""

    name: str
    solution: PosType


ContextEntry = Union[Universal, Unsolved, Solved]


@dataclass(frozen=True)
class Context:
    """Ordered checker context; entry names are pairwise distinct."""

    entries: tuple = ()

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    def evar_names(self) -> set:
        return {e.name for e in self.entries if not isinstance(e, Universal)}

    def uvar_names(self) -> set:
        return {e.name for e in self.entries if isinstance(e, Universal)}

    def has_universal(self, name: str) -> bool:
        return any(isinstance(e, Universal) and e.name == name for e in self.entries)

    def lookup_evar(self, name: str):
        for e in self.entries:
            if not isinstance(e, Universal) and e.name == name:
                return e
        return None

    def prefix_before(self, name: str) -> "Context":
        """Entries strictly before the named entry."""
        for i, e in enumerate(self.entries):
            if e.name == name:
                return Context(self.entries[:i])
        raise KeyError(name)

    def push(self, entry: ContextEntry) -> "Context":
        if entry.name in set(self.names()):
            raise InvariantViolation(f"duplicate context entry {entry.name}")
        return Context(self.entries + (entry,))

    def drop_last(self) -> "Context":
        return Context(self.entries[:-1])

    def last(self):
        return self.entries[-1] if self.entries else None

    def solve(self, name: str, solution: PosType) -> "Context":
        """Replace the unsolved entry for `name` with a solution."""
        out = []
        hit = False
        for e in self.entries:
            if e.name == name:
                if not isinstance(e, Unsolved):
                    raise InvariantViolation(f"{name} is not unsolved")
                out.append(Solved(name, solution))
                hit = True
            else:
                out.append(e)
        if not hit:
            raise InvariantViolation(f"no entry named {name}")
        return Context(tuple(out))


@dataclass(frozen=True)
class TypeEnv:
    """Environment mapping term variables to positive types; rightmost wins."""

    bindings: tuple = ()

    def lookup(self, name: str):
        for x, p in reversed(self.bindings):
            if x == name:
                return p
        return None

    def extend(self, name: str, p: PosType) -> "TypeEnv":
        return TypeEnv(self.bindings + ((name, p),))

    def __iter__(self):
        return iter(self.bindings)


# ---------------------------------------------------------------------------
# Free variables

def free_evars(t) -> set:
    """Existential names occurring in a type, or tracked by a context."""
    if isinstance(t, Context):
        acc = set()
        for e in t.entries:
            if isinstance(e, (Unsolved, Solved)):
                acc.add(e.name)
            if isinstance(e, Solved):
                acc |= free_evars(e.solution)
        return acc
    return {v.name for v, _ in nodes(t) if type(v) is EVar}


def free_uvars(t) -> set:
    """Universal variables of a type; they are all free, as binders bind `BVar`s."""
    return {v.name for v, _ in nodes(t) if type(v) is UVar}


def is_ground(t: Type) -> bool:
    return not free_evars(t)


def fresh_name(base: str, taken) -> str:
    """A name not in `taken`, derived from `base` by appending a counter."""
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def bind_tyvar(name: str, taken, renamed: dict):
    """The universal a type abstraction `/\\name` introduces, and the
    source-name map for its body: `name` itself unless `taken` (the
    context's names) has it; else a fresh name, which the map gives for
    `name`, and which the source cannot name itself (the map gives None)."""
    universal = fresh_name(name, taken)
    if universal == name:
        return universal, renamed
    return universal, {**renamed, name: universal, universal: None}


# ---------------------------------------------------------------------------
# Substitution

def subst_uvars(sub: dict, target: Type) -> Type:
    """Simultaneous substitution of closed types for universal variables."""
    return _map(target, lambda v, k: sub.get(v.name, v) if type(v) is UVar else v)


def subst_type(p: PosType, alpha: str, target: Type) -> Type:
    """Substitution of the closed type `p` for the universal variable `alpha`."""
    return subst_uvars({alpha: p}, target)


def subst_evar(p: PosType, name: str, target: Type) -> Type:
    """Substitution of the closed type `p` for the existential `name`."""
    return _map(target, lambda v, k: p if type(v) is EVar and v.name == name else v)


# ---------------------------------------------------------------------------
# Context operations

def apply_context(theta: Context, t: Type) -> Type:
    """Apply a context as a substitution, replacing solved existentials.

    One simultaneous substitution by all the solutions.  Solutions are
    ground in a well-formed context, so this equals substituting them one
    at a time in any order, and it is idempotent.
    """
    solutions = {e.name: e.solution for e in theta.entries if isinstance(e, Solved)}
    if not solutions:
        return t
    return _map(t, lambda v, k: solutions.get(v.name, v) if type(v) is EVar else v)


def restrict_context(theta_prime: Context, theta: Context) -> Context:
    """Drop from theta_prime the existentials that theta does not know about.

    Universal entries must line up pairwise; existential entries present in
    theta keep theta_prime's (possibly newer) solutions, the rest are
    removed.  The caller guarantees theta_prime weakly extends theta.
    """
    keep = theta.evar_names()
    out = []
    i = len(theta_prime.entries) - 1
    j = len(theta.entries) - 1
    while i >= 0:
        e = theta_prime.entries[i]
        if isinstance(e, Universal):
            if j < 0 or not isinstance(theta.entries[j], Universal) \
                    or theta.entries[j].name != e.name:
                raise InvariantViolation(
                    f"restriction misaligned at universal {e.name}")
            out.append(e)
            i -= 1
            j -= 1
        elif e.name in keep:
            if j < 0 or isinstance(theta.entries[j], Universal) \
                    or theta.entries[j].name != e.name:
                raise InvariantViolation(
                    f"restriction misaligned at existential {e.name}")
            out.append(e)
            i -= 1
            j -= 1
        else:
            i -= 1
    if j >= 0:
        raise InvariantViolation("restriction target has entries the source lacks")
    return Context(tuple(reversed(out)))


def erase_context(theta: Context) -> tuple:
    """The declarative context: universal names only, in order."""
    return tuple(e.name for e in theta.entries if isinstance(e, Universal))


def _entry_compatible(e, e2, theta: Context, i: int, iso) -> bool:
    """Can entry i of theta (`e`) become `e2` by gaining information?"""
    if e is e2:
        return True
    if isinstance(e, Universal):
        return isinstance(e2, Universal) and e2.name == e.name
    if isinstance(e, Unsolved):
        return isinstance(e2, (Unsolved, Solved)) and e2.name == e.name
    # a solved entry keeps its solution, or takes one `iso` accepts (only
    # that comparison needs the universals before entry i)
    return (isinstance(e2, Solved) and e2.name == e.name
            and (e2.solution == e.solution or iso is not None and iso(
                erase_context(Context(theta.entries[:i])), e.solution, e2.solution)))


def extends(theta: Context, theta_prime: Context, iso=None) -> bool:
    """Information gain: same entries in order, with solutions only added.

    A solved entry must keep its solution (up to alpha-equivalence), unless
    an `iso(universals, p, q)` predicate is supplied and accepts the new one.
    """
    if len(theta.entries) != len(theta_prime.entries):
        return False
    for i, (e, e2) in enumerate(zip(theta.entries, theta_prime.entries)):
        if not _entry_compatible(e, e2, theta, i, iso):
            return False
    return True


def weak_extends(theta: Context, theta_prime: Context, iso=None) -> bool:
    """Like `extends`, but theta_prime may interleave brand-new existentials."""
    known = theta.evar_names() | theta.uvar_names()
    i = len(theta.entries) - 1
    for j in range(len(theta_prime.entries) - 1, -1, -1):
        e2 = theta_prime.entries[j]
        if not isinstance(e2, Universal) and e2.name not in known:
            continue
        if i < 0:
            return False
        e = theta.entries[i]
        if not _entry_compatible(e, e2, theta, i, iso):
            return False
        i -= 1
    return i < 0


# ---------------------------------------------------------------------------
# Decidability metrics

def termsize(t: Type) -> int:
    """Size of a type ignoring quantification (quantifiers are free).

    Constructor arguments count as strict subterms, keeping the metric
    decreasing."""
    return len([v for v, _ in nodes(t) if type(v) is not Forall])


def num_prenex(t: Type) -> int:
    """Length of the leading quantifier spine; zero for every other head."""
    n = 0
    while isinstance(t, Forall):
        n += 1
        t = t.scope
    return n
