"""Abstract syntax: polarized types, terms, and ordered checker contexts.

Positive types classify values and negative types classify computations;
the shifts mediate between the two (`Down` thunks a computation type into
a value type, `Up` is the type of a computation returning a value).
Types compare and hash up to renaming of bound variables.  Everything here
is immutable, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, eq=False)
class Forall(NegType):
    """Universal quantification over a positive type variable."""

    binder: str
    body: NegType

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forall):
            return NotImplemented
        return alpha_key(self) == alpha_key(other)

    def __hash__(self) -> int:
        return hash(alpha_key(self))


@dataclass(frozen=True)
class Up(NegType):
    """Returner type: a computation producing a value of the wrapped type."""

    body: PosType


@dataclass(frozen=True)
class NegData(NegType):
    """Opaque negative datatype constructor (positive arguments)."""

    constructor: str
    args: tuple = ()


def alpha_key(t: Type):
    """Key that identifies a type up to renaming of bound variables.

    Two types are alpha-equivalent iff their keys are equal; keys are
    hashable, so they also serve as memo keys.
    """
    return _key(t, {}, 0)


def _key(t, bound, next_level):
    if isinstance(t, UVar):
        return ("u", bound.get(t.name, t.name))
    if isinstance(t, EVar):
        return ("e", t.name)
    if isinstance(t, Down):
        return ("dn", _key(t.body, bound, next_level))
    if isinstance(t, Data):
        return ("data", t.constructor, tuple(_key(a, bound, next_level) for a in t.args))
    if isinstance(t, Arrow):
        return ("->", _key(t.domain, bound, next_level), _key(t.codomain, bound, next_level))
    if isinstance(t, Forall):
        inner = dict(bound)
        inner[t.binder] = next_level
        return ("all", _key(t.body, inner, next_level + 1))
    if isinstance(t, Up):
        return ("up", _key(t.body, bound, next_level))
    if isinstance(t, NegData):
        return ("ndata", t.constructor, tuple(_key(a, bound, next_level) for a in t.args))
    raise TypeError(f"not a type: {t!r}")


def alpha_equal(a: Type, b: Type) -> bool:
    return a is b or alpha_key(a) == alpha_key(b)


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


def term_size(t) -> int:
    """Structural size of a term or argument tuple (number of AST nodes)."""
    if isinstance(t, (Var, IntLit, BoolLit)):
        return 1
    if isinstance(t, Thunk):
        return 1 + term_size(t.body)
    if isinstance(t, PairVal):
        return 1 + term_size(t.first) + term_size(t.second)
    if isinstance(t, Lambda):
        return 1 + term_size(t.body)
    if isinstance(t, TypeAbs):
        return 1 + term_size(t.body)
    if isinstance(t, Return):
        return 1 + term_size(t.value)
    if isinstance(t, (Let, LetAnn)):
        return 1 + term_size(t.head) + term_size(t.args) + term_size(t.cont)
    if isinstance(t, tuple):
        return sum(term_size(v) for v in t)
    raise TypeError(f"not a term: {t!r}")


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
    acc = set()
    _walk_evars(t, acc)
    return acc


def _walk_evars(t, acc):
    if isinstance(t, EVar):
        acc.add(t.name)
    elif isinstance(t, Down):
        _walk_evars(t.body, acc)
    elif isinstance(t, (Data, NegData)):
        for a in t.args:
            _walk_evars(a, acc)
    elif isinstance(t, Arrow):
        _walk_evars(t.domain, acc)
        _walk_evars(t.codomain, acc)
    elif isinstance(t, Forall):
        _walk_evars(t.body, acc)
    elif isinstance(t, Up):
        _walk_evars(t.body, acc)


def free_uvars(t) -> set:
    """Free universal variables of a type, respecting binders."""
    if isinstance(t, UVar):
        return {t.name}
    if isinstance(t, EVar):
        return set()
    if isinstance(t, Down):
        return free_uvars(t.body)
    if isinstance(t, (Data, NegData)):
        acc = set()
        for a in t.args:
            acc |= free_uvars(a)
        return acc
    if isinstance(t, Arrow):
        return free_uvars(t.domain) | free_uvars(t.codomain)
    if isinstance(t, Forall):
        return free_uvars(t.body) - {t.binder}
    if isinstance(t, Up):
        return free_uvars(t.body)
    raise TypeError(f"not a type: {t!r}")


def is_ground(t: Type) -> bool:
    return not free_evars(t)


def type_names(t) -> set:
    """Every variable name appearing anywhere in a type (bound or free)."""
    if isinstance(t, (UVar, EVar)):
        return {t.name}
    if isinstance(t, (Down, Up)):
        return type_names(t.body)
    if isinstance(t, (Data, NegData)):
        acc = set()
        for a in t.args:
            acc |= type_names(a)
        return acc
    if isinstance(t, Arrow):
        return type_names(t.domain) | type_names(t.codomain)
    if isinstance(t, Forall):
        return {t.binder} | type_names(t.body)
    raise TypeError(f"not a type: {t!r}")


def fresh_name(base: str, taken) -> str:
    """A name not in `taken`, derived from `base` by appending a counter."""
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Substitution

def subst_type(p: PosType, alpha: str, target: Type) -> Type:
    """Capture-avoiding substitution of `p` for the universal variable `alpha`."""
    return _substitute(target, {alpha: p}, UVar)


def subst_evar(p: PosType, name: str, target: Type) -> Type:
    """Capture-avoiding substitution of `p` for the existential `name`."""
    return _substitute(target, {name: p}, EVar)


def _substitute(t: Type, sub: dict, var_cls) -> Type:
    """Simultaneous capture-avoiding substitution in one traversal.

    `sub` maps names of `var_cls` variables to positive types.  A binder
    that occurs free in a substituted type is renamed on the way down (the
    renaming travels in `ren`, so no second pass over the body is needed);
    the free universals of the substituted types are computed once, at the
    first binder met.  Unchanged subtrees are returned as they are, so
    substituting into a type that mentions none of the names allocates
    nothing.
    """
    solutions = tuple(sub.values())
    fv = None

    def walk(t, sub, ren):
        nonlocal fv
        if isinstance(t, UVar):
            if t.name in ren:
                return UVar(ren[t.name])
            return sub.get(t.name, t) if var_cls is UVar else t
        if isinstance(t, EVar):
            return sub.get(t.name, t) if var_cls is EVar else t
        if isinstance(t, (Down, Up)):
            body = walk(t.body, sub, ren)
            return t if body is t.body else type(t)(body)
        if isinstance(t, (Data, NegData)):
            args = tuple(walk(a, sub, ren) for a in t.args)
            if all(a is b for a, b in zip(args, t.args)):
                return t
            return type(t)(t.constructor, args)
        if isinstance(t, Arrow):
            dom, cod = walk(t.domain, sub, ren), walk(t.codomain, sub, ren)
            return t if dom is t.domain and cod is t.codomain else Arrow(dom, cod)
        if isinstance(t, Forall):
            binder = t.binder
            if var_cls is UVar and binder in sub:
                sub = {k: v for k, v in sub.items() if k != binder}
            if binder in ren:
                ren = {k: v for k, v in ren.items() if k != binder}
            if not sub and not ren:
                return t
            if fv is None:
                fv = set().union(*map(free_uvars, solutions))
            new = binder
            if sub and binder in fv:
                # rename the binder so it cannot capture free variables of sub
                new = fresh_name(binder, type_names(t.body) | fv | set(sub)
                                 | set(ren.values()))
                ren = {**ren, binder: new}
            body = walk(t.body, sub, ren)
            return t if body is t.body and new == binder else Forall(new, body)
        raise TypeError(f"not a type: {t!r}")

    return walk(t, sub, {})


def rename_tyvar_in_comp(t, old: str, new: str):
    """Rename a universal type variable throughout a term's annotations.

    Only used to refresh a shadowed type-abstraction binder, with `new`
    chosen fresh for the whole term, so plain traversal cannot capture.
    """
    sub = lambda ty: subst_type(UVar(new), old, ty)
    if isinstance(t, Var) or isinstance(t, IntLit) or isinstance(t, BoolLit):
        return t
    if isinstance(t, Thunk):
        return Thunk(rename_tyvar_in_comp(t.body, old, new), t.span)
    if isinstance(t, PairVal):
        return PairVal(rename_tyvar_in_comp(t.first, old, new),
                       rename_tyvar_in_comp(t.second, old, new), t.span)
    if isinstance(t, Lambda):
        return Lambda(t.param, sub(t.annotation),
                      rename_tyvar_in_comp(t.body, old, new), t.span)
    if isinstance(t, TypeAbs):
        if t.binder == old:
            return t
        return TypeAbs(t.binder, rename_tyvar_in_comp(t.body, old, new), t.span)
    if isinstance(t, Return):
        return Return(rename_tyvar_in_comp(t.value, old, new), t.span)
    if isinstance(t, LetAnn):
        return LetAnn(t.name, sub(t.annotation),
                      rename_tyvar_in_comp(t.head, old, new),
                      tuple(rename_tyvar_in_comp(v, old, new) for v in t.args),
                      rename_tyvar_in_comp(t.cont, old, new), t.span)
    if isinstance(t, Let):
        return Let(t.name, rename_tyvar_in_comp(t.head, old, new),
                   tuple(rename_tyvar_in_comp(v, old, new) for v in t.args),
                   rename_tyvar_in_comp(t.cont, old, new), t.span)
    raise TypeError(f"not a term: {t!r}")


def tyvar_names_in_comp(t) -> set:
    """All type-variable names mentioned by a term's annotations and binders."""
    if isinstance(t, (Var, IntLit, BoolLit)):
        return set()
    if isinstance(t, Thunk):
        return tyvar_names_in_comp(t.body)
    if isinstance(t, PairVal):
        return tyvar_names_in_comp(t.first) | tyvar_names_in_comp(t.second)
    if isinstance(t, Lambda):
        return type_names(t.annotation) | tyvar_names_in_comp(t.body)
    if isinstance(t, TypeAbs):
        return {t.binder} | tyvar_names_in_comp(t.body)
    if isinstance(t, Return):
        return tyvar_names_in_comp(t.value)
    if isinstance(t, LetAnn):
        acc = type_names(t.annotation) | tyvar_names_in_comp(t.head) | tyvar_names_in_comp(t.cont)
        for v in t.args:
            acc |= tyvar_names_in_comp(v)
        return acc
    if isinstance(t, Let):
        acc = tyvar_names_in_comp(t.head) | tyvar_names_in_comp(t.cont)
        for v in t.args:
            acc |= tyvar_names_in_comp(v)
        return acc
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Context operations

def apply_context(theta: Context, t: Type) -> Type:
    """Apply a context as a substitution, replacing solved existentials.

    One simultaneous substitution by all the solutions.  Solutions are
    ground in a well-formed context, so this equals substituting them one
    at a time in any order, and it is idempotent.
    """
    solutions = {e.name: e.solution for e in theta.entries if isinstance(e, Solved)}
    return _substitute(t, solutions, EVar) if solutions else t


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


def _solutions_agree(theta: Context, i: int, p: PosType, q: PosType, iso) -> bool:
    if alpha_equal(p, q):
        return True
    # only a non-trivial comparison needs the universals before entry i
    prefix = erase_context(Context(theta.entries[:i]))
    if iso is None:
        from . import oracle
        return oracle.decl_iso(prefix, p, q)
    return iso(prefix, p, q)


def _entry_compatible(e, e2, theta: Context, i: int, iso) -> bool:
    """Can entry i of theta (`e`) become `e2` by gaining information?"""
    if e is e2:
        return True
    if isinstance(e, Universal):
        return isinstance(e2, Universal) and e2.name == e.name
    if isinstance(e, Unsolved):
        return isinstance(e2, (Unsolved, Solved)) and e2.name == e.name
    # solved entries may only be replaced by isomorphic solutions
    return (isinstance(e2, Solved) and e2.name == e.name
            and _solutions_agree(theta, i, e.solution, e2.solution, iso))


def extends(theta: Context, theta_prime: Context, iso=None) -> bool:
    """Information gain: same entries in order, with solutions only added.

    Solved-to-solved entries may differ up to isomorphism; that check uses
    the declarative oracle unless an `iso` predicate is supplied.
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


def complete(theta: Context) -> bool:
    """A complete context has no unsolved existentials."""
    return not any(isinstance(e, Unsolved) for e in theta.entries)


# ---------------------------------------------------------------------------
# Decidability metrics

def termsize(t: Type) -> int:
    """Size of a type ignoring quantification (quantifiers are free)."""
    if isinstance(t, (UVar, EVar)):
        return 1
    if isinstance(t, Down):
        return termsize(t.body) + 1
    if isinstance(t, Forall):
        return termsize(t.body)
    if isinstance(t, Arrow):
        return termsize(t.domain) + termsize(t.codomain) + 1
    if isinstance(t, Up):
        return termsize(t.body) + 1
    if isinstance(t, (Data, NegData)):
        # constructor arguments are strict subterms, keeping the metric decreasing
        return 1 + sum(termsize(a) for a in t.args)
    raise TypeError(f"not a type: {t!r}")


def num_prenex(t: Type) -> int:
    """Length of the leading quantifier spine; zero for every other head."""
    n = 0
    while isinstance(t, Forall):
        n += 1
        t = t.body
    return n
