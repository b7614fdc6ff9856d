"""Abstract syntax: polarized types, terms, and ordered checker contexts.

Positive types classify values and negative types classify computations;
the shifts mediate between the two (`Down` thunks a computation type into
a value type, `Up` is the type of a computation returning a value).

Binders are locally nameless (Charguéraud, "The Locally Nameless
Representation", JAR 2012): a `Forall` binds the `BVar`s of its scope and
every `UVar` is free, so `==` and `hash` are alpha-equivalence and
substitution never renames.  Three things are written into a value after
it is built: a composite type's kept hash, a quantifier's named view (both
below) and a context's `_extends` stamp (`wellformed.wf_extension`).  A
race between threads is harmless: the hash and the view are functions of
the node's fields, so racing threads write equal values, and a stamp says
only what a check found true, so every stamp a reader sees is true and one
lost to a race costs only a check.  So values can be shared across threads.

Every type node carries its facts, computed from its children's facts in
O(arity) (the per-node half of Filliâtre and Conchon, "Type-Safe Modular
Hash-Consing", ML Workshop 2006).  All but the hash are computed when the
node is built:

- `evars` and `uvars`: the names of its free existentials and universals,
  as frozensets, shared with a child whose set already holds them all;
- `size`: its size ignoring quantification (quantifiers are free; constructor
  arguments count as strict subterms, keeping the decidability metric decreasing);
- `height`: the number of nodes on its longest path down to a leaf, a
  quantifier included (a variable or a constant is 1);
- `dangling`: the largest index of a `BVar` below it that no `Forall` below
  it binds, counted from the node itself, or -1 if there is none (so a type
  is closed iff this is -1);
- `typed`: whether every node below it is a type;
- `prenex`: the number of quantifiers in its leading block (`Forall`s
  directly inside one another, from the node down); 0 unless it is a
  `Forall`;
- `hash`: its structural hash, the one `==` agrees with.  A node with
  children (`_Composite`) computes it on its first `hash()`, from its
  children's kept hashes, and keeps it, so every later `hash()` is O(1);
  the memo keys of the subtyping engine and of the oracle hash whole
  types on every lookup.  It is not computed when the node is built: most
  nodes are never hashed, and a node whose child is not a type still
  builds.  A variable hashes its name or index on each call and keeps
  nothing.

The invariant is that a node's facts are those of the subtree below it.
A node's fields are never changed after it is built, so they stay true
(the kept hash is filled in once, from the fields), and the
operations that walked a type read them instead: free variables,
groundness and size are attribute reads, and well-formedness is two set
inclusions and an int test.

One structural map (`_map`) serves every substitution, and it returns a
subtree as it is when the subtree's facts show that the substitution
cannot change it: none of its free existentials (or universals) is in the
substitution's domain, or none of its dangling indices is the one being
opened.  That is sound because a substitution changes only the variables
it replaces, and the facts name every free variable and bound the
dangling index of the subtree.  So a map costs only the nodes on the paths
to the variables it replaces.

Terms carry their node count (`size`) the same way.
"""

from __future__ import annotations

from functools import lru_cache
from operator import is_

from .errors import InvariantViolation, Record, SourceSpan

# ---------------------------------------------------------------------------
# Types

class _Type(Record):
    """The facts every type node carries (see the module docstring)."""

    __slots__ = ("evars", "uvars", "size", "height", "dangling", "typed")

    prenex = 0  # a `Forall` keeps its own

    def __reduce__(self):
        # `copy` and `pickle` rebuild a node from its fields: a copy computes its facts
        return type(self), tuple(getattr(self, f) for f in self._fields)


class PosType(_Type):
    """Base class for positive (value) types."""

    __slots__ = ()


class NegType(_Type):
    """Base class for negative (computation) types."""

    __slots__ = ()


class _Composite(_Type):
    """A type node with children.  It keeps its hash in `_hash`, which
    `_combine` sets to None: the first `hash()` computes it with
    `_rehash`, which hashes the tuple of the node's fields (see `Record`)
    and so reads each child's kept hash."""

    __slots__ = ("_hash",)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = self._rehash()
        return h


Type = PosType | NegType

_NONE = frozenset()


@lru_cache(maxsize=4096)
def _names(name: str) -> frozenset:
    """The one-name set, shared by the variables of that name."""
    return frozenset((name,))


class _NotAType:
    """The facts a child that is not a type counts with: one node, and not
    a type (so neither is its parent), as a walk would see it."""

    evars = uvars = _NONE
    size, height, dangling, typed = 1, 1, -1, False


def _combine(node, kids, size=1, shift=0):
    """Give `node` the facts of its children `kids`: `size` is what the node
    adds itself (a quantifier adds nothing) and `shift` the binders it puts
    around them.  This runs for every node built, so it reads the facts
    without testing the children's class; a child that is not a type makes
    a read fail, and then counts as `_NotAType`."""
    evars = uvars = _NONE
    total, height, dangling, typed = size, 1, -1, True
    try:
        for c in kids:
            e, u = c.evars, c.uvars
            evars = e if evars <= e else evars if e <= evars else evars | e
            uvars = u if uvars <= u else uvars if u <= uvars else uvars | u
            total += c.size
            h = c.height
            if h >= height:
                height = h + 1
            if c.dangling > dangling:
                dangling = c.dangling
            typed = typed and c.typed
    except AttributeError:
        kids = [c if isinstance(c, _Type) else _NotAType for c in kids]
        return _combine(node, kids, size, shift)
    node.evars, node.uvars, node.size, node.typed = evars, uvars, total, typed
    node.height, node._hash = height, None
    node.dangling = dangling - shift if dangling >= shift else -1


# A type node is a `Record` whose `__init__` sets its fields and facts.  No
# guard stops assignment (it would cost `object.__setattr__` per slot, as a
# frozen class does): nothing assigns to a node after `__init__` but what it
# keeps when first asked, its hash and a `Forall`'s named view, functions
# of its fields.  A variable has one fact of its own; the others are class
# attributes, shared by every variable of its class.

class UVar(PosType):
    """Universal type variable."""

    __slots__ = _fields = ("name",)
    evars, size, height, dangling, typed = _NONE, 1, 1, -1, True

    def __init__(self, name: str):
        self.name, self.uvars = name, _names(name)


class BVar(PosType):
    """Bound type variable, found only in a `Forall`'s scope: `BVar(0)` is
    the variable of the nearest enclosing `Forall`, `BVar(1)` the next."""

    __slots__ = _fields = ("index",)
    evars, uvars, size, height, typed = _NONE, _NONE, 1, 1, True

    def __init__(self, index: int):
        self.index = self.dangling = index


class EVar(PosType):
    """Existential placeholder; checker-internal, never produced by parsing."""

    __slots__ = _fields = ("name",)
    uvars, size, height, dangling, typed = _NONE, 1, 1, -1, True

    def __init__(self, name: str):
        self.name, self.evars = name, _names(name)


class Down(PosType, _Composite):
    """Thunk type: suspends a computation of the wrapped negative type."""

    __slots__ = _fields = ("body",)

    def __init__(self, body: NegType):
        self.body = body
        _combine(self, (body,))


class Data(PosType, _Composite):
    """Opaque positive datatype constructor applied to positive arguments."""

    __slots__ = _fields = ("constructor", "args")

    def __init__(self, constructor: str, args: tuple = ()):
        self.constructor, self.args = constructor, args
        _combine(self, args)


class Arrow(NegType, _Composite):
    """Function type; domain is positive, codomain negative."""

    __slots__ = _fields = ("domain", "codomain")

    def __init__(self, domain: PosType, codomain: NegType):
        self.domain, self.codomain = domain, codomain
        _combine(self, (domain, codomain))


class Forall(NegType, _Composite):
    """Universal quantification over a positive type variable.

    Inside `scope` the bound variable is a `BVar`, so `==` and the kept
    hash are alpha-equivalence: both read `scope` only, its one compared
    field; `hint` is the name it prints as unless that would capture.
    `Forall(binder, body)`, `.binder` and `.body` are a named view for
    callers outside the parser, the printer and the checker, which work on
    `scope`: it is kept in the slot `_named`, filled when the view is first
    read (or by `Forall(binder, body)`).  A quantifier's `prenex` fact is
    one more than its scope's.
    """

    __slots__ = ("scope", "hint", "prenex", "_named")
    _fields = ("scope",)

    def __init__(self, binder: str, body: NegType):
        scope = _map(body, lambda v, k: BVar(k), lambda u, k: binder not in u.uvars)
        self.scope, self.hint, self.prenex = scope, binder, 1 + getattr(scope, "prenex", 0)
        self._named = binder, body
        _combine(self, (scope,), 0, 1)

    @classmethod
    def bind(cls, hint: str, scope: NegType) -> "Forall":
        """The quantifier whose scope is `scope` (its variable is `BVar(0)`)."""
        self = object.__new__(cls)
        self.scope, self.hint, self.prenex = scope, hint, 1 + getattr(scope, "prenex", 0)
        _combine(self, (scope,), 0, 1)
        return self

    def __reduce__(self):
        return Forall.bind, (self.hint, self.scope)

    def __repr__(self):
        return f"Forall(scope={self.scope!r}, hint={self.hint!r})"

    def open(self, p: PosType) -> NegType:
        """The scope with the bound variable replaced by the closed type `p`."""
        return open_block(self, (p,))

    def _view(self) -> tuple:
        try:
            return self._named
        except AttributeError:
            binder = fresh_name(self.hint, self.scope.uvars)
            self._named = named = binder, self.open(UVar(binder))
            return named

    binder = property(lambda self: self._view()[0])
    body = property(lambda self: self._view()[1])


class Up(NegType, _Composite):
    """Returner type: a computation producing a value of the wrapped type."""

    __slots__ = _fields = ("body",)

    def __init__(self, body: PosType):
        self.body = body
        _combine(self, (body,))


class NegData(NegType, _Composite):
    """Opaque negative datatype constructor (positive arguments)."""

    __slots__ = _fields = ("constructor", "args")

    def __init__(self, constructor: str, args: tuple = ()):
        self.constructor, self.args = constructor, args
        _combine(self, args)


def _map(t: Type, leaf, skip, k: int = 0) -> Type:
    """Rebuild `t` with each variable `v` replaced by `leaf(v, k)`, where `k`
    counts the binders above `v`.  A subtree `u` for which `skip(u, k)`
    holds (its facts show the map cannot change it) is returned as it is,
    and so is every subtree the map leaves unchanged.  Nothing is ever
    renamed: bound variables are `BVar`s, and the types put in for free
    ones are closed.
    """
    if skip(t, k):
        return t
    cls = type(t)
    if cls is Arrow:
        dom, cod = _map(t.domain, leaf, skip, k), _map(t.codomain, leaf, skip, k)
        return t if dom is t.domain and cod is t.codomain else Arrow(dom, cod)
    if cls is Down or cls is Up:
        body = _map(t.body, leaf, skip, k)
        return t if body is t.body else cls(body)
    if cls is Data or cls is NegData:
        args = tuple([_map(a, leaf, skip, k) for a in t.args])
        return t if all(map(is_, args, t.args)) else cls(t.constructor, args)
    if cls is Forall:
        scope = _map(t.scope, leaf, skip, k + 1)
        return t if scope is t.scope else Forall.bind(t.hint, scope)
    return leaf(t, k)


def open_block(t: NegType, ps) -> NegType:
    """The scope of `t`'s first len(ps) quantifiers, with the variable of
    the i-th (the outermost is the 0th) replaced by the closed type `ps[i]`.

    One simultaneous map, however many quantifiers it opens (multi-binder
    opening; Charguéraud, JAR 2012).  Opening them one at a time rebuilds
    every inner quantifier once per quantifier above it, since each inner
    scope mentions the outer variables: quadratic in the block's width.  A
    `ps[i]` whose variable the scope does not mention is never read.
    """
    k = len(ps)
    for _ in range(k):
        t = t.scope
    # below d binders of the scope, BVar(d + i) is the variable of quantifier k-1-i
    return _map(t, lambda v, d: v if v.index < d else ps[k - 1 - v.index + d],
                lambda u, d: u.dangling < d)


def used_binders(t: NegType, k: int) -> set:
    """The positions (the outermost is 0) of those of `t`'s first k
    quantifiers whose variable their scope mentions.  A map that replaces
    nothing finds them, so it builds no node."""
    for _ in range(k):
        t = t.scope
    used = set()

    def leaf(v, d):
        if v.index >= d:
            used.add(k - 1 - v.index + d)
        return v

    _map(t, leaf, lambda u, d: u.dangling < d)
    return used


# ---------------------------------------------------------------------------
# Terms
#
# A term is a `Record` that compares all its fields but `span`.  Its
# `size`, not a field either, is its number of nodes (type annotations are
# not nodes): a class attribute on the leaves, a slot on the rest.

class Value(Record):
    """Base class for value terms."""

    __slots__ = ()


class Computation(Record):
    """Base class for computation terms."""

    __slots__ = ()


Term = Value | Computation

# argument lists are plain tuples of values, applied all at once
ArgList = tuple


class Var(Value):
    __slots__, _fields = ("name", "span"), ("name",)
    size = 1

    def __init__(self, name: str, span: SourceSpan | None = None):
        self.name, self.span = name, span


class Thunk(Value):
    """Braces around a computation, suspending it."""

    __slots__, _fields = ("body", "span", "size"), ("body",)

    def __init__(self, body: Computation, span: SourceSpan | None = None):
        self.body, self.span, self.size = body, span, 1 + body.size


class IntLit(Value):
    __slots__, _fields = ("value", "span"), ("value",)
    size = 1

    def __init__(self, value: int, span: SourceSpan | None = None):
        self.value, self.span = value, span


class BoolLit(Value):
    __slots__, _fields = ("value", "span"), ("value",)
    size = 1

    def __init__(self, value: bool, span: SourceSpan | None = None):
        self.value, self.span = value, span


class PairVal(Value):
    __slots__, _fields = ("first", "second", "span", "size"), ("first", "second")

    def __init__(self, first: Value, second: Value, span: SourceSpan | None = None):
        self.first, self.second, self.span = first, second, span
        self.size = 1 + first.size + second.size


class Lambda(Computation):
    """Annotated function abstraction; the annotation is a positive type."""

    __slots__ = ("param", "annotation", "body", "span", "size")
    _fields = ("param", "annotation", "body")

    def __init__(self, param: str, annotation: PosType, body: Computation,
                 span: SourceSpan | None = None):
        self.param, self.annotation, self.body = param, annotation, body
        self.span, self.size = span, 1 + body.size


class TypeAbs(Computation):
    __slots__, _fields = ("binder", "body", "span", "size"), ("binder", "body")

    def __init__(self, binder: str, body: Computation, span: SourceSpan | None = None):
        self.binder, self.body, self.span, self.size = binder, body, span, 1 + body.size


class Return(Computation):
    __slots__, _fields = ("value", "span", "size"), ("value",)

    def __init__(self, value: Value, span: SourceSpan | None = None):
        self.value, self.span, self.size = value, span, 1 + value.size


class LetAnn(Computation):
    """let x : P = head(args); cont  -- the annotated sequencing form."""

    __slots__ = ("name", "annotation", "head", "args", "cont", "span", "size")
    _fields = ("name", "annotation", "head", "args", "cont")

    def __init__(self, name: str, annotation: PosType, head: Value, args: ArgList,
                 cont: Computation, span: SourceSpan | None = None):
        self.name, self.annotation, self.head, self.args = name, annotation, head, args
        self.cont, self.span = cont, span
        self.size = 1 + head.size + sum(a.size for a in args) + cont.size


class Let(Computation):
    """let x = head(args); cont  -- allowed only when the result is unambiguous."""

    __slots__ = ("name", "head", "args", "cont", "span", "size")
    _fields = ("name", "head", "args", "cont")

    def __init__(self, name: str, head: Value, args: ArgList, cont: Computation,
                 span: SourceSpan | None = None):
        self.name, self.head, self.args, self.cont, self.span = name, head, args, cont, span
        self.size = 1 + head.size + sum(a.size for a in args) + cont.size


# ---------------------------------------------------------------------------
# Contexts and environments

class Universal(Record):
    """A universal type variable entry."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class Unsolved(Record):
    """An existential variable without a solution yet."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self.name = name


class Solved(Record):
    """An existential variable with its (ground) solution."""

    __slots__ = _fields = ("name", "solution")

    def __init__(self, name: str, solution: PosType):
        self.name, self.solution = name, solution


ContextEntry = Universal | Unsolved | Solved


class Context(Record):
    """Ordered checker context; entry names are pairwise distinct.

    A context is a stack.  The checker changes one in only three ways: it
    pushes entries on the end, pops the last entries off again (`pop` checks
    that they are the ones pushed), or solves an existential in place.  A
    rule that opens quantifiers pops their entries before it returns, and
    the spine rules leave their existentials pushed on the end, where the
    let rules cut them off (`restrict_context`).  So an output context is
    its input with solutions added and, after a spine, new existentials at
    the end, and the extension checks compare a prefix instead of matching
    entries up by name.

    A context carries its facts the way a type node does: `positions` (each
    entry's position, by name), `uvar_names` and `evar_names`, `solutions`
    (each solved existential's solution, by name) and `erased` (the
    declarative context: universal names only, in order).
    `Context(entries)` computes them in one pass, and `push`, `pop` and
    `restrict_context` build their contexts that way: a pass over a context,
    which holds only the variables in scope, costs less than handing the
    facts over did.  `solve` changes no name, so its context shares its
    input's `positions`, names and `erased`, with one solution added.  A
    pushed context also keeps the context it was pushed on (`_below`, else
    None), and so does a context solved at an entry that was pushed: `pop`
    returns it as it is when it takes off all the entries pushed on it.
    `_extends` is the stamp of a passed extension check (see
    `wellformed.wf_extension`), else None.  Facts are shared between
    contexts, so they are never mutated.  `==`, `hash`, `repr`, `copy` and
    `pickle` go by the entries alone, its one compared field.
    """

    __slots__ = ("entries", "positions", "uvar_names", "evar_names", "solutions",
                 "erased", "_below", "_extends")
    _fields = ("entries",)

    def __init__(self, entries: tuple = ()):
        positions, solutions, universals, evars = {}, {}, [], []
        for i, e in enumerate(entries):
            positions[e.name] = i
            if type(e) is Universal:
                universals.append(e.name)
            else:
                evars.append(e.name)
                if type(e) is Solved:
                    solutions[e.name] = e.solution
        self.entries, self.positions, self.solutions = entries, positions, solutions
        self.erased = erased = tuple(universals)
        self.uvar_names, self.evar_names = frozenset(erased), frozenset(evars)
        self._below = self._extends = None

    def __hash__(self):  # the entries' own hash, which a result's hash includes
        return hash(self.entries)

    def __reduce__(self):
        return Context, (self.entries,)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def push(self, *entries: ContextEntry) -> "Context":
        """The context with `entries` pushed on the end, in order."""
        if not entries:
            return self
        n, new = len(self.entries), Context(self.entries + entries)
        for k, e in enumerate(entries):
            if e.name in self.positions or new.positions[e.name] != n + k:
                raise InvariantViolation(f"duplicate context entry {e.name}")
        new._below = self
        return new

    def pop(self, name: str, universal: bool) -> "Context":
        """The context without its last entry, which must be the universal
        `name` (or, unless `universal`, the existential `name`)."""
        return self.pop_all((name,), universal)

    def pop_all(self, names: tuple, universal: bool = False) -> "Context":
        """The context without its last len(names) entries, which must be
        the existentials `names` in order (or, if `universal`, the
        universals)."""
        kind = "universal" if universal else "existential"
        n = len(self.entries) - len(names)
        if n < 0 or any(e.name != x or (type(e) is Universal) != universal
                        for e, x in zip(self.entries[n:], names)):
            raise InvariantViolation(f"{kind} {names[-1]} is not the last context entry")
        below = self._below
        if below is not None and len(below.entries) == n:
            return below
        return Context(self.entries[:n])

    def solve(self, name: str, solution: PosType) -> "Context":
        """Replace the unsolved entry for `name` with a solution."""
        i = self.positions.get(name)
        if i is None:
            raise InvariantViolation(f"no entry named {name}")
        entries = self.entries
        if not isinstance(entries[i], Unsolved):
            raise InvariantViolation(f"{name} is not unsolved")
        new = object.__new__(Context)
        new.entries = entries[:i] + (Solved(name, solution),) + entries[i + 1:]
        new.positions, new.erased = self.positions, self.erased
        new.uvar_names, new.evar_names = self.uvar_names, self.evar_names
        new.solutions = {**self.solutions, name: solution}
        # solving a pushed entry leaves the context below it as it was
        below = self._below
        new._below = below if below is not None and i >= len(below.entries) else None
        new._extends = None
        return new


class TypeEnv(Record):
    """Environment mapping term variables to positive types; rightmost wins."""

    __slots__ = _fields = ("bindings",)

    def __init__(self, bindings: tuple = ()):
        self.bindings = bindings

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

def free_uvars(t: Type) -> frozenset:
    """Universal variables of a type; they are all free, as binders bind `BVar`s."""
    return t.uvars


def is_ground(t: Type) -> bool:
    return not t.evars


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
    return _map(target, lambda v, k: sub[v.name], lambda u, k: u.uvars.isdisjoint(sub))


def subst_type(p: PosType, alpha: str, target: Type) -> Type:
    """Substitution of the closed type `p` for the universal variable `alpha`."""
    return subst_uvars({alpha: p}, target)


# ---------------------------------------------------------------------------
# Context operations

def apply_context(theta: Context, t: Type) -> Type:
    """Apply a context as a substitution, replacing solved existentials.

    One simultaneous substitution by all the solutions.  Solutions are
    ground in a well-formed context, so this equals substituting them one
    at a time in any order, and it is idempotent.
    """
    solutions = theta.solutions
    solved = solutions.keys()  # its `isdisjoint` walks the smaller side
    if solved.isdisjoint(t.evars):
        return t
    return _map(t, lambda v, k: solutions[v.name],
                lambda u, k: solved.isdisjoint(u.evars))


def extends(theta: Context, theta_prime: Context) -> bool:
    """Information gain, by its definition: the same number of entries, and
    each is equal or has gone from `Unsolved(x)` to `Solved(x, p)`.  The
    checker decides this with `wellformed.wf_extension`; this is the
    reference it is checked against."""
    return len(theta.entries) == len(theta_prime.entries) and all(
        e == e2 or type(e) is Unsolved and type(e2) is Solved and e2.name == e.name
        for e, e2 in zip(theta.entries, theta_prime.entries))


# ---------------------------------------------------------------------------
# Decidability metrics

def num_prenex(t: Type) -> int:
    """Length of the leading quantifier spine; zero for every other head."""
    return t.prenex
