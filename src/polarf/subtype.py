"""Algorithmic subtyping with ordered contexts of existential variables.

The two judgments are mutually recursive and syntax-directed; no
unification and no backtracking.  Positive judgments keep the ground type
on the left, negative judgments keep it on the right, and existentials are
solved exactly once, by matching a ground type against an existential on
the non-ground side.  Shifts (and datatype constructors) are invariant:
both directions are checked underneath them.

Every rule, here and in the typer, checks its postconditions once it has
derived its judgment, and every call checks the strict decrease of the
decidability metric; violations raise InvariantViolation since they are
bugs here, never user errors.  The postconditions are: the output context
is well-formed and extends the input, which fixes its shape; and the
completed non-ground side is ground and no larger than the ground side.

The context postcondition is checked on what the rule changed
(`wellformed.wf_extension`), by the context-extension lemma (after
Dunfield and Krishnaswami, ICFP 2013; proved in `wf_extension`'s
docstring): if Θ is well-formed and Θ′ differs from it only at entries
unsolved in Θ and solved in Θ′ (and, for the spine rules, at fresh
existentials pushed past Θ), then Θ′ is well-formed iff each new solution
is ground and well-formed in its prefix.  A rule whose output is its input
(`out is theta`) changed nothing, so there is nothing to check.  The lemma
needs a well-formed Θ, and every context a rule receives is one: it was
checked at an entry gate (`subtype_pos`, `subtype_neg`, the `synth_*`
functions and `check_program`), or it was produced by a rule whose
postcondition ran, or it is a push, pop or restriction of such a context
(a pushed entry is a fresh universal or unsolved existential, and dropping
entries from the end leaves every remaining solution in scope).  So the
delta check decides exactly what `wf_context(out) and extends(theta, out)`
decides, which the tests keep as its reference: every rule still runs a
postcondition and checks the same property, at the cost of what it
changed.  For the same reason a subtyping premise of a typing rule
(`_Engine.premise`) does not re-check its context.

A checking run (`_Engine`; the typer extends it) has one trace and one
counter of fresh existentials.  A trace step keeps its judgment and its
contexts as objects and prints them only when read, and a failure keeps
the types in its message the same way (`TypeCheckError.parts`).  A run
asked for no trace (`trace=False`) builds no steps at all, and its
failures carry an empty trace.

Within one subtyping check (one `subtype_pos`/`subtype_neg` call, or one
subtyping premise of a typing rule), a ground/ground judgment under an
invariant rule is derived once; the memo starts empty at each check.  The
invariant rules check both directions one level down, so without this the
engine costs 2^d rules on nested datatypes and 4^d on nested `dn (up ...)`;
every other rule splits its conclusion into disjoint parts, so above the
invariant rules a derivation is already linear in the size of the types.
The memo key is the polarity, the universals in scope (in order) and both
types (whose `==` is alpha-equivalence).  A ground/ground judgment solves
no existential, so its output context is its input context: the judgment
is remembered after it has succeeded and passed its postconditions, and a
repeat returns the input context with a `memo` trace step, after its
metric check.  Judgments whose ground side is a variable or a constant are
not remembered: they take one rule, as a memo step does.  Failures end
the check, so they are not remembered either.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TypeCheckError, require
from .parser import pretty
from .syntax import (
    Arrow, Context, Data, Down, EVar, Forall, NegData, NegType, PosType,
    UVar, Universal, Unsolved, Up, apply_context, fresh_name, is_ground,
    num_prenex,
)
from .wellformed import scoped, wf_context, wf_extension, wf_type


def show(parts) -> str:
    """Print a judgment or a message: its text parts as they are,
    everything else (types, terms, contexts) with `pretty`."""
    return "".join(p if isinstance(p, str) else pretty(p) for p in parts)


@dataclass(frozen=True)
class TraceStep:
    """One completed rule application: the rule, its judgment and the
    contexts before and after, kept as objects and printed when read."""

    rule: str
    judgment: tuple
    before: Context
    after: Context

    goal = property(lambda self: show(self.judgment))
    context_before = property(lambda self: pretty(self.before))
    context_after = property(lambda self: pretty(self.after))


@dataclass(frozen=True)
class SubtypeResult:
    context: Context
    trace: tuple


def _check_post(theta: Context, out: Context, ground_size: int, nonground, goal):
    """Postconditions shared by every rule: well-formedness and extension
    (same entries, in order, with solutions only added), checked on the
    delta; bounding."""
    if not wf_extension(theta, out):
        raise InvariantViolation(
            f"output context is ill-formed or does not extend input in {show(goal)}")
    completed = apply_context(out, nonground)
    if not is_ground(completed):
        raise InvariantViolation(f"completed non-ground side not ground in {show(goal)}")
    if completed.size > ground_size:
        raise InvariantViolation(f"completed size exceeds ground size in {show(goal)}")


# the first component of either metric is the size of the ground side

def _metric_pos(p, q):
    return (p.size, num_prenex(p) + num_prenex(q))


def _metric_neg(n, m):
    return (m.size, num_prenex(m) + num_prenex(n))


def _check_metric(parent, child, goal):
    if parent is not None and child >= parent:
        raise InvariantViolation(f"decidability metric did not decrease at {show(goal)}")


class _Engine:
    """One checking run: its trace (None if not asked for), its
    fresh-existential counter and its memo."""

    def __init__(self, trace=True):
        self.trace = [] if trace else None
        self._counts = {}  # binder hint -> next fresh-existential number

    def fresh_evar(self, base: str, theta: Context) -> str:
        """A fresh existential: the binder's name plus a counter (reproducible)."""
        taken = theta.positions
        n = self._counts.get(base, 0)
        while f"?{base}{n}" in taken:
            n += 1
        self._counts[base] = n + 1
        return f"?{base}{n}"

    def _record(self, rule, judgment, before, after):
        if self.trace is not None:
            self.trace.append(TraceStep(rule, judgment, before, after))

    def fail(self, kind, message, span=None):
        raise TypeCheckError(kind, message, span, tuple(self.trace or ()))

    def _mismatch(self, goal, *detail):
        self.fail("subtype-failure", (*detail, " (while checking ", *goal, ")"))

    def subtype(self, polarity, theta: Context, a, b) -> Context:
        """Check a <=polarity b under theta, after its preconditions, with a new memo."""
        require(wf_context(theta), "input context is ill-formed")
        return self.premise(polarity, theta, a, b)

    def premise(self, polarity, theta: Context, a, b) -> Context:
        """`subtype` for a context already known to be well-formed (see the
        module docstring): the preconditions on the types, and a new memo."""
        require(wf_type(theta, a) and wf_type(theta, b), "types must be well-formed")
        self.memo = set()  # keys of the remembered judgments derived so far
        if polarity == "+":
            require(is_ground(a), "the left side of a positive judgment must be ground")
            require(apply_context(theta, b) == b,
                    "the right side must not mention solved existentials")
            return self.pos(theta, a, b, None)
        require(is_ground(b), "the right side of a negative judgment must be ground")
        require(apply_context(theta, a) == a,
                "the left side must not mention solved existentials")
        return self.neg(theta, a, b, None)

    def _memo_entry(self, shared, polarity, theta, a, b, nonground, ground_size):
        """Memo entry of a judgment worth remembering (see the module
        docstring), or None.  `shared`: the judgment is under an invariant rule."""
        if not shared or ground_size == 1 or not is_ground(nonground):
            return None
        return (polarity, theta.erased, a, b)

    def _remember(self, key, theta, out, goal):
        if key is None:
            return
        if out is not theta and out != theta:
            raise InvariantViolation(
                f"ground judgment changed its context in {show(goal)}")
        self.memo.add(key)

    def _data(self, theta, ground, other, goal, metric) -> Context:
        """The invariant datatype rule: the same constructor and arity, then
        each argument of `ground` against the one of `other`, both ways.
        The mismatch message names the types in the judgment's order."""
        if ground.constructor != other.constructor or len(ground.args) != len(other.args):
            self._mismatch(goal, "constructors ", goal[0], " and ", goal[2],
                           " do not match")
        out = theta
        for g, o in zip(ground.args, other.args):
            o = apply_context(out, o)
            out = self.pos(out, g, o, metric, True)
            out = self.pos(out, apply_context(out, o), g, metric, True)
        self._record("data", goal, theta, out)
        return out

    # -- positive: p ground, q may contain unsolved existentials --------

    def pos(self, theta: Context, p: PosType, q: PosType, parent,
            shared=False) -> Context:
        goal = (p, " <=+ ", q)
        metric = _metric_pos(p, q)
        _check_metric(parent, metric, goal)
        key = self._memo_entry(shared, "+", theta, p, q, q, metric[0])
        if key in self.memo:
            self._record("memo", goal, theta, theta)
            return theta

        if isinstance(q, EVar):
            i = theta.positions.get(q.name)
            if i is None or type(theta.entries[i]) is Universal:
                self._mismatch(goal, f"existential {q.name} is not in scope")
            if not scoped(p, theta, i):
                self._mismatch(goal, "solution ", p, " mentions variables bound "
                                     f"after {q.name} was introduced")
            out = theta.solve(q.name, p)  # raises if q is already solved
            self._record("instantiate", goal, theta, out)
        elif isinstance(p, UVar) and isinstance(q, UVar):
            if p.name != q.name:
                self._mismatch(goal, f"type variables {p.name} and {q.name} differ")
            if p.name not in theta.uvar_names:
                self._mismatch(goal, f"type variable {p.name} is not in scope")
            out = theta
            self._record("refl", goal, theta, out)
        elif isinstance(p, Down) and isinstance(q, Down):
            # invariant shift: check both directions, completing q's side first
            t1 = self.neg(theta, q.body, p.body, metric, True)
            t2 = self.neg(t1, p.body, apply_context(t1, q.body), metric, True)
            out = t2
            self._record("shift-thunk", goal, theta, out)
        elif isinstance(p, Data) and isinstance(q, Data):
            out = self._data(theta, p, q, goal, metric)
        else:
            self._mismatch(goal, p, " is not a subtype of ", q)

        _check_post(theta, out, metric[0], q, goal)
        self._remember(key, theta, out, goal)
        return out

    # -- negative: m ground, n may contain unsolved existentials --------

    def neg(self, theta: Context, n: NegType, m: NegType, parent,
            shared=False) -> Context:
        goal = (n, " <=- ", m)
        metric = _metric_neg(n, m)
        _check_metric(parent, metric, goal)
        key = self._memo_entry(shared, "-", theta, n, m, n, metric[0])
        if key in self.memo:
            self._record("memo", goal, theta, theta)
            return theta

        if isinstance(m, Forall):
            # eliminate quantifiers on the ground side first
            binder = fresh_name(m.hint, theta.positions)
            inner = self.neg(theta.push(Universal(binder)), n, m.open(UVar(binder)),
                             metric, shared)
            out = inner.pop(binder, universal=True)
            self._record("forall-right", goal, theta, out)
        elif isinstance(n, Forall):
            name = self.fresh_evar(n.hint, theta)
            opened = n.open(EVar(name))
            inner = self.neg(theta.push(Unsolved(name)), opened, m, metric, shared)
            # the algorithm need not have solved it; either way it goes out of scope
            out = inner.pop(name, universal=False)
            self._record("forall-left", goal, theta, out)
        elif isinstance(n, Arrow) and isinstance(m, Arrow):
            t1 = self.pos(theta, m.domain, n.domain, metric, shared)
            t2 = self.neg(t1, apply_context(t1, n.codomain), m.codomain, metric,
                          shared)
            out = t2
            self._record("arrow", goal, theta, out)
        elif isinstance(n, Up) and isinstance(m, Up):
            t1 = self.pos(theta, m.body, n.body, metric, True)
            t2 = self.pos(t1, apply_context(t1, n.body), m.body, metric, True)
            out = t2
            self._record("shift-return", goal, theta, out)
        elif isinstance(n, NegData) and isinstance(m, NegData):
            out = self._data(theta, m, n, goal, metric)
        else:
            self._mismatch(goal, n, " is not a subtype of ", m)

        _check_post(theta, out, metric[0], n, goal)
        self._remember(key, theta, out, goal)
        return out


def subtype_pos(theta: Context, p: PosType, q: PosType) -> SubtypeResult:
    """Check p <=+ q under theta; p must be ground, q free of solved existentials.

    Returns the output context (same shape as the input, possibly with new
    solutions) and the derivation trace; raises TypeCheckError on failure.
    """
    run = _Engine()
    return SubtypeResult(run.subtype("+", theta, p, q), tuple(run.trace))


def subtype_neg(theta: Context, n: NegType, m: NegType) -> SubtypeResult:
    """Check n <=- m under theta; m must be ground, n free of solved existentials."""
    run = _Engine()
    return SubtypeResult(run.subtype("-", theta, n, m), tuple(run.trace))


def isomorphic(theta: Context, a, b) -> bool:
    """Mutual subtyping of two ground, well-formed types of equal polarity."""
    require(is_ground(a) and is_ground(b), "isomorphism is defined on ground types")
    if isinstance(a, PosType) != isinstance(b, PosType):
        return False
    check = subtype_pos if isinstance(a, PosType) else subtype_neg
    try:
        check(theta, a, b)
        check(theta, b, a)
        return True
    except TypeCheckError:
        return False
