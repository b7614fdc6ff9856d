"""Algorithmic subtyping with ordered contexts of existential variables.

The two judgments are mutually recursive and syntax-directed; no
unification and no backtracking.  Positive judgments keep the ground type
on the left, negative judgments keep it on the right, and existentials are
solved exactly once, by matching a ground type against an existential on
the non-ground side.  Shifts (and datatype constructors) are invariant:
both directions are checked underneath them.

Every derived judgment checks the metatheoretic postconditions once
(well-formed output context, extension of the input, which fixes its
shape, groundness and size of the completed side) and every call checks
the strict decrease of the decidability metric; violations raise
InvariantViolation since they are bugs here, never user errors.

Within one engine run (one `subtype_pos`/`subtype_neg` call), a
ground/ground judgment under an invariant rule is derived once.  The
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
the run, so they are not remembered either.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TypeCheckError, require
from .parser import pretty
from .syntax import (
    Arrow, Context, Data, Down, EVar, Forall, NegData, NegType, PosType,
    Solved, UVar, Universal, Unsolved, Up, apply_context, erase_context,
    extends, fresh_name, is_ground, num_prenex, termsize,
)
from .wellformed import wf_context, wf_type


class NameSource:
    """Per-checking-run supply of fresh existential names.

    Names derive from the instantiated binder plus a monotone counter, so
    traces are readable and reproducible.  Confined to one checking
    session; independent sessions may run in parallel.
    """

    def __init__(self):
        self._counts = {}

    def fresh_evar(self, base: str, taken) -> str:
        n = self._counts.get(base, 0)
        while f"?{base}{n}" in taken:
            n += 1
        self._counts[base] = n + 1
        return f"?{base}{n}"


@dataclass(frozen=True)
class TraceStep:
    """One completed rule application, with contexts before and after."""

    rule: str
    goal: str
    context_before: str
    context_after: str


@dataclass(frozen=True)
class SubtypeResult:
    context: Context
    trace: tuple


def _check_post(theta: Context, out: Context, ground_size: int, nonground,
                goal: str):
    """Postconditions shared by every rule: extension (same entries, in
    order, with solutions only added), well-formedness, bounding."""
    if not wf_context(out):
        raise InvariantViolation(f"ill-formed output context in {goal}")
    if not extends(theta, out):
        raise InvariantViolation(f"output context does not extend input in {goal}")
    completed = apply_context(out, nonground)
    if not is_ground(completed):
        raise InvariantViolation(f"completed non-ground side not ground in {goal}")
    if termsize(completed) > ground_size:
        raise InvariantViolation(f"completed size exceeds ground size in {goal}")


# the first component of either metric is the size of the ground side

def _metric_pos(p, q):
    return (termsize(p), num_prenex(p) + num_prenex(q))


def _metric_neg(n, m):
    return (termsize(m), num_prenex(m) + num_prenex(n))


def _check_metric(parent, child, goal: str):
    if parent is not None and child >= parent:
        raise InvariantViolation(f"decidability metric did not decrease at {goal}")


def _fail(goal: str, detail: str, trace):
    raise TypeCheckError("subtype-failure", f"{detail} (while checking {goal})",
                         trace=tuple(trace))


class _Engine:
    def __init__(self, names: NameSource):
        self.names = names
        self.trace = []
        self.memo = set()  # keys of the remembered judgments derived so far

    def _record(self, rule, goal, before, after):
        self.trace.append(TraceStep(rule, goal, pretty(before), pretty(after)))

    def _memo_entry(self, shared, polarity, theta, a, b, nonground, ground_size):
        """Memo entry of a judgment worth remembering (see the module
        docstring), or None.  `shared`: the judgment is under an invariant rule."""
        if not shared or ground_size == 1 or not is_ground(nonground):
            return None
        return (polarity, erase_context(theta), a, b)

    def _remember(self, key, theta, out, goal):
        if key is None:
            return
        if out != theta:
            raise InvariantViolation(f"ground judgment changed its context in {goal}")
        self.memo.add(key)

    # -- positive: p ground, q may contain unsolved existentials --------

    def pos(self, theta: Context, p: PosType, q: PosType, parent,
            shared=False) -> Context:
        goal = f"{pretty(p)} <=+ {pretty(q)}"
        metric = _metric_pos(p, q)
        _check_metric(parent, metric, goal)
        key = self._memo_entry(shared, "+", theta, p, q, q, metric[0])
        if key in self.memo:
            self._record("memo", goal, theta, theta)
            return theta

        if isinstance(q, EVar):
            entry = theta.lookup_evar(q.name)
            if entry is None:
                _fail(goal, f"existential {q.name} is not in scope", self.trace)
            if isinstance(entry, Solved):
                raise InvariantViolation(f"{q.name} already solved in {goal}")
            if not wf_type(theta.prefix_before(q.name), p):
                _fail(goal, f"solution {pretty(p)} mentions variables bound "
                            f"after {q.name} was introduced", self.trace)
            out = theta.solve(q.name, p)
            self._record("instantiate", goal, theta, out)
        elif isinstance(p, UVar) and isinstance(q, UVar):
            if p.name != q.name:
                _fail(goal, f"type variables {p.name} and {q.name} differ", self.trace)
            if not theta.has_universal(p.name):
                _fail(goal, f"type variable {p.name} is not in scope", self.trace)
            out = theta
            self._record("refl", goal, theta, out)
        elif isinstance(p, Down) and isinstance(q, Down):
            # invariant shift: check both directions, completing q's side first
            t1 = self.neg(theta, q.body, p.body, metric, True)
            t2 = self.neg(t1, p.body, apply_context(t1, q.body), metric, True)
            out = t2
            self._record("shift-thunk", goal, theta, out)
        elif isinstance(p, Data) and isinstance(q, Data):
            if p.constructor != q.constructor or len(p.args) != len(q.args):
                _fail(goal, f"constructors {pretty(p)} and {pretty(q)} do not match",
                      self.trace)
            out = theta
            for pa, qa in zip(p.args, q.args):
                qa = apply_context(out, qa)
                out = self.pos(out, pa, qa, metric, True)
                out = self.pos(out, apply_context(out, qa), pa, metric, True)
            self._record("data", goal, theta, out)
        else:
            _fail(goal, f"{pretty(p)} is not a subtype of {pretty(q)}", self.trace)

        _check_post(theta, out, metric[0], q, goal)
        self._remember(key, theta, out, goal)
        return out

    # -- negative: m ground, n may contain unsolved existentials --------

    def neg(self, theta: Context, n: NegType, m: NegType, parent,
            shared=False) -> Context:
        goal = f"{pretty(n)} <=- {pretty(m)}"
        metric = _metric_neg(n, m)
        _check_metric(parent, metric, goal)
        key = self._memo_entry(shared, "-", theta, n, m, n, metric[0])
        if key in self.memo:
            self._record("memo", goal, theta, theta)
            return theta

        if isinstance(m, Forall):
            # eliminate quantifiers on the ground side first
            binder = fresh_name(m.hint, set(theta.names()))
            inner = self.neg(theta.push(Universal(binder)), n, m.open(UVar(binder)),
                             metric, shared)
            if not isinstance(inner.last(), Universal) or inner.last().name != binder:
                raise InvariantViolation(f"universal {binder} lost in {goal}")
            out = inner.drop_last()
            self._record("forall-right", goal, theta, out)
        elif isinstance(n, Forall):
            name = self.names.fresh_evar(n.hint, set(theta.names()))
            opened = n.open(EVar(name))
            inner = self.neg(theta.push(Unsolved(name)), opened, m, metric, shared)
            if inner.last() is None or inner.last().name != name \
                    or isinstance(inner.last(), Universal):
                raise InvariantViolation(f"existential {name} lost in {goal}")
            # the algorithm need not have solved it; either way it goes out of scope
            out = inner.drop_last()
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
            if n.constructor != m.constructor or len(n.args) != len(m.args):
                _fail(goal, f"constructors {pretty(n)} and {pretty(m)} do not match",
                      self.trace)
            out = theta
            for na, ma in zip(n.args, m.args):
                na = apply_context(out, na)
                out = self.pos(out, ma, na, metric, True)
                out = self.pos(out, apply_context(out, na), ma, metric, True)
            self._record("data", goal, theta, out)
        else:
            _fail(goal, f"{pretty(n)} is not a subtype of {pretty(m)}", self.trace)

        _check_post(theta, out, metric[0], n, goal)
        self._remember(key, theta, out, goal)
        return out


def subtype_pos(theta: Context, p: PosType, q: PosType,
                names: NameSource = None) -> SubtypeResult:
    """Check p <=+ q under theta; p must be ground, q free of solved existentials.

    Returns the output context (same shape as the input, possibly with new
    solutions) and the derivation trace; raises TypeCheckError on failure.
    """
    require(wf_context(theta), "input context is ill-formed")
    require(wf_type(theta, p) and wf_type(theta, q), "types must be well-formed")
    require(is_ground(p), "the left side of a positive judgment must be ground")
    require(apply_context(theta, q) == q,
            "the right side must not mention solved existentials")
    eng = _Engine(names or NameSource())
    out = eng.pos(theta, p, q, None)
    return SubtypeResult(out, tuple(eng.trace))


def subtype_neg(theta: Context, n: NegType, m: NegType,
                names: NameSource = None) -> SubtypeResult:
    """Check n <=- m under theta; m must be ground, n free of solved existentials."""
    require(wf_context(theta), "input context is ill-formed")
    require(wf_type(theta, n) and wf_type(theta, m), "types must be well-formed")
    require(is_ground(m), "the right side of a negative judgment must be ground")
    require(apply_context(theta, n) == n,
            "the left side must not mention solved existentials")
    eng = _Engine(names or NameSource())
    out = eng.neg(theta, n, m, None)
    return SubtypeResult(out, tuple(eng.trace))


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
