"""Algorithmic subtyping with ordered contexts of existential variables.

The two judgments are mutually recursive and syntax-directed; no
unification and no backtracking.  Positive judgments keep the ground type
on the left, negative judgments keep it on the right, and existentials are
solved exactly once, by matching a ground type against an existential on
the non-ground side.  Shifts (and datatype constructors) are invariant:
both directions are checked underneath them.

The non-ground side of a positive judgment mentions no existential that
the context has solved.  The non-ground side of a negative judgment is
read through the context: it may mention solved existentials, and a rule
applies the context only to the part it reads, when it reads it.  So the
arrow rule completes the domain it hands to its positive premise and
passes the rest of the arrow chain on as it is, and shift-return completes
the returned type.  (Before, the invariant was that the negative side
mentions no solved existential, and the arrow rule completed the whole
rest of the chain after each domain, so a chain of k arrows that ends in
an early existential cost O(k^2) nodes.)  A trace step's judgment is read
through its `before` context when it is printed, so it prints as it did.

A block of quantifiers on the non-ground side is opened at once
(`_Engine._open`): a fresh existential for each variable, named in the
order the quantifiers come, all pushed in one step, and one simultaneous
map over the scope (`syntax.open_block`; Charguéraud, "The Locally
Nameless Representation", JAR 2012).  The derivation is the one that
opens the quantifiers one at a time: `forall-left` for each.  The steps
of the inner quantifiers keep the block and build their judgments and
contexts when read (`_OpenedStep`); their postconditions follow from the
scope's by the lemmas below, since a quantifier's completed scope is its
opened one with solutions of at least one node put back in for its
variable.  The block is opened at once only when its first variable is
used: then every judgment inside it mentions that variable's existential,
so none of them is remembered (see below).  An unused first variable is
opened on its own, and what is left may be a judgment worth remembering.

Every rule, here and in the typer, checks its postconditions once it has
derived its judgment, and every call checks the strict decrease of the
decidability metric; violations raise InvariantViolation since they are
bugs here, never user errors.  The postconditions are: the output context
is well-formed and extends the input, which fixes its shape; and the
completed non-ground side is ground and no larger than the ground side.

The context postcondition is checked by `wellformed.wf_extension`.  A rule
that changes the context itself (`instantiate` solves an existential)
checks what it changed, by the context-extension lemma (after Dunfield and
Krishnaswami, ICFP 2013; proved in `wf_extension`'s docstring): if Θ is
well-formed and Θ′ differs from it only at entries unsolved in Θ and
solved in Θ′ (and, for the spine rules, at fresh existentials pushed past
Θ), then Θ′ is well-formed iff each new solution is ground and well-formed
in its prefix.  A rule whose output comes from its premises follows from
their checks by transitivity of extension (Lemma 2 there): the check
still runs, and it costs O(1) when the output is the object its last
premise returned, read through the stamps its premises' checks left.  A
rule whose output is its input (`out is theta`) changed nothing, so there
is nothing to check.  The lemmas need a well-formed Θ, and every context a
rule receives is one: it was checked at an entry gate (`subtype_pos`,
`subtype_neg`, the `synth_*` functions and `check_program`), or it was
produced by a rule whose postcondition ran, or it is a push, pop or
restriction of such a context (a pushed entry is a fresh universal or
unsolved existential, and dropping entries from the end leaves every
remaining solution in scope).  So the check decides exactly what
`wf_context(out) and extends(theta, out)` decides, which the tests keep
as its reference.  For the same reason a subtyping premise of a typing
rule (`_Engine.premise`) does not re-check its context.

The completed non-ground side is not rebuilt to check its size.  Each
rule returns, with its output context, the size of its completed
non-ground side, built from its premises' sizes:

    Lemma (completion).  Let Θ′ extend Θ.  Completion commutes with the
    rule's constructor, [Θ′](A → N) = [Θ′]A → [Θ′]N, and so on for the
    shifts and datatypes, and a ground completion stays the same under
    extension: if [Θ]A is ground then [Θ′]A = [Θ]A.  So when a rule's
    premises each return with a ground completion of their part of the
    non-ground side (their own postcondition), the rule's completion is
    its constructor over those completions: ground, and of one node more
    than their sizes together.  For `forall-left`, [Θ′](∀a. N) has the
    size of [Θ′]N with `a` left in place, which is no larger than the
    completed opened scope, since a solution has at least one node.

So a premise's completion is ground because its rule returned; only the
rules that complete a leaf check groundness themselves (`instantiate`
reads its solution with `scoped`, a variable is ground, and a remembered
judgment is ground), and every rule compares its size with the ground
side.  `tests/test_delta_checks.py` compares both lemmas with the full
checks on every rule of the generated suites and the corpus.

A checking run (`_Engine`; the typer extends it) has one trace and one
counter of fresh existentials.  A trace step keeps its judgment and its
contexts as objects and prints them only when read, and a failure keeps
the types in its message the same way (`TypeCheckError.parts`), read
through the context of the rule that failed.  A run asked for no trace
(`trace=False`) builds no steps at all, and its failures carry an empty
trace.

Within one checking run, a ground/ground judgment under an invariant rule
is derived once: the memo starts empty with the run and lasts across all
of its subtyping premises.  The invariant rules check both directions one
level down, so without this the engine costs 2^d rules on nested
datatypes and 4^d on nested `dn (up ...)`; every other rule splits its
conclusion into disjoint parts, so above the invariant rules a derivation
is already linear in the size of the types.  The memo key is the
polarity, the universals in scope (in order) and both types (whose `==`
is alpha-equivalence), the non-ground one read through the context.  A
key hashes in O(1) after a node's first hash: a type node keeps its hash
(see `syntax`), so each node is hashed once, when a key that holds it is
first looked up.  A ground/ground judgment solves no existential, so its
output context is its input context and its truth depends on the key
alone: it is remembered after it has succeeded and passed its
postconditions, with the steps its derivation took on the fresh-existential
counters.  A repeat in any later premise of the run returns its input
context with a `memo` trace step, after its metric check, and takes those
steps again, so later existentials get the names deriving it again gives.
Judgments whose ground side is a variable or a constant are not
remembered: they take one rule, as a memo step does.  Failures end the
run, so they are not remembered either.
"""

from __future__ import annotations

from .errors import InvariantViolation, Record, TypeCheckError, require
from .parser import pretty
from .syntax import (
    Arrow, Context, Data, Down, EVar, Forall, NegData, NegType, PosType,
    UVar, Universal, Unsolved, Up, apply_context, fresh_name, is_ground,
    open_block, used_binders,
)
from .wellformed import scoped, wf_context, wf_extension, wf_type


def show(parts) -> str:
    """Print a judgment or a message: its text parts as they are,
    everything else (types, terms, contexts) with `pretty`."""
    return "".join(p if isinstance(p, str) else pretty(p) for p in parts)


def read(theta: Context, parts) -> tuple:
    """`parts` with each type read through `theta`."""
    return tuple(apply_context(theta, p) if isinstance(p, (PosType, NegType)) else p
                 for p in parts)


class TraceStep:
    """One completed rule application: the rule, its judgment and the
    contexts before and after, kept as objects and printed when read.
    `parts` is the judgment as the rule built it; `judgment` reads its
    types through `before`, as the rule read them."""

    __slots__ = ("rule", "parts", "before", "after")

    def __init__(self, rule, judgment, before, after):
        self.rule, self.parts, self.before, self.after = rule, judgment, before, after

    judgment = property(lambda self: read(self.before, self.parts))
    goal = property(lambda self: show(self.judgment))
    context_before = property(lambda self: pretty(self.before))
    context_after = property(lambda self: pretty(self.after))

    def _key(self):
        return self.rule, self.judgment, self.before, self.after

    def __eq__(self, other):
        return isinstance(other, TraceStep) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"TraceStep({self.rule!r}, {self.goal!r})"


class _Block:
    """A prenex block that a rule opened at once (`_Engine._open`): the
    head `n`, the value each variable was opened to (`ps`, None for one the
    spine skipped), the ground side or result `m` and the text between, the
    context the block was opened in and the rule's output.  The steps of
    the quantifiers inside the block, one rule each as if opened one at a
    time, are built from these when read (`_OpenedStep`)."""

    def __init__(self, rules, n, sep, m, ps, theta, out, popped):
        self.rules, self.n, self.sep, self.m, self.ps = rules, n, sep, m, ps
        self.theta, self.out, self.popped = theta, out, popped

    def before(self, i):
        return self.theta.push(*(Unsolved(p.name) for p in self.ps[:i] if p is not None))

    def after(self, i):
        if not self.popped:
            return self.out
        pushed = sum(p is not None for p in self.ps[:i])
        return Context(self.out.entries[:len(self.theta.entries) + pushed])

    def parts(self, i):
        return open_block(self.n, self.ps[:i]), self.sep, self.m


class _OpenedStep(TraceStep):
    """The step of the i-th quantifier of a block opened at once."""

    __slots__ = ("block", "i")

    def __init__(self, block, i):
        self.block, self.i = block, i

    rule = property(lambda self: self.block.rules[self.i])
    parts = property(lambda self: self.block.parts(self.i))
    before = property(lambda self: self.block.before(self.i))
    after = property(lambda self: self.block.after(self.i))


class SubtypeResult(Record):
    __slots__ = _fields = ("context", "trace")

    def __init__(self, context: Context, trace: tuple):
        self.context, self.trace = context, trace


def _check_post(theta: Context, out: Context, ground_size: int, size: int, goal):
    """Postconditions shared by every rule: well-formedness and extension
    (same entries, in order, with solutions only added), checked on the
    delta or by transitivity; bounding, on the size of the completed
    non-ground side that the rule built from its premises' (see the module
    docstring)."""
    if not wf_extension(theta, out):
        raise InvariantViolation("output context is ill-formed or does not extend "
                                 f"input in {show(read(theta, goal))}")
    if size > ground_size:
        raise InvariantViolation(
            f"completed size exceeds ground size in {show(read(theta, goal))}")


# the first component of either metric is the size of the ground side

def _metric_pos(p, q):
    return (p.size, p.prenex + q.prenex)


def _metric_neg(n, m):
    return (m.size, m.prenex + n.prenex)


def _check_metric(parent, child, goal):
    if parent is not None and child >= parent:
        raise InvariantViolation(f"decidability metric did not decrease at {show(goal)}")


class _Engine:
    """One checking run: its trace (None if not asked for), its
    fresh-existential counter and its memo."""

    def __init__(self, trace=True):
        self.trace = [] if trace else None
        self._counts = {}  # binder hint -> next fresh-existential number
        self._steps = []  # (hint, advance) of each counter step of the run
        self.memo = {}  # remembered judgment's key -> the counter steps it took

    def fresh_evar(self, base: str, taken) -> str:
        """A fresh existential: the binder's name plus a counter
        (reproducible), not among the names `taken`."""
        n = m = self._counts.get(base, 0)
        while f"?{base}{n}" in taken:
            n += 1
        self._counts[base] = n + 1
        self._steps.append((base, n + 1 - m))
        return f"?{base}{n}"

    def _hit(self, steps, goal, theta):
        """A memo hit: a `memo` step, with the counter steps of the derivation it cuts."""
        for base, advance in steps:
            self._counts[base] = self._counts.get(base, 0) + advance
        self._steps += steps
        self._record("memo", goal, theta, theta)

    def _open(self, theta: Context, n: NegType, k: int, skip_unused: bool):
        """Open the first k quantifiers of `n` at once (see the module
        docstring): a fresh existential for each variable, named in order,
        all pushed in one step, and one map.  With `skip_unused`, a variable
        that the scope does not mention gets none (None in `ps`).  Returns
        `ps`, the context with the new existentials and the opened scope."""
        used = used_binders(n, k) if skip_unused else range(k)
        taken = {**theta.positions}
        ps, t = [], n
        for i in range(k):
            if i in used:
                name = self.fresh_evar(t.hint, taken)
                taken[name] = None
                ps.append(EVar(name))
            else:
                ps.append(None)
            t = t.scope
        pushed = theta.push(*(Unsolved(p.name) for p in ps if p is not None))
        return ps, pushed, open_block(n, ps)

    def _record(self, rule, judgment, before, after):
        if self.trace is not None:
            self.trace.append(TraceStep(rule, judgment, before, after))

    def _record_block(self, rules, n, sep, m, ps, theta, out, popped):
        """The steps of a block's inner quantifiers, innermost first; the
        rule records the outermost one's step itself."""
        if self.trace is not None and len(ps) > 1:
            block = _Block(rules, n, sep, m, ps, theta, out, popped)
            self.trace.extend(_OpenedStep(block, i) for i in range(len(ps) - 1, 0, -1))

    def fail(self, kind, message, span=None):
        raise TypeCheckError(kind, message, span, tuple(self.trace or ()))

    def _mismatch(self, theta, goal, *detail):
        self.fail("subtype-failure",
                  read(theta, (*detail, " (while checking ", *goal, ")")))

    def subtype(self, polarity, theta: Context, a, b) -> Context:
        """Check a <=polarity b under theta, after its preconditions; the memo lasts the run."""
        require(wf_context(theta), "input context is ill-formed")
        return self.premise(polarity, theta, a, b, ValueError)

    def premise(self, polarity, theta: Context, a, b, error=InvariantViolation):
        """`subtype` for a context already known to be well-formed (see the
        module docstring): the preconditions on the types; the memo lasts the run.
        A failed precondition raises `error`: a ValueError for the caller
        of `subtype_pos` or `subtype_neg`, else an InvariantViolation,
        since a typing rule builds both sides to meet them."""
        require(wf_type(theta, a) and wf_type(theta, b), "types must be well-formed", error)
        if polarity == "+":
            require(is_ground(a), "the left side of a positive judgment must be ground", error)
            require(theta.solutions.keys().isdisjoint(b.evars),
                    "the right side must not mention solved existentials", error)
            return self.pos(theta, a, b, None)[1]
        require(is_ground(b), "the right side of a negative judgment must be ground", error)
        require(theta.solutions.keys().isdisjoint(a.evars),
                "the left side must not mention solved existentials", error)
        return self.neg(theta, a, b, None)[1]

    def _remember(self, key, start, theta, out, goal):
        if key is None:
            return
        if out is not theta and out != theta:
            raise InvariantViolation(
                f"ground judgment changed its context in {show(read(theta, goal))}")
        self.memo[key] = self._steps[start:]

    def _data(self, theta, ground, other, goal, metric):
        """The invariant datatype rule: the same constructor and arity, then
        each argument of `ground` against the one of `other`, both ways.
        The mismatch message names the types in the judgment's order."""
        if ground.constructor != other.constructor or len(ground.args) != len(other.args):
            self._mismatch(theta, goal, "constructors ", goal[0], " and ", goal[2],
                           " do not match")
        out, size = theta, 1
        for g, o in zip(ground.args, other.args):
            o = apply_context(out, o)
            s, out = self.pos(out, g, o, metric, True)
            _, out = self.pos(out, apply_context(out, o), g, metric, True)
            size += s
        self._record("data", goal, theta, out)
        return size, out

    # Each rule returns the size of its completed non-ground side and its
    # output context.

    # -- positive: p ground, q free of solved existentials -----------------

    def pos(self, theta: Context, p: PosType, q: PosType, parent, shared=False):
        goal = (p, " <=+ ", q)
        metric = _metric_pos(p, q)
        _check_metric(parent, metric, goal)
        key = start = None
        if shared and metric[0] != 1 and not q.evars:
            key = ("+", theta.erased, p, q)
            steps = self.memo.get(key)
            if steps is not None:
                self._hit(steps, goal, theta)
                return q.size, theta
            start = len(self._steps)

        if isinstance(q, EVar):
            i = theta.positions.get(q.name)
            if i is None or type(theta.entries[i]) is Universal:
                self._mismatch(theta, goal, f"existential {q.name} is not in scope")
            if not scoped(p, theta, i):  # p is ground: so is the completed q
                self._mismatch(theta, goal, "solution ", p, " mentions variables bound "
                                            f"after {q.name} was introduced")
            out = theta.solve(q.name, p)  # raises if q is already solved
            size = p.size
            self._record("instantiate", goal, theta, out)
        elif isinstance(p, UVar) and isinstance(q, UVar):
            if p.name != q.name:
                self._mismatch(theta, goal,
                               f"type variables {p.name} and {q.name} differ")
            if p.name not in theta.uvar_names:
                self._mismatch(theta, goal, f"type variable {p.name} is not in scope")
            out, size = theta, 1
            self._record("refl", goal, theta, out)
        elif isinstance(p, Down) and isinstance(q, Down):
            # invariant shift: check both directions, completing q's side first
            size, t1 = self.neg(theta, q.body, p.body, metric, True)
            _, out = self.neg(t1, p.body, apply_context(t1, q.body), metric, True)
            size += 1
            self._record("shift-thunk", goal, theta, out)
        elif isinstance(p, Data) and isinstance(q, Data):
            size, out = self._data(theta, p, q, goal, metric)
        else:
            self._mismatch(theta, goal, p, " is not a subtype of ", q)

        _check_post(theta, out, metric[0], size, goal)
        self._remember(key, start, theta, out, goal)
        return size, out

    # -- negative: m ground, n read through the context ---------------------

    def neg(self, theta: Context, n: NegType, m: NegType, parent, shared=False):
        goal = (n, " <=- ", m)
        metric = _metric_neg(n, m)
        _check_metric(parent, metric, goal)
        key = start = None
        if shared and metric[0] != 1:
            read_n = apply_context(theta, n)
            if not read_n.evars:
                key = ("-", theta.erased, read_n, m)
                steps = self.memo.get(key)
                if steps is not None:
                    self._hit(steps, goal, theta)
                    return read_n.size, theta
                start = len(self._steps)

        if isinstance(m, Forall):
            # eliminate quantifiers on the ground side first
            binder = fresh_name(m.hint, theta.positions)
            size, inner = self.neg(theta.push(Universal(binder)), n,
                                   m.open(UVar(binder)), metric, shared)
            out = inner.pop(theta, (binder,), universal=True)
            self._record("forall-right", goal, theta, out)
        elif isinstance(n, Forall):
            # a block whose first variable is used is opened at once: every
            # judgment inside it then mentions that variable's existential,
            # so none is remembered.  An unused first variable opens to the
            # scope as it is, which may be a judgment worth remembering.
            k = n.prenex if n.scope.dangling >= 0 else 1
            ps, pushed, body = self._open(theta, n, k, False)
            size, inner = self.neg(pushed, body, m, (metric[0], metric[1] - k + 1),
                                   shared)
            # the algorithm need not have solved them; either way they go out of scope
            out = inner.pop(theta, tuple(p.name for p in ps))
            self._record_block(("forall-left",) * k, n, " <=- ", m, ps, theta, inner,
                               True)
            self._record("forall-left", goal, theta, out)
        elif isinstance(n, Arrow) and isinstance(m, Arrow):
            s1, t1 = self.pos(theta, m.domain, apply_context(theta, n.domain), metric,
                              shared)
            s2, out = self.neg(t1, n.codomain, m.codomain, metric, shared)
            size = 1 + s1 + s2
            self._record("arrow", goal, theta, out)
        elif isinstance(n, Up) and isinstance(m, Up):
            q = apply_context(theta, n.body)
            size, t1 = self.pos(theta, m.body, q, metric, True)
            _, out = self.pos(t1, apply_context(t1, q), m.body, metric, True)
            size += 1
            self._record("shift-return", goal, theta, out)
        elif isinstance(n, NegData) and isinstance(m, NegData):
            size, out = self._data(theta, m, n, goal, metric)
        else:
            self._mismatch(theta, goal, n, " is not a subtype of ", m)

        _check_post(theta, out, metric[0], size, goal)
        self._remember(key, start, theta, out, goal)
        return size, out


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
