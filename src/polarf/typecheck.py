"""Algorithmic typing: value synthesis, computation synthesis, spines.

Synthesis is annotation-driven and local.  A function application is typed
by walking its argument list (spine) across the head's type: quantifiers
at the head are instantiated with fresh existentials, each argument is
checked against the corresponding domain via subtyping, and the let forms
demand a returner type at the end, so partial application never checks.
An unannotated let is only accepted when the spine leaves no existential
in the result; otherwise the user is told to annotate.

Value and computation synthesis always produce ground types; only spine
results may mention existentials, and the let rules restrict them away so
nothing leaks into the output context.

A spine's head is read through the context, as the non-ground side of a
negative subtyping judgment is (see `subtype`): `spine-arg` completes the
domain it checks its argument against and passes the rest of the arrow
chain on as it is, and `spine-done` completes the result, once.  (Before,
the invariant was that the head mentions no solved existential, and each
argument completed the whole rest of the chain.)  A block of quantifiers
at the head is opened at once: a fresh existential for each variable that
its scope mentions, pushed in one step, and one map; a quantifier whose
variable is unused is skipped, as `spine-skip-unused`.  The steps of the
inner quantifiers are built when read, and their postconditions follow
from those of the spine below them: its output weakly extends the
context with the block's existentials pushed, which weakly extends each
partly pushed one (transitivity; `wellformed.wf_extension`).  Every spine
step prints its head read through its `before` context, as it did.

A chain of lets is typed in a loop, so a long program takes no more stack
than a short one: `comp` walks down the continuations, types each let's
application and pushes a frame for it, types the computation the chain
ends in, then pops the frames to record the `let` and `let-annotated`
steps and run their postconditions, innermost first.  That is the
post-order the recursive rule had, so the trace is the same step for
step.  The term variables in scope live in one table per run (`_Scope`),
changed in place as binders are entered and left, so a lookup costs the
same after a thousand lets as after one.
"""

from __future__ import annotations

from .errors import InvariantViolation, Record, TypeCheckError, require
from .parser import MAX_TYPE_HEIGHT
from .subtype import _Engine
from .syntax import (
    Arrow, BoolLit, Computation, Context, Data, Down, Forall, IntLit,
    Lambda, Let, LetAnn, NegType, PairVal, Return, Thunk, TypeAbs, TypeEnv,
    Universal, Up, Value, Var, apply_context, bind_tyvar, is_ground,
)
from .wellformed import (
    restrict_context, wf_annotation, wf_context, wf_env, wf_extension, wf_type,
)


class SynthResult(Record):
    """Synthesized type, output context, and rule-by-rule trace."""

    __slots__ = _fields = ("type", "context", "trace")

    def __init__(self, type: object, context: Context, trace: tuple):
        self.type, self.context, self.trace = type, context, trace


class _Scope:
    """The term variables in scope during one run, changed in place: each
    name maps to its innermost type and the binding that one shadows, so
    binding, unbinding and lookup cost O(1).  A binder unbinds its name
    when its scope has been typed; a failure ends the run, so it need not."""

    def __init__(self, gamma: TypeEnv):
        self.types = {}
        for x, p in gamma:
            self.bind(x, p)

    def lookup(self, name: str):
        binding = self.types.get(name)
        return binding[0] if binding else None

    def bind(self, name: str, p):
        self.types[name] = (p, self.types.get(name))

    def unbind(self, name: str):
        self.types[name] = self.types[name][1]


class _Typer(_Engine):
    """The checking run extended to terms; its subtyping checks share it."""

    renamed = {}  # source type-variable names in scope, never mutated; see `bind_tyvar`

    def __init__(self, gamma: TypeEnv, trace=True):
        super().__init__(trace)
        self.env = _Scope(gamma)

    def _subtype_pos(self, theta, p, q, what, span):
        """p <=+ q; a failure's message starts with the judgment `what`."""
        try:
            return self.premise("+", theta, p, q)
        except TypeCheckError as e:
            self.fail(e.kind, (*what, ": ", *e.parts), span)

    # -- values ----------------------------------------------------------

    def value(self, theta: Context, v: Value, parent_size):
        size = v.size
        if parent_size is not None and size >= parent_size:
            raise InvariantViolation("term recursion did not shrink")

        if isinstance(v, Var):
            p = self.env.lookup(v.name)
            if p is None:
                self.fail("unbound-variable", f"variable {v.name} is not in scope",
                          v.span)
            out = theta
            self._record("var", (v.name, " ==> ", p), theta, out)
        elif isinstance(v, Thunk):
            n, out = self.comp(theta, v.body, size)
            p = Down(n)
            self._record("thunk", ("{...} ==> ", p), theta, out)
        elif isinstance(v, IntLit):
            p, out = Data("Int", ()), theta
            self._record("int-literal", (v, " ==> Int"), theta, out)
        elif isinstance(v, BoolLit):
            p, out = Data("Bool", ()), theta
            self._record("bool-literal", (v, " ==> Bool"), theta, out)
        elif isinstance(v, PairVal):
            p1, t1 = self.value(theta, v.first, size)
            p2, out = self.value(t1, v.second, size)
            p = Data("Pair", (p1, p2))
            self._record("pair", ("(...) ==> ", p), theta, out)
        else:
            raise TypeError(f"not a value: {v!r}")

        self._fits(p, v.span)
        self._check_synth_post(theta, out, p)
        return p, out

    # -- computations ------------------------------------------------------

    def comp(self, theta: Context, t: Computation, parent_size):
        frames = []  # (let, its input context, the type it binds), outermost first
        while type(t) is Let or type(t) is LetAnn:
            size = t.size
            if parent_size is not None and size >= parent_size:
                raise InvariantViolation("term recursion did not shrink")
            if type(t) is LetAnn:
                q = self._annotation(theta, t.annotation, "let annotation", t.span)
                _, out = self._let_application(theta, t, size, q)
            else:
                q, out = self._let_application(theta, t, size, None)
                if q.evars:
                    loose = ", ".join(sorted(q.evars))
                    self.fail("ambiguous-let",
                              (f"the type of {t.name} is ambiguous: ", q, " still "
                               f"mentions {loose}; annotate the binding "
                               f"(let {t.name} : <type> = ...)"), t.span)
            frames.append((t, theta, q))
            self.env.bind(t.name, q)
            theta, t, parent_size = restrict_context(out, theta), t.cont, size

        size = t.size
        if parent_size is not None and size >= parent_size:
            raise InvariantViolation("term recursion did not shrink")

        if isinstance(t, Lambda):
            anno = self._annotation(theta, t.annotation, "lambda annotation", t.span)
            self.env.bind(t.param, anno)
            body_n, out = self.comp(theta, t.body, size)
            self.env.unbind(t.param)
            n = Arrow(anno, body_n)
            self._record("lambda", ("\\", t.param, " ==> ", n), theta, out)
        elif isinstance(t, TypeAbs):
            outer = self.renamed
            binder, self.renamed = bind_tyvar(t.binder, theta.positions, outer)
            inner_n, inner = self.comp(theta.push(Universal(binder)), t.body, size)
            self.renamed = outer
            out = inner.pop(theta, (binder,), universal=True)
            n = Forall(binder, inner_n)
            self._record("type-abs", ("/\\", binder, " ==> ", n), theta, out)
        elif isinstance(t, Return):
            p, out = self.value(theta, t.value, size)
            n = Up(p)
            self._record("return", ("return ... ==> ", n), theta, out)
        else:
            raise TypeError(f"not a computation: {t!r}")
        self._fits(n, t.span)
        self._check_synth_post(theta, out, n)

        # every let has the result `n` and the output `out` checked just above,
        # so only its extension of its own input is left to check
        for let, before, q in reversed(frames):
            self.env.unbind(let.name)
            if type(let) is LetAnn:
                self._record("let-annotated", ("let ", let.name, " : ", q), before, out)
            else:
                self._record("let", ("let ", let.name, " ==> ", q), before, out)
            self._check_extension(before, out)
        return n, out

    def _let_application(self, theta, t, size, p):
        """Premises shared by both let forms: head, spine, and (given the
        annotation `p`) the two subtyping checks against it.  Returns the
        spine result body and the context to restrict."""
        head_ty, t1 = self.value(theta, t.head, size)
        if not isinstance(head_ty, Down):
            self.fail("shape", ("the head of a let must be a thunk, but it has "
                                "type ", head_ty), t.span)
        m, t2 = self.spine(t1, t.args, head_ty.body, None)
        if not isinstance(m, Up):
            self.fail("shape", ("partial application is forbidden: the arguments "
                                "leave the head at type ", m, ", not a returner type"),
                      t.span)
        q = self._fits(m.body, t.span)
        if p is None:
            return q, t2
        t3 = self._subtype_pos(
            t2, p, q, ("annotation ", p, " does not match the inferred type ", q),
            t.span)
        qc = self._fits(apply_context(t3, q), t.span)
        t4 = self._subtype_pos(
            t3, qc, p, ("inferred type ", qc, " does not match the annotation ", p),
            t.span)
        return q, t4

    # -- spines -----------------------------------------------------------

    def spine(self, theta: Context, args: tuple, n: NegType, parent_metric):
        # the head `n` is read through the context (see the module docstring);
        # the rules run in a loop, then record and check their steps innermost first
        frames = []  # (input context, head, arguments, block or None), outermost first
        while True:
            metric = (len(args), n.prenex)
            if parent_metric is not None and metric >= parent_metric:
                raise InvariantViolation("spine metric did not decrease")
            if isinstance(n, Forall):
                # quantified heads are always instantiated, even under an empty
                # spine (the let rules need a returner type).  The whole block is
                # opened at once, skipping a variable its scope does not mention;
                # the let rules restrict the new existentials away.
                ps, pushed, body = self._open(theta, n, n.prenex, True)
                frames.append((theta, n, args, ps))
                theta, n, parent_metric = pushed, body, (len(args), 1)
            elif not args:
                break
            elif isinstance(n, Arrow):
                v, span = args[0], getattr(args[0], "span", None)
                p, t1 = self.value(theta, v, None)
                dom = self._fits(apply_context(t1, n.domain), span)
                t2 = self._subtype_pos(
                    t1, p, dom, ("argument ", v, " of type ", p,
                                 " does not fit the parameter type ", dom), span)
                frames.append((theta, n, args, None))
                theta, args, n, parent_metric = t2, args[1:], n.codomain, metric
            else:
                self.fail("arity", (f"too many arguments: {len(args)} left over for "
                                    "a head of type ", apply_context(theta, n)),
                          getattr(args[0], "span", None))

        m, out = apply_context(theta, n), theta
        if not out.solutions.keys().isdisjoint(m.evars):  # the same for every frame below
            raise InvariantViolation("spine result mentions solved existentials")
        frames.append((theta, n, args, ()))  # spine-done: a block of no quantifiers
        for theta, n, args, ps in reversed(frames):
            if ps is None:
                self._record("spine-arg", (args[0], " : ", n, " >> ", m), theta, out)
            else:
                rules = tuple("spine-skip-unused" if p is None else "spine-instantiate"
                              for p in ps) or ("spine-done",)
                self._record_block(rules, n, " >> ", m, ps, theta, out, False)
                self._record(rules[0], (n, " >> ", m), theta, out)
            self._check_spine_post(theta, out, n, m)
        return m, out

    # -- shared checks ------------------------------------------------------

    def _fits(self, t, span):
        """`t`; if taller than `MAX_TYPE_HEIGHT`, "nested too deeply" at `span`."""
        if t.height > MAX_TYPE_HEIGHT:
            self.fail("parse", "nested too deeply", span)
        return t

    def _annotation(self, theta, anno, what, span):
        p = wf_annotation(theta, anno, self.renamed)
        if p is None:
            self.fail("unbound-variable", (f"{what} ", anno, " is not well-formed here"),
                      span)
        return p

    def _check_extension(self, theta, out):
        if not wf_extension(theta, out):
            raise InvariantViolation(
                "synthesis output is ill-formed or does not extend its input")

    def _check_synth_post(self, theta, out, result):
        self._check_extension(theta, out)
        if not is_ground(result):
            raise InvariantViolation("synthesized a non-ground type")
        if not wf_type(out, result):
            raise InvariantViolation("synthesized an ill-formed type")

    def _check_spine_post(self, theta, out, n, m):
        if not wf_extension(theta, out, weak=True):
            raise InvariantViolation(
                "spine output is ill-formed or does not weakly extend its input")
        # m may mention n's existentials and the new ones, which (as out
        # weakly extends theta) are out's existentials that theta lacks
        extra = m.evars - n.evars
        if not (extra <= out.evar_names and theta.positions.keys().isdisjoint(extra)):
            raise InvariantViolation("spine result leaked unknown existentials")


def _synth(judge, theta: Context, gamma: TypeEnv, *args,
           env_error="environment is ill-formed", head=None, trace=True) -> SynthResult:
    """Run one typing judgment as a new checking run, after its preconditions."""
    require(wf_context(theta), "input context is ill-formed")
    require(wf_env(theta, gamma), env_error)
    if head is not None:
        require(isinstance(head, NegType) and wf_type(theta, head), "head type is ill-formed")
        require(theta.solutions.keys().isdisjoint(head.evars),
                "head type must not mention solved existentials")
    run = _Typer(gamma, trace)
    result, out = judge(run, theta, *args, None)
    return SynthResult(result, out, tuple(run.trace or ()))


def synth_value(theta: Context, gamma: TypeEnv, v: Value) -> SynthResult:
    """Synthesize the (ground) type of a value."""
    return _synth(_Typer.value, theta, gamma, v)


def synth_computation(theta: Context, gamma: TypeEnv, t: Computation) -> SynthResult:
    """Synthesize the (ground) type of a computation."""
    return _synth(_Typer.comp, theta, gamma, t)


def synth_spine(theta: Context, gamma: TypeEnv, args: tuple, n: NegType) -> SynthResult:
    """Type an argument list against a head type; the result may be non-ground."""
    return _synth(_Typer.spine, theta, gamma, tuple(args), n, head=n)


def check_program(program, trace=True) -> SynthResult:
    """Typecheck a parsed program: synthesize its body under its assumptions.

    With `trace=False` no derivation step is built: the result's trace, and
    that of a TypeCheckError, is empty."""
    res = _synth(_Typer.comp, Context(), TypeEnv(tuple(program.assumptions)),
                 program.body, env_error="assumption types must be ground and closed",
                 trace=trace)
    if res.context.entries:
        raise InvariantViolation("program checking leaked context entries")
    return res
