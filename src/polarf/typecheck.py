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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, TypeCheckError, require
from .parser import pretty
from .subtype import NameSource, TraceStep, _alpha_iso, subtype_pos
from .syntax import (
    Arrow, BoolLit, Computation, Context, Data, Down, EVar, Forall, IntLit,
    Lambda, Let, LetAnn, NegType, PairVal, Return, Thunk, TypeAbs,
    TypeEnv, Universal, Unsolved, Up, Value, Var, alpha_equal,
    apply_context, extends, free_evars, free_uvars, fresh_name, is_ground,
    num_prenex, rename_tyvar_in_comp, restrict_context, subst_type,
    term_size, tyvar_names_in_comp, weak_extends,
)
from .wellformed import wf_context, wf_env, wf_type


@dataclass(frozen=True)
class SynthResult:
    """Synthesized type, output context, and rule-by-rule trace."""

    type: object
    context: Context
    trace: tuple


class _Typer:
    def __init__(self, names: NameSource):
        self.names = names
        self.trace = []

    def _record(self, rule, goal, before, after):
        self.trace.append(TraceStep(rule, goal, pretty(before), pretty(after)))

    def _subtype_pos(self, theta, p, q, what, span):
        try:
            res = subtype_pos(theta, p, q, names=self.names)
        except TypeCheckError as e:
            raise TypeCheckError(e.kind, f"{what}: {e.message}", span or e.span,
                                 tuple(self.trace) + e.trace) from None
        self.trace.extend(res.trace)
        return res.context

    # -- values ----------------------------------------------------------

    def value(self, theta: Context, gamma: TypeEnv, v: Value, parent_size):
        size = term_size(v)
        if parent_size is not None and size >= parent_size:
            raise InvariantViolation("term recursion did not shrink")

        if isinstance(v, Var):
            p = gamma.lookup(v.name)
            if p is None:
                raise TypeCheckError("unbound-variable",
                                     f"variable {v.name} is not in scope",
                                     v.span, tuple(self.trace))
            out = theta
            self._record("var", f"{v.name} ==> {pretty(p)}", theta, out)
        elif isinstance(v, Thunk):
            n, out = self.comp(theta, gamma, v.body, size)
            p = Down(n)
            self._record("thunk", f"{{...}} ==> {pretty(p)}", theta, out)
        elif isinstance(v, IntLit):
            p, out = Data("Int", ()), theta
            self._record("int-literal", f"{v.value} ==> Int", theta, out)
        elif isinstance(v, BoolLit):
            p, out = Data("Bool", ()), theta
            self._record("bool-literal", f"{pretty(v)} ==> Bool", theta, out)
        elif isinstance(v, PairVal):
            p1, t1 = self.value(theta, gamma, v.first, size)
            p2, out = self.value(t1, gamma, v.second, size)
            p = Data("Pair", (p1, p2))
            self._record("pair", f"(...) ==> {pretty(p)}", theta, out)
        else:
            raise TypeError(f"not a value: {v!r}")

        self._check_synth_post(theta, out, p)
        return p, out

    # -- computations ------------------------------------------------------

    def comp(self, theta: Context, gamma: TypeEnv, t: Computation, parent_size):
        size = term_size(t)
        if parent_size is not None and size >= parent_size:
            raise InvariantViolation("term recursion did not shrink")

        if isinstance(t, Lambda):
            self._check_annotation(theta, t.annotation, "lambda annotation", t.span)
            body_n, out = self.comp(theta, gamma.extend(t.param, t.annotation),
                                    t.body, size)
            n = Arrow(t.annotation, body_n)
            self._record("lambda", f"\\{t.param} ==> {pretty(n)}", theta, out)
        elif isinstance(t, TypeAbs):
            binder, body = t.binder, t.body
            if binder in set(theta.names()):
                fresh = fresh_name(binder, set(theta.names())
                                   | tyvar_names_in_comp(body))
                body = rename_tyvar_in_comp(body, binder, fresh)
                binder = fresh
            inner_n, inner = self.comp(theta.push(Universal(binder)), gamma,
                                       body, size)
            last = inner.last()
            if not isinstance(last, Universal) or last.name != binder:
                raise InvariantViolation("type abstraction lost its binder")
            out = inner.drop_last()
            n = Forall(binder, inner_n)
            self._record("type-abs", f"/\\{binder} ==> {pretty(n)}", theta, out)
        elif isinstance(t, Return):
            p, out = self.value(theta, gamma, t.value, size)
            n = Up(p)
            self._record("return", f"return ... ==> {pretty(n)}", theta, out)
        elif isinstance(t, LetAnn):
            self._check_annotation(theta, t.annotation, "let annotation", t.span)
            q, t4 = self._let_application(theta, gamma, t, size, annotated=True)
            if not weak_extends(theta, t4, iso=_alpha_iso):
                raise InvariantViolation("restriction input lost information")
            t5 = restrict_context(t4, theta)
            n, out = self.comp(t5, gamma.extend(t.name, t.annotation), t.cont, size)
            self._record("let-annotated", f"let {t.name} : {pretty(t.annotation)}",
                         theta, out)
        elif isinstance(t, Let):
            q, t2 = self._let_application(theta, gamma, t, size, annotated=False)
            if free_evars(q):
                loose = ", ".join(sorted(free_evars(q)))
                raise TypeCheckError(
                    "ambiguous-let",
                    f"the type of {t.name} is ambiguous: {pretty(q)} still "
                    f"mentions {loose}; annotate the binding "
                    f"(let {t.name} : <type> = ...)",
                    t.span, tuple(self.trace))
            if not weak_extends(theta, t2, iso=_alpha_iso):
                raise InvariantViolation("restriction input lost information")
            t3 = restrict_context(t2, theta)
            n, out = self.comp(t3, gamma.extend(t.name, q), t.cont, size)
            self._record("let", f"let {t.name} ==> {pretty(q)}", theta, out)
        else:
            raise TypeError(f"not a computation: {t!r}")

        self._check_synth_post(theta, out, n)
        return n, out

    def _let_application(self, theta, gamma, t, size, annotated):
        """Premises shared by both let forms: head, spine, and (if annotated)
        the two subtyping checks against the annotation.  Returns the spine
        result body and the context to restrict."""
        head_ty, t1 = self.value(theta, gamma, t.head, size)
        if not isinstance(head_ty, Down):
            raise TypeCheckError(
                "shape", f"the head of a let must be a thunk, but it has type "
                         f"{pretty(head_ty)}", t.span, tuple(self.trace))
        m, t2 = self.spine(t1, gamma, t.args, head_ty.body, None)
        if not isinstance(m, Up):
            raise TypeCheckError(
                "shape", f"partial application is forbidden: the arguments "
                         f"leave the head at type {pretty(m)}, not a returner "
                         f"type", t.span, tuple(self.trace))
        q = m.body
        if not annotated:
            return q, t2
        p = t.annotation
        t3 = self._subtype_pos(
            t2, p, q, f"annotation {pretty(p)} does not match the inferred "
                      f"type {pretty(q)}", t.span)
        qc = apply_context(t3, q)
        t4 = self._subtype_pos(
            t3, qc, p, f"inferred type {pretty(qc)} does not match the "
                       f"annotation {pretty(p)}", t.span)
        return q, t4

    # -- spines -----------------------------------------------------------

    def spine(self, theta: Context, gamma: TypeEnv, args: tuple, n: NegType,
              parent_metric):
        if not alpha_equal(apply_context(theta, n), n):
            raise InvariantViolation("spine head mentions solved existentials")
        metric = (len(args), num_prenex(n))
        if parent_metric is not None and metric >= parent_metric:
            raise InvariantViolation("spine metric did not decrease")

        if isinstance(n, Forall):
            # quantified heads are always instantiated, even under an empty
            # spine: the let rules need a returner type, and an uninstantiated
            # quantifier can never become one
            if n.binder not in free_uvars(n.body):
                m, out = self.spine(theta, gamma, args, n.body, metric)
                self._record("spine-skip-unused",
                             f"{pretty(n)} >> {pretty(m)}", theta, out)
            else:
                name = self.names.fresh_evar(n.binder, set(theta.names()))
                opened = subst_type(EVar(name), n.binder, n.body)
                m, out = self.spine(theta.push(Unsolved(name)), gamma, args,
                                    opened, metric)
                # the new existential stays in the output context; let rules
                # remove it by restriction
                self._record("spine-instantiate",
                             f"{pretty(n)} >> {pretty(m)}", theta, out)
        elif args and isinstance(n, Arrow):
            v, rest = args[0], args[1:]
            p, t1 = self.value(theta, gamma, v, None)
            dom = apply_context(t1, n.domain)
            t2 = self._subtype_pos(
                t1, p, dom, f"argument {pretty(v)} of type {pretty(p)} does "
                            f"not fit the parameter type {pretty(dom)}",
                getattr(v, "span", None))
            m, out = self.spine(t2, gamma, rest, apply_context(t2, n.codomain),
                                metric)
            self._record("spine-arg", f"{pretty(v)} : {pretty(n)} >> {pretty(m)}",
                         theta, out)
        elif not args:
            m, out = n, theta
            self._record("spine-done", f"{pretty(n)} >> {pretty(m)}", theta, out)
        else:
            raise TypeCheckError(
                "arity", f"too many arguments: {len(args)} left over for a "
                         f"head of type {pretty(n)}",
                getattr(args[0], "span", None), tuple(self.trace))

        self._check_spine_post(theta, out, n, m)
        return m, out

    # -- shared checks ------------------------------------------------------

    def _check_annotation(self, theta, anno, what, span):
        if free_evars(anno) or not wf_type(theta, anno):
            raise TypeCheckError(
                "unbound-variable",
                f"{what} {pretty(anno)} is not well-formed here", span,
                tuple(self.trace))

    def _check_synth_post(self, theta, out, result):
        if not wf_context(out):
            raise InvariantViolation("synthesis produced an ill-formed context")
        if not extends(theta, out, iso=_alpha_iso):
            raise InvariantViolation("synthesis output does not extend its input")
        if not is_ground(result):
            raise InvariantViolation("synthesized a non-ground type")
        if not wf_type(out, result):
            raise InvariantViolation("synthesized an ill-formed type")

    def _check_spine_post(self, theta, out, n, m):
        if not wf_context(out):
            raise InvariantViolation("spine produced an ill-formed context")
        if not weak_extends(theta, out, iso=_alpha_iso):
            raise InvariantViolation("spine output does not weakly extend input")
        if not alpha_equal(apply_context(out, m), m):
            raise InvariantViolation("spine result mentions solved existentials")
        new_evars = free_evars(out) - free_evars(theta)
        if not free_evars(m) <= (free_evars(n) | new_evars):
            raise InvariantViolation("spine result leaked unknown existentials")


def synth_value(theta: Context, gamma: TypeEnv, v: Value,
                names: NameSource = None) -> SynthResult:
    """Synthesize the (ground) type of a value."""
    require(wf_context(theta), "input context is ill-formed")
    require(wf_env(theta, gamma), "environment is ill-formed")
    ty = _Typer(names or NameSource())
    p, out = ty.value(theta, gamma, v, None)
    return SynthResult(p, out, tuple(ty.trace))


def synth_computation(theta: Context, gamma: TypeEnv, t: Computation,
                      names: NameSource = None) -> SynthResult:
    """Synthesize the (ground) type of a computation."""
    require(wf_context(theta), "input context is ill-formed")
    require(wf_env(theta, gamma), "environment is ill-formed")
    ty = _Typer(names or NameSource())
    n, out = ty.comp(theta, gamma, t, None)
    return SynthResult(n, out, tuple(ty.trace))


def synth_spine(theta: Context, gamma: TypeEnv, args: tuple, n: NegType,
                names: NameSource = None) -> SynthResult:
    """Type an argument list against a head type; the result may be non-ground."""
    require(wf_context(theta), "input context is ill-formed")
    require(wf_env(theta, gamma), "environment is ill-formed")
    require(wf_type(theta, n), "head type is ill-formed")
    require(alpha_equal(apply_context(theta, n), n),
             "head type must not mention solved existentials")
    ty = _Typer(names or NameSource())
    m, out = ty.spine(theta, gamma, tuple(args), n, None)
    return SynthResult(m, out, tuple(ty.trace))


def check_program(program) -> SynthResult:
    """Typecheck a parsed program: synthesize its body under its assumptions."""
    gamma = TypeEnv(tuple(program.assumptions))
    require(wf_env(Context(), gamma), "assumption types must be ground and closed")
    ty = _Typer(NameSource())
    n, out = ty.comp(Context(), gamma, program.body, None)
    if out.entries:
        raise InvariantViolation("program checking leaked context entries")
    return SynthResult(n, out, tuple(ty.trace))
