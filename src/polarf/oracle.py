"""Bounded search over the declarative subtyping and typing relations.

This is the ground-truth side of the property suites: a direct, executable
reading of the declarative rules, independent of the algorithmic checker.
Quantifier instantiation ("guess a type") is made searchable by drawing
candidates from a finite universe: the positive subterms of the types in
play, plus the universal variables in scope.  Solutions found by the
algorithm always come from that set, so agreement over it is exactly what
the soundness and completeness statements promise at this scale.

The oracle is deliberately bounded: it can under-approximate the full
declarative relation on instances no test generates.  Budget exhaustion
raises OracleBudgetExceeded rather than returning a silently wrong
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OracleBudgetExceeded, require
from .syntax import (
    Arrow, BoolLit, Computation, Context, Data, Down, Forall, IntLit,
    Lambda, Let, LetAnn, NegData, PairVal, PosType, Return, Thunk,
    TypeAbs, TypeEnv, UVar, Universal, Up, Value, Var, alpha_key,
    free_evars, free_uvars, fresh_name, is_ground, rename_tyvar_in_comp,
    subst_type, tyvar_names_in_comp,
)
from .wellformed import wf_type


@dataclass(frozen=True)
class Budget:
    """Caps that keep the search finite and honest."""

    universe_cap: int = 64
    instantiations: int = 10  # quantifier eliminations along one branch
    results_cap: int = 256


def positive_subterms(t):
    """All positive types occurring inside `t` (including `t` if positive)."""
    out = []
    _collect_pos(t, out)
    return out


def _collect_pos(t, out):
    if isinstance(t, PosType):
        out.append(t)
    if isinstance(t, (Down, Up)):
        _collect_pos(t.body, out)
    elif isinstance(t, (Data, NegData)):
        for a in t.args:
            _collect_pos(a, out)
    elif isinstance(t, Arrow):
        _collect_pos(t.domain, out)
        _collect_pos(t.codomain, out)
    elif isinstance(t, Forall):
        _collect_pos(t.body, out)


def candidate_universe(types, theta=()) -> tuple:
    """Instantiation candidates: positive subterms of `types`, plus the
    universals in scope.  Deterministic order, first occurrence wins."""
    seen = {}
    for name in theta:
        cand = UVar(name)
        seen.setdefault(alpha_key(cand), cand)
    for t in types:
        for p in positive_subterms(t):
            seen.setdefault(alpha_key(p), p)
    return tuple(seen.values())


def _decl_ctx(theta) -> Context:
    return Context(tuple(Universal(a) for a in theta))


class _Search:
    def __init__(self, universe, budget: Budget):
        if len(universe) > budget.universe_cap:
            raise OracleBudgetExceeded(
                f"universe has {len(universe)} candidates, cap is "
                f"{budget.universe_cap}")
        self.universe = tuple(universe)
        self.budget = budget
        self.memo = {}

    def candidates(self, theta, extra=()):
        """Universe members well-formed in scope, plus in-scope universals."""
        out = []
        seen = set()
        for name in theta:
            k = alpha_key(UVar(name))
            if k not in seen:
                seen.add(k)
                out.append(UVar(name))
        for p in tuple(self.universe) + tuple(extra):
            if free_uvars(p) <= set(theta) and not free_evars(p):
                k = alpha_key(p)
                if k not in seen:
                    seen.add(k)
                    out.append(p)
        return out

    def _spend(self, depth: int) -> int:
        if depth + 1 > self.budget.instantiations:
            raise OracleBudgetExceeded(
                f"more than {self.budget.instantiations} quantifier "
                f"instantiations on one branch")
        return depth + 1

    # -- declarative subtyping -------------------------------------------

    def pos(self, theta, p, q, depth=0, extra=()) -> bool:
        key = ("+", theta, alpha_key(p), alpha_key(q))
        if key in self.memo:
            return self.memo[key]
        if isinstance(p, UVar) and isinstance(q, UVar):
            res = p.name == q.name and p.name in theta
        elif isinstance(p, Down) and isinstance(q, Down):
            res = (self.neg(theta, q.body, p.body, depth, extra)
                   and self.neg(theta, p.body, q.body, depth, extra))
        elif isinstance(p, Data) and isinstance(q, Data):
            res = (p.constructor == q.constructor and len(p.args) == len(q.args)
                   and all(self.pos(theta, a, b, depth, extra)
                           and self.pos(theta, b, a, depth, extra)
                           for a, b in zip(p.args, q.args)))
        else:
            res = False
        self.memo[key] = res
        return res

    def neg(self, theta, n, m, depth=0, extra=()) -> bool:
        key = ("-", theta, alpha_key(n), alpha_key(m))
        if key in self.memo:
            return self.memo[key]
        if isinstance(m, Forall):
            # the right rule is invertible, so it can be applied greedily
            binder, body = m.binder, m.body
            if binder in theta:
                binder = fresh_name(binder, set(theta))
                body = subst_type(UVar(binder), m.binder, m.body)
            res = self.neg(theta + (binder,), n, body, depth, extra)
        elif isinstance(n, Forall):
            d = self._spend(depth)
            res = any(
                self.neg(theta, subst_type(p, n.binder, n.body), m, d, extra)
                for p in self.candidates(theta, extra))
        elif isinstance(n, Arrow) and isinstance(m, Arrow):
            res = (self.pos(theta, m.domain, n.domain, depth, extra)
                   and self.neg(theta, n.codomain, m.codomain, depth, extra))
        elif isinstance(n, Up) and isinstance(m, Up):
            res = (self.pos(theta, m.body, n.body, depth, extra)
                   and self.pos(theta, n.body, m.body, depth, extra))
        elif isinstance(n, NegData) and isinstance(m, NegData):
            res = (n.constructor == m.constructor and len(n.args) == len(m.args)
                   and all(self.pos(theta, a, b, depth, extra)
                           and self.pos(theta, b, a, depth, extra)
                           for a, b in zip(n.args, m.args)))
        else:
            res = False
        self.memo[key] = res
        return res

    def sub(self, theta, a, b, depth=0, extra=()) -> bool:
        if isinstance(a, PosType) != isinstance(b, PosType):
            return False
        if isinstance(a, PosType):
            return self.pos(theta, a, b, depth, extra)
        return self.neg(theta, a, b, depth, extra)

    # -- declarative typing ------------------------------------------------

    def synth_value(self, theta, gamma, v, extra):
        if isinstance(v, Var):
            p = gamma.lookup(v.name)
            return self._capped({alpha_key(p): p} if p is not None else {})
        if isinstance(v, IntLit):
            return [Data("Int", ())]
        if isinstance(v, BoolLit):
            return [Data("Bool", ())]
        if isinstance(v, Thunk):
            return self._capped(
                {alpha_key(Down(n)): Down(n)
                 for n in self.synth_comp(theta, gamma, v.body, extra)})
        if isinstance(v, PairVal):
            firsts = self.synth_value(theta, gamma, v.first, extra)
            seconds = self.synth_value(theta, gamma, v.second, extra)
            out = {}
            for p1 in firsts:
                for p2 in seconds:
                    t = Data("Pair", (p1, p2))
                    out[alpha_key(t)] = t
            return self._capped(out)
        raise TypeError(f"not a value: {v!r}")

    def synth_comp(self, theta, gamma, t, extra):
        if isinstance(t, Lambda):
            if not self._anno_ok(theta, t.annotation):
                return []
            body = self.synth_comp(theta, gamma.extend(t.param, t.annotation),
                                   t.body, extra)
            return self._capped(
                {alpha_key(Arrow(t.annotation, n)): Arrow(t.annotation, n)
                 for n in body})
        if isinstance(t, TypeAbs):
            binder, body = t.binder, t.body
            if binder in theta:
                binder = fresh_name(binder, set(theta) | tyvar_names_in_comp(body))
                body = rename_tyvar_in_comp(body, t.binder, binder)
            inner = self.synth_comp(theta + (binder,), gamma, body, extra)
            return self._capped(
                {alpha_key(Forall(binder, n)): Forall(binder, n) for n in inner})
        if isinstance(t, Return):
            vals = self.synth_value(theta, gamma, t.value, extra)
            return self._capped({alpha_key(Up(p)): Up(p) for p in vals})
        if isinstance(t, LetAnn):
            if not self._anno_ok(theta, t.annotation):
                return []
            results, enriched = self._application_results(theta, gamma, t, extra)
            if not any(self.neg(theta, Up(q), Up(t.annotation), 0, enriched)
                       for q in results):
                return []
            return self.synth_comp(theta, gamma.extend(t.name, t.annotation),
                                   t.cont, extra)
        if isinstance(t, Let):
            out = {}
            results, enriched = self._application_results(theta, gamma, t, extra)
            if not results:
                return []
            # the unannotated form requires every derivable result to agree
            # (up to isomorphism); enumerate them all and compare pairwise
            q0 = results[0]
            if not all(self._iso(theta, q0, q, enriched) for q in results[1:]):
                return []
            for q in results:
                for n in self.synth_comp(theta, gamma.extend(t.name, q),
                                         t.cont, extra):
                    out[alpha_key(n)] = n
            return self._capped(out)
        raise TypeError(f"not a computation: {t!r}")

    def _application_results(self, theta, gamma, t, extra):
        """Every positive type the application head(args) can synthesize,
        plus the candidate set enriched with head, argument, and result
        subterms (the pieces instantiations can be built from here)."""
        arg_extra = list(extra)
        seen = {alpha_key(p) for p in arg_extra}

        def add(p):
            for sub in positive_subterms(p):
                k = alpha_key(sub)
                if k not in seen:
                    seen.add(k)
                    arg_extra.append(sub)

        heads = self.synth_value(theta, gamma, t.head, extra)
        for a in heads:
            add(a)
        for v in t.args:
            for p in self.synth_value(theta, gamma, v, extra):
                add(p)
        out = {}
        for a in heads:
            if not isinstance(a, Down):
                continue
            for m in self.spine(theta, gamma, t.args, a.body, 0,
                                tuple(arg_extra)):
                if isinstance(m, Up):
                    out[alpha_key(m.body)] = m.body
        results = self._capped(out)
        for q in results:
            add(q)
        return results, tuple(arg_extra)

    def spine(self, theta, gamma, args, n, depth, extra):
        out = {}
        if not args:
            out[alpha_key(n)] = n
        if isinstance(n, Forall):
            d = self._spend(depth)
            for p in self.candidates(theta, extra):
                opened = subst_type(p, n.binder, n.body)
                for m in self.spine(theta, gamma, args, opened, d, extra):
                    out[alpha_key(m)] = m
        elif args and isinstance(n, Arrow):
            vals = self.synth_value(theta, gamma, args[0], extra)
            if any(self.pos(theta, p, n.domain, 0, extra) for p in vals):
                for m in self.spine(theta, gamma, args[1:], n.codomain, depth,
                                    extra):
                    out[alpha_key(m)] = m
        return self._capped(out)

    # -- helpers -------------------------------------------------------------

    def _iso(self, theta, a, b, extra) -> bool:
        return self.sub(theta, a, b, 0, extra) and self.sub(theta, b, a, 0, extra)

    def _anno_ok(self, theta, anno) -> bool:
        return not free_evars(anno) and wf_type(_decl_ctx(theta), anno)

    def _capped(self, d):
        vals = list(d.values()) if isinstance(d, dict) else list(d)
        if len(vals) > self.budget.results_cap:
            raise OracleBudgetExceeded(
                f"more than {self.budget.results_cap} candidate results")
        return vals


def decl_subtype(theta, a, b, universe=None, budget: Budget = None) -> bool:
    """Is `a` a declarative subtype of `b` under the universal context `theta`?

    Both types must be ground and well-formed; quantifier instantiations
    are drawn from `universe` (default: positive subterms of a and b).
    """
    theta = tuple(theta)
    ctx = _decl_ctx(theta)
    require(is_ground(a) and is_ground(b), "declarative types must be ground")
    require(wf_type(ctx, a) and wf_type(ctx, b), "types must be well-formed")
    if universe is None:
        universe = candidate_universe([a, b], theta)
    search = _Search(universe, budget or Budget())
    return search.sub(theta, a, b)


def decl_iso(theta, a, b, universe=None, budget: Budget = None) -> bool:
    """Mutual declarative subtyping."""
    theta = tuple(theta)
    ctx = _decl_ctx(theta)
    require(is_ground(a) and is_ground(b), "declarative types must be ground")
    require(wf_type(ctx, a) and wf_type(ctx, b), "types must be well-formed")
    if universe is None:
        universe = candidate_universe([a, b], theta)
    search = _Search(universe, budget or Budget())
    return search.sub(theta, a, b) and search.sub(theta, b, a)


def typing_universe(gamma: TypeEnv, term) -> tuple:
    """Default candidate set for typing: environment types, annotations in
    the term, and the literal types (argument syntheses join dynamically)."""
    types = [p for _, p in gamma]
    types.extend(_annotations(term))
    types.append(Data("Int", ()))
    types.append(Data("Bool", ()))
    return candidate_universe(types)


def _annotations(t):
    if isinstance(t, (Var, IntLit, BoolLit)):
        return []
    if isinstance(t, Thunk):
        return _annotations(t.body)
    if isinstance(t, PairVal):
        return _annotations(t.first) + _annotations(t.second)
    if isinstance(t, Lambda):
        return [t.annotation] + _annotations(t.body)
    if isinstance(t, TypeAbs):
        return _annotations(t.body)
    if isinstance(t, Return):
        return _annotations(t.value)
    if isinstance(t, LetAnn):
        acc = [t.annotation] + _annotations(t.head)
        for v in t.args:
            acc += _annotations(v)
        return acc + _annotations(t.cont)
    if isinstance(t, Let):
        acc = _annotations(t.head)
        for v in t.args:
            acc += _annotations(v)
        return acc + _annotations(t.cont)
    raise TypeError(f"not a term: {t!r}")


def decl_synth(theta, gamma: TypeEnv, term, universe=None,
               budget: Budget = None):
    """All types the declarative system can give `term`, up to alpha-equality.

    An empty result means the term is untypeable (within the universe).
    """
    theta = tuple(theta)
    if universe is None:
        universe = typing_universe(gamma, term)
    search = _Search(universe, budget or Budget())
    if isinstance(term, Value):
        res = search.synth_value(theta, gamma, term, ())
    elif isinstance(term, Computation):
        res = search.synth_comp(theta, gamma, term, ())
    else:
        raise TypeError(f"not a term: {term!r}")
    return tuple(res)
