"""Bounded search over the declarative subtyping and typing relations.

This is the ground-truth side of the property suites: a direct, executable
reading of the declarative rules, independent of the algorithmic checker.
Quantifier instantiation ("guess a type") is made searchable by drawing
candidates from a finite universe: the positive subterms of the types in
play, plus the universal variables in scope.  Solutions found by the
algorithm always come from that set, so agreement over it is exactly what
the soundness and completeness statements promise at this scale.  A
search builds its default universe when a rule first asks for a candidate.
The cap stays exact: a type has at most `size` distinct positive subterms
(the named view keeps the node count), so a search whose universals and
`size`s sum to at most the cap cannot pass it; any other universe is built
and checked when the search starts.

The oracle is deliberately bounded: it can under-approximate the full
declarative relation on instances no test generates.  Budget exhaustion
raises OracleBudgetExceeded rather than returning a silently wrong
verdict.
"""

from __future__ import annotations

from .errors import OracleBudgetExceeded, require
from .syntax import (
    Arrow, BoolLit, Computation, Context, Data, Down, Forall, IntLit,
    Lambda, Let, LetAnn, NegData, PairVal, PosType, Return, Thunk,
    TypeAbs, TypeEnv, UVar, Universal, Up, Value, Var, bind_tyvar,
    fresh_name, is_ground,
)
from .wellformed import wf_annotation, wf_type


# caps that keep the search finite and honest
UNIVERSE_CAP = 64
INSTANTIATIONS = 10  # quantifier eliminations along one branch
RESULTS_CAP = 256


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


def positive_subterms(types, out: dict) -> dict:
    """Add to `out` the positive types inside `types` (each included), in
    pre-order, first occurrence wins, read through the named view: `forall
    a. up (List a)` gives `List a`, as forall-right may reuse a binder name."""
    stack = list(reversed(types))
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is Arrow:
            stack += (t.codomain, t.domain)
        elif cls is Up or cls is Forall:
            stack.append(t.body)
        elif cls is NegData:
            stack += reversed(t.args)
        elif isinstance(t, PosType):
            out[t] = None
            if cls is Down:
                stack.append(t.body)
            elif cls is Data:
                stack += reversed(t.args)
    return out


def candidate_universe(types, theta=()) -> tuple:
    """Instantiation candidates: positive subterms of `types`, plus the
    universals in scope.  Deterministic order, first occurrence wins."""
    return tuple(positive_subterms(types, dict.fromkeys(UVar(name) for name in theta)))


def _decl_ctx(theta) -> Context:
    return Context(tuple(Universal(a) for a in theta))


class _Search:
    def __init__(self, types, theta, universe):
        """Candidates come from `universe`, or else from `candidate_universe(
        types, theta)`, built here only if its bound passes the cap."""
        if universe is None and len(theta) + sum(t.size for t in types) > UNIVERSE_CAP:
            universe = candidate_universe(types, theta)
        if universe is not None and len(universe) > UNIVERSE_CAP:
            raise OracleBudgetExceeded(
                f"universe has {len(universe)} candidates, cap is {UNIVERSE_CAP}")
        self.universe = None if universe is None else tuple(universe)
        self.sources = types, theta
        self.scoped = {}  # (theta, extra) -> candidates
        self.memo = {}
        self.renamed = {}  # source type-variable names in scope; see `bind_tyvar`

    def candidates(self, theta, extra=()):
        """Universe members well-formed in scope, plus in-scope universals."""
        out = self.scoped.get((theta, extra))
        if out is None:
            if self.universe is None:
                self.universe = candidate_universe(*self.sources)
            scope = frozenset(theta)
            kept = (p for p in self.universe + extra if not p.evars and p.uvars <= scope)
            out = self.scoped[theta, extra] = tuple(dict.fromkeys([*map(UVar, theta), *kept]))
        return out

    def _spend(self, depth: int) -> int:
        if depth + 1 > INSTANTIATIONS:
            raise OracleBudgetExceeded(
                f"more than {INSTANTIATIONS} quantifier instantiations on one branch")
        return depth + 1

    # -- declarative subtyping -------------------------------------------

    def pos(self, theta, p, q, depth=0, extra=()) -> bool:
        key = ("+", theta, p, q)
        if (res := self.memo.get(key)) is not None:
            return res
        if isinstance(p, UVar) and isinstance(q, UVar):
            res = p.name == q.name and p.name in theta
        elif isinstance(p, Down) and isinstance(q, Down):
            res = (self.neg(theta, q.body, p.body, depth, extra)
                   and self.neg(theta, p.body, q.body, depth, extra))
        elif isinstance(p, Data) and isinstance(q, Data):
            res = self._data(theta, p, q, depth, extra)
        else:
            res = False
        self.memo[key] = res
        return res

    def neg(self, theta, n, m, depth=0, extra=()) -> bool:
        key = ("-", theta, n, m)
        if (res := self.memo.get(key)) is not None:
            return res
        if isinstance(m, Forall):
            # the right rule is invertible, so it can be applied greedily
            binder = fresh_name(m.hint, set(theta))
            res = self.neg(theta + (binder,), n, m.open(UVar(binder)), depth, extra)
        elif isinstance(n, Forall):
            d = self._spend(depth)
            res = any(
                self.neg(theta, n.open(p), m, d, extra)
                for p in self.candidates(theta, extra))
        elif isinstance(n, Arrow) and isinstance(m, Arrow):
            res = (self.pos(theta, m.domain, n.domain, depth, extra)
                   and self.neg(theta, n.codomain, m.codomain, depth, extra))
        elif isinstance(n, Up) and isinstance(m, Up):
            res = (self.pos(theta, m.body, n.body, depth, extra)
                   and self.pos(theta, n.body, m.body, depth, extra))
        elif isinstance(n, NegData) and isinstance(m, NegData):
            res = self._data(theta, n, m, depth, extra)
        else:
            res = False
        self.memo[key] = res
        return res

    def _data(self, theta, a, b, depth, extra) -> bool:
        """The invariant datatype rule: the same constructor and arity, and
        each pair of arguments are subtypes both ways."""
        return (a.constructor == b.constructor and len(a.args) == len(b.args)
                and all(self.pos(theta, x, y, depth, extra)
                        and self.pos(theta, y, x, depth, extra)
                        for x, y in zip(a.args, b.args)))

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
            return self._capped([p] if p is not None else [])
        if isinstance(v, IntLit):
            return [Data("Int", ())]
        if isinstance(v, BoolLit):
            return [Data("Bool", ())]
        if isinstance(v, Thunk):
            comps = self.synth_comp(theta, gamma, v.body, extra)
            return self._capped(dict.fromkeys(Down(n) for n in comps))
        if isinstance(v, PairVal):
            firsts = self.synth_value(theta, gamma, v.first, extra)
            seconds = self.synth_value(theta, gamma, v.second, extra)
            out = {}
            for p1 in firsts:
                for p2 in seconds:
                    out[Data("Pair", (p1, p2))] = None
            return self._capped(out)
        raise TypeError(f"not a value: {v!r}")

    def synth_comp(self, theta, gamma, t, extra):
        if isinstance(t, Lambda):
            anno = wf_annotation(_decl_ctx(theta), t.annotation, self.renamed)
            if anno is None:
                return []
            body = self.synth_comp(theta, gamma.extend(t.param, anno), t.body, extra)
            return self._capped(dict.fromkeys(Arrow(anno, n) for n in body))
        if isinstance(t, TypeAbs):
            outer = self.renamed
            binder, self.renamed = bind_tyvar(t.binder, set(theta), outer)
            inner = self.synth_comp(theta + (binder,), gamma, t.body, extra)
            self.renamed = outer
            return self._capped(dict.fromkeys(Forall(binder, n) for n in inner))
        if isinstance(t, Return):
            vals = self.synth_value(theta, gamma, t.value, extra)
            return self._capped(dict.fromkeys(Up(p) for p in vals))
        if isinstance(t, LetAnn):
            anno = wf_annotation(_decl_ctx(theta), t.annotation, self.renamed)
            if anno is None:
                return []
            results, enriched = self._application_results(theta, gamma, t, extra)
            if not any(self.neg(theta, Up(q), Up(anno), 0, enriched) for q in results):
                return []
            return self.synth_comp(theta, gamma.extend(t.name, anno), t.cont, extra)
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
                    out[n] = None
            return self._capped(out)
        raise TypeError(f"not a computation: {t!r}")

    def _application_results(self, theta, gamma, t, extra):
        """Every positive type the application head(args) can synthesize,
        plus the candidate set enriched with head, argument, and result
        subterms (the pieces instantiations can be built from here)."""
        arg_extra = dict.fromkeys(extra)  # first occurrences, in order
        heads = self.synth_value(theta, gamma, t.head, extra)
        positive_subterms(heads, arg_extra)
        for v in t.args:
            positive_subterms(self.synth_value(theta, gamma, v, extra), arg_extra)
        out = {}
        for a in heads:
            if not isinstance(a, Down):
                continue
            for m in self.spine(theta, gamma, t.args, a.body, 0, tuple(arg_extra)):
                if isinstance(m, Up):
                    out[m.body] = None
        results = self._capped(out)
        positive_subterms(results, arg_extra)
        return results, tuple(arg_extra)

    def spine(self, theta, gamma, args, n, depth, extra):
        out = {}
        if not args:
            out[n] = None
        if isinstance(n, Forall):
            d = self._spend(depth)
            for p in self.candidates(theta, extra):
                for m in self.spine(theta, gamma, args, n.open(p), d, extra):
                    out[m] = None
        elif args and isinstance(n, Arrow):
            vals = self.synth_value(theta, gamma, args[0], extra)
            if any(self.pos(theta, p, n.domain, 0, extra) for p in vals):
                for m in self.spine(theta, gamma, args[1:], n.codomain, depth,
                                    extra):
                    out[m] = None
        return self._capped(out)

    # -- helpers -------------------------------------------------------------

    def _iso(self, theta, a, b, extra) -> bool:
        return self.sub(theta, a, b, 0, extra) and self.sub(theta, b, a, 0, extra)

    def _capped(self, results):
        """`results` (a list, or a dict whose keys are the distinct results)
        as a list, within the budget."""
        vals = list(results)
        if len(vals) > RESULTS_CAP:
            raise OracleBudgetExceeded(f"more than {RESULTS_CAP} candidate results")
        return vals


def _subtype_search(theta: tuple, a, b, universe) -> _Search:
    """The search for a judgment between `a` and `b`, after its gate: both
    ground and well-formed under `theta`."""
    ctx = _decl_ctx(theta)
    require(is_ground(a) and is_ground(b), "declarative types must be ground")
    require(wf_type(ctx, a) and wf_type(ctx, b), "types must be well-formed")
    return _Search((a, b), theta, universe)


def decl_subtype(theta, a, b, universe=None) -> bool:
    """Is `a` a declarative subtype of `b` under the universal context `theta`?

    Both types must be ground and well-formed; quantifier instantiations
    are drawn from `universe` (default: positive subterms of a and b).
    """
    theta = tuple(theta)
    return _subtype_search(theta, a, b, universe).sub(theta, a, b)


def decl_iso(theta, a, b, universe=None) -> bool:
    """Mutual declarative subtyping."""
    theta = tuple(theta)
    search = _subtype_search(theta, a, b, universe)
    return search.sub(theta, a, b) and search.sub(theta, b, a)


def _typing_types(gamma: TypeEnv, term) -> list:
    """Environment types, annotations in the term, and the literal types
    (argument syntheses join dynamically)."""
    return [*(p for _, p in gamma),
            *(n.annotation for n in term_nodes(term) if isinstance(n, (Lambda, LetAnn))),
            Data("Int", ()), Data("Bool", ())]


def typing_universe(gamma: TypeEnv, term) -> tuple:
    """Default candidate set for typing."""
    return candidate_universe(_typing_types(gamma, term))


def decl_synth(theta, gamma: TypeEnv, term, universe=None):
    """All types the declarative system can give `term`, up to alpha-equality.

    An empty result means the term is untypeable (within the universe).
    """
    theta = tuple(theta)
    search = _Search(_typing_types(gamma, term) if universe is None else (), (), universe)
    if isinstance(term, Value):
        res = search.synth_value(theta, gamma, term, ())
    elif isinstance(term, Computation):
        res = search.synth_comp(theta, gamma, term, ())
    else:
        raise TypeError(f"not a term: {term!r}")
    return tuple(res)
