"""Reference definitions shared by the test modules.

The checker decides weak extension with `wellformed.wf_extension`, which
compares a prefix because contexts are stacks.  The reference here is the
name-aligned walk that check replaced: it also accepts new existentials
between old entries, so on the contexts the checker builds the two must
agree.

The parser finds a program's declaration block with one search for the
first line whose first token is `run`.  The reference here is the line
walk that search replaced, which reads each line's first token.

The oracle builds a search's default candidate universe when a rule first
asks for a candidate, and filters it by scope once per scope.  The
reference here is the eager handling it replaced: the universe is built,
and checked against the cap, when the search starts, and filtered at
every call.  `RefSearch` logs every candidate list it
hands out, so the order can be compared as well as the verdicts.

The subtyping engine keeps one memo of ground/ground judgments for the
whole checking run.  The reference here is the typer that starts a new
memo at each subtyping premise, as the engine did before: it derives
again what an earlier premise of the run derived.

Every test-side walk over a type reads its shape from one function,
`ref_children`, and builds from one, `ref_rebuild`.  A walk enters a
quantifier through its scope, the locally nameless form the checker
works on, or through its named view (`Forall.binder` and `.body`), the
form a reference by name reads; which one is part of what a test
cross-checks, so each walk says which.
"""

from polarf import (
    Arrow, Computation, Context, Data, Down, EVar, Forall, Lambda, LetAnn,
    NegData, OracleBudgetExceeded, PosType, UVar, Universal, Up, Value,
    extends, is_ground, wf_type,
)
from polarf.errors import require
from polarf.oracle import UNIVERSE_CAP, _decl_ctx, _Search, term_nodes
from polarf.parser import _TOKEN, MEMO_TEXT_MAX
from polarf.typecheck import _Typer


def ref_weak_extends(theta, theta_prime):
    """Walk both contexts from the end, matching theta's entries by name and
    skipping the existentials theta lacks, wherever they are."""
    i = len(theta.entries) - 1
    for e2 in reversed(theta_prime.entries):
        if not isinstance(e2, Universal) and e2.name not in theta.evar_names \
                and e2.name not in theta.uvar_names:
            continue
        if i < 0 or not extends(Context((theta.entries[i],)), Context((e2,))):
            return False
        i -= 1
    return i < 0


def ref_block_length(src):
    """The offset of the first line whose first token is `run`, if it is
    at most MEMO_TEXT_MAX; else None."""
    offset = 0
    while offset <= MEMO_TEXT_MAX:
        end = src.find("\n", offset)
        line = src[offset:] if end < 0 else src[offset:end]
        if _TOKEN.match(line)[2] == "run":
            return offset
        if end < 0:
            return None
        offset = end + 1
    return None


def ref_children(t, named=False):
    """The `(step, child)` pairs of a type node, in order.  A quantifier's
    child is its `scope` or, with `named`, its `body` under the named view;
    a variable, a constant and anything that is not a type have none."""
    cls = type(t)
    if cls is Arrow:
        return (("domain", t.domain), ("codomain", t.codomain))
    if cls is Down or cls is Up:
        return (("body", t.body),)
    if cls is Data or cls is NegData:
        return tuple(enumerate(t.args))
    if cls is Forall:
        return (("body", t.body),) if named else (("scope", t.scope),)
    return ()


def ref_rebuild(t, kids):
    """`t`'s constructor over `kids`, its children in the named view: a
    quantifier is built by name.  A node without children is built again
    from its fields."""
    cls = type(t)
    if cls is Forall:
        return Forall(t.binder, *kids)
    if cls is Data or cls is NegData:
        return cls(t.constructor, tuple(kids))
    return cls(*kids) if kids else cls(*(getattr(t, f) for f in cls._fields))


def ref_nodes(t, named=False):
    """Every node of `t` in pre-order, with the tuple of the quantifiers
    above it, entering each `Forall` through its scope or, with `named`,
    its named view."""
    stack = [(t, ())]
    while stack:
        t, above = stack.pop()
        yield t, above
        if type(t) is Forall:
            above += (t,)
        stack += [(c, above) for _, c in reversed(ref_children(t, named))]


def ref_free_evars(t, named=False):
    return {v.name for v, _ in ref_nodes(t, named) if type(v) is EVar}


def ref_free_uvars(t, named=False):
    """In the named view, a variable named as a quantifier above it is
    bound."""
    return {v.name for v, above in ref_nodes(t, named) if type(v) is UVar
            and not (named and any(q.binder == v.name for q in above))}


def ref_candidate_universe(types, theta=()):
    """Positive subterms of `types`, plus the universals `theta`; first
    occurrence wins."""
    cands = [UVar(name) for name in theta]
    for t in types:
        cands += [v for v, _ in ref_nodes(t, True) if isinstance(v, PosType)]
    return tuple(dict.fromkeys(cands))


class RefSearch(_Search):
    """The oracle's rules over an eagerly built universe; every candidate
    list handed out is appended to `log` with its scope."""

    def __init__(self, universe, log):
        if len(universe) > UNIVERSE_CAP:
            raise OracleBudgetExceeded(
                f"universe has {len(universe)} candidates, cap is {UNIVERSE_CAP}")
        self.universe = tuple(universe)
        self.memo = {}
        self.renamed = {}
        self.log = log

    def candidates(self, theta, extra=()):
        out = dict.fromkeys(UVar(name) for name in theta)
        scope = frozenset(theta)
        for p in self.universe + tuple(extra):
            if not p.evars and p.uvars <= scope and p not in out:
                out[p] = None
        self.log.append((theta, tuple(out)))
        return list(out)


def ref_subtype_search(log, theta, a, b, universe):
    ctx = _decl_ctx(theta)
    require(is_ground(a) and is_ground(b), "declarative types must be ground")
    require(wf_type(ctx, a) and wf_type(ctx, b), "types must be well-formed")
    if universe is None:
        universe = ref_candidate_universe([a, b], theta)
    return RefSearch(universe, log)


def ref_decl_subtype(log, theta, a, b, universe=None):
    theta = tuple(theta)
    return ref_subtype_search(log, theta, a, b, universe).sub(theta, a, b)


def ref_decl_iso(log, theta, a, b, universe=None):
    theta = tuple(theta)
    search = ref_subtype_search(log, theta, a, b, universe)
    return search.sub(theta, a, b) and search.sub(theta, b, a)


def ref_typing_universe(gamma, term):
    types = [p for _, p in gamma]
    types.extend(n.annotation for n in term_nodes(term)
                 if isinstance(n, (Lambda, LetAnn)))
    types.append(Data("Int", ()))
    types.append(Data("Bool", ()))
    return ref_candidate_universe(types)


def ref_decl_synth(log, theta, gamma, term, universe=None):
    theta = tuple(theta)
    if universe is None:
        universe = ref_typing_universe(gamma, term)
    search = RefSearch(universe, log)
    if isinstance(term, Value):
        res = search.synth_value(theta, gamma, term, ())
    elif isinstance(term, Computation):
        res = search.synth_comp(theta, gamma, term, ())
    else:
        raise TypeError(f"not a term: {term!r}")
    return tuple(res)


class RefTyper(_Typer):
    """A checking run whose memo lasts one subtyping premise."""

    def premise(self, *args, **kwargs):
        self.memo = set()
        return super().premise(*args, **kwargs)
