"""Type and context operations against their direct definitions.

`apply_context` substitutes all solutions in one capture-avoiding walk and
`wf_context` checks every solution against a running set of universals.
The reference definitions kept here are the direct ones: applying a context
is a right fold of single capture-avoiding substitutions, and a context is
well-formed when each solution is ground and well-formed in the context
made of the entries before it.

Types and terms carry facts computed when they are built (free variables,
sizes and heights, the largest dangling bound index, well-formedness).
The references for those are the walks over every node that the facts
replace.

Contexts are stacks, so weak extension is a prefix check and restriction a
slice.  The references are the name-aligned walks they replace
(`references.ref_weak_extends` and `ref_restrict`), which also accept new
existentials between old entries; on the contexts the checker builds, the
two must agree.
"""

import copy
import pickle
import random

import pytest

from polarf import (
    Arrow, BVar, Context, Data, Down, EVar, Forall, InvariantViolation, NegData,
    NegType, PosType, Solved, TypeCheckError, UVar, Universal, Unsolved, Up,
    apply_context, free_uvars, is_ground, restrict_context, subst_type,
    synth_computation, wf_context,
)
from polarf.syntax import (
    _Type, BoolLit, IntLit, Lambda, Let, LetAnn, PairVal, Return, Thunk,
    TypeAbs, Var, fresh_name, open_block, subst_uvars, used_binders,
)
from polarf.wellformed import _wf, wf_extension

from gen import gen_program, gen_type, holeify
from references import (
    ref_children, ref_free_evars, ref_free_uvars, ref_nodes, ref_rebuild,
    ref_weak_extends,
)

UNIVERSALS = ("a", "b", "c")


# -- reference definitions ----------------------------------------------------

def type_names(t) -> set:
    """Every variable name appearing anywhere in a named type (bound or free)."""
    return {v.binder if type(v) is Forall else v.name for v, _ in ref_nodes(t, True)
            if type(v) in (UVar, EVar, Forall)}


def ref_subst(t, name, p, var_cls):
    """Substitute `p` for the `var_cls` variable `name`, one binder at a time."""
    if isinstance(t, (UVar, EVar)):
        return p if isinstance(t, var_cls) and t.name == name else t
    if isinstance(t, Forall):
        if var_cls is UVar and t.binder == name:
            return t
        if t.binder in free_uvars(p):
            avoid = type_names(t.body) | type_names(p) | {name}
            b = fresh_name(t.binder, avoid)
            body = ref_subst(t.body, t.binder, UVar(b), UVar)
            return Forall(b, ref_subst(body, name, p, var_cls))
    return ref_rebuild(t, [ref_subst(c, name, p, var_cls) for _, c in ref_children(t, True)])


def ref_apply(theta, t):
    for e in reversed(theta.entries):
        if isinstance(e, Solved):
            t = ref_subst(t, e.name, e.solution, EVar)
    return t


def ref_wf_type(theta, t, extra=frozenset()):
    """Well-formedness by name: each variable is bound by a quantifier above
    it, named in `extra` or in scope in `theta`."""
    universals = {e.name for e in theta.entries if isinstance(e, Universal)}
    existentials = {e.name for e in theta.entries if not isinstance(e, Universal)}
    for v, above in ref_nodes(t, True):
        cls = type(v)
        if (cls is UVar and v.name not in extra | universals
                and all(q.binder != v.name for q in above)
                or cls is EVar and v.name not in existentials
                or cls is BVar or not isinstance(v, (PosType, NegType))):
            return False
    return True


def ref_wf_context(theta):
    seen = set()
    for i, e in enumerate(theta.entries):
        if e.name in seen:
            return False
        seen.add(e.name)
        if isinstance(e, Solved):
            if ref_free_evars(e.solution) or not isinstance(e.solution, PosType):
                return False
            if not ref_wf_type(Context(theta.entries[:i]), e.solution):
                return False
    return True


def ref_termsize(t):
    return sum(1 for v, _ in ref_nodes(t) if type(v) is not Forall)


def ref_height(t):
    """Nodes on the longest path from `t` down to a leaf, quantifiers included."""
    return 1 + max((ref_height(c) for _, c in ref_children(t)), default=0)


def ref_prenex(t):
    return 1 + ref_prenex(t.scope) if type(t) is Forall else 0


def ref_dangling(t):
    return max([v.index - len(above) for v, above in ref_nodes(t)
                if type(v) is BVar and v.index >= len(above)], default=-1)


def ref_wf(t, uvars, evars):
    for v, above in ref_nodes(t):
        cls = type(v)
        if (cls is UVar and v.name not in uvars or cls is EVar and v.name not in evars
                or cls is BVar and v.index >= len(above)
                or not isinstance(v, (PosType, NegType))):
            return False
    return True


def ref_term_nodes(t):
    yield t
    if isinstance(t, (Thunk, Lambda, TypeAbs)):
        yield from ref_term_nodes(t.body)
    elif isinstance(t, PairVal):
        yield from ref_term_nodes(t.first)
        yield from ref_term_nodes(t.second)
    elif isinstance(t, Return):
        yield from ref_term_nodes(t.value)
    elif isinstance(t, (Let, LetAnn)):
        for part in (t.head, *t.args, t.cont):
            yield from ref_term_nodes(part)
    elif not isinstance(t, (Var, IntLit, BoolLit)):
        raise TypeError(f"not a term: {t!r}")


def ref_term_size(t):
    return sum(1 for _ in ref_term_nodes(t))


def ref_restrict(theta_prime, theta):
    """Drop from theta_prime, walking from the end, the existentials theta
    lacks; the entries theta has must line up by name."""
    keep = theta.evar_names
    out = []
    i = len(theta_prime.entries) - 1
    j = len(theta.entries) - 1
    while i >= 0:
        e = theta_prime.entries[i]
        if isinstance(e, Universal) or e.name in keep:
            if j < 0 or isinstance(theta.entries[j], Universal) != isinstance(e, Universal) \
                    or theta.entries[j].name != e.name:
                raise InvariantViolation(f"restriction misaligned at {e.name}")
            out.append(e)
            j -= 1
        i -= 1
    if j >= 0:
        raise InvariantViolation("restriction target has entries the source lacks")
    return Context(tuple(reversed(out)))


# -- generated inputs ----------------------------------------------------------

def solution(rng):
    """A ground positive type that may mention the universals a, b, c."""
    return gen_type(rng, "+", depth=2, quants=1, uvars=UNIVERSALS)


def holed_with_context(rng):
    """A holed type from `gen`, and a well-formed context that solves some
    of its holes with types whose free universals the type's binders reuse."""
    t = gen_type(rng, rng.choice("+-"))
    holed, theta, _ = holeify(rng, t)
    entries = [Universal(a) for a in UNIVERSALS]
    for e in theta.entries:
        entries.append(Solved(e.name, solution(rng)) if rng.random() < 0.8 else e)
    entries.append(Solved("?spare", solution(rng)))
    return holed, Context(tuple(entries))


# -- apply_context -------------------------------------------------------------

def test_capture_under_binder():
    theta = Context((Universal("a"), Solved("?x", UVar("a"))))
    target = Forall("a", Arrow(EVar("?x"), Up(UVar("a"))))
    got = apply_context(theta, target)
    assert got == ref_apply(theta, target)
    assert got == Forall("b", Arrow(UVar("a"), Up(UVar("b"))))
    assert got != Forall("a", Arrow(UVar("a"), Up(UVar("a"))))
    assert free_uvars(got) == {"a"}


def test_capture_under_nested_and_shadowing_binders():
    theta = Context((Universal("a"), Universal("b"),
                     Solved("?x", Data("Pair", (UVar("a"), UVar("b"))))))
    target = Forall("a", Arrow(EVar("?x"), Forall(
        "b", Arrow(UVar("a"), Forall("a", Arrow(EVar("?x"), Up(UVar("a"))))))))
    got = apply_context(theta, target)
    assert got == ref_apply(theta, target)
    assert free_uvars(got) == {"a", "b"}


def test_apply_context_matches_right_fold():
    rng = random.Random(31)
    captured = 0
    for _ in range(400):
        holed, theta = holed_with_context(rng)
        got = apply_context(theta, holed)
        assert got == ref_apply(theta, holed)
        assert free_uvars(got) == free_uvars(ref_apply(theta, holed))
        assert wf_context(theta)
        captured += any(isinstance(e, Solved) and e.name in holed.evars
                        and free_uvars(e.solution) for e in theta.entries)
    assert captured > 50  # many instances substitute open solutions


def test_apply_context_leaves_unsolved_and_untouched_types_alone():
    rng = random.Random(32)
    for _ in range(100):
        t = gen_type(rng, rng.choice("+-"), uvars=UNIVERSALS)
        holed, theta, _ = holeify(rng, t)
        assert apply_context(theta, holed) is holed
        assert apply_context(Context((Solved("?other", solution(rng)),)), t) is t


def test_single_substitutions_match_reference():
    rng = random.Random(33)
    for _ in range(300):
        target = gen_type(rng, rng.choice("+-"), uvars=("a",))
        p = solution(rng)
        assert subst_type(p, "a", target) == ref_subst(target, "a", p, UVar)
        if isinstance(target, NegType):
            assert Forall("a", target).open(p) == ref_subst(target, "a", p, UVar)
        holed, theta, _ = holeify(rng, target)
        for e in theta.entries:
            one = Context((Solved(e.name, p),))
            assert apply_context(one, holed) == ref_subst(holed, e.name, p, EVar)


# -- wf_context ----------------------------------------------------------------

def random_context(rng):
    """Contexts of every kind: duplicate names, solutions that mention later
    universals or existentials, negative solutions, and well-formed ones."""
    pool = [Universal("a"), Universal("b"), Universal("c"), Unsolved("?x"),
            Unsolved("?y")]
    entries = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.5:
            entries.append(rng.choice(pool))
        elif roll < 0.9:
            entries.append(Solved(f"?s{rng.randint(0, 3)}", solution(rng)))
        elif roll < 0.95:
            entries.append(Solved("?e", Data("List", (EVar(rng.choice(["?x", "?s0"])),))))
        else:
            entries.append(Solved(f"?s{rng.randint(0, 3)}", Up(solution(rng))))
    return Context(tuple(entries))


def test_wf_context_matches_per_prefix_definition():
    rng = random.Random(34)
    verdicts = set()
    for _ in range(2000):
        theta = random_context(rng)
        expected = ref_wf_context(theta)
        assert wf_context(theta) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_wf_context_scopes_solutions_to_their_prefix():
    thunk = Down(Forall("b", Up(UVar("a"))))
    before = Context((Universal("a"), Solved("?x", thunk)))
    after = Context((Solved("?x", thunk), Universal("a")))
    assert wf_context(before) and ref_wf_context(before)
    assert not wf_context(after) and not ref_wf_context(after)


# -- facts carried by types and terms -------------------------------------------

def assert_facts(t):
    assert t.evars == ref_free_evars(t)
    assert free_uvars(t) == ref_free_uvars(t)
    assert is_ground(t) == (not ref_free_evars(t))
    assert t.size == ref_termsize(t)
    assert t.height == ref_height(t)
    assert t.dangling == ref_dangling(t)
    assert t.prenex == ref_prenex(t)
    for uvars in (frozenset(), frozenset(UNIVERSALS), ref_free_uvars(t)):
        for evars in (frozenset(), ref_free_evars(t)):
            assert _wf(t, uvars, evars) == ref_wf(t, uvars, evars)


def built_types(rng):
    """Types as the checker makes them: generated ones, and the results of
    opening, closing, applying a context and both substitutions."""
    t = gen_type(rng, rng.choice("+-"), uvars=UNIVERSALS)
    holed, theta, _ = holeify(rng, t)
    yield t
    yield holed
    holed, theta = holed_with_context(rng)
    yield apply_context(theta, holed)
    yield subst_type(solution(rng), rng.choice(UNIVERSALS), t)
    yield subst_uvars({a: solution(rng) for a in UNIVERSALS[:2]}, t)
    for e in theta.entries:
        yield apply_context(Context((Solved(e.name, solution(rng)),)), holed)
    for body in (t, holed):
        if isinstance(body, NegType):
            closed = Forall(rng.choice(UNIVERSALS), body)
            yield closed
            yield closed.scope  # its variable dangles here
            yield closed.open(EVar("?o"))
            yield closed.open(solution(rng))
    sub = t
    while isinstance(sub, Forall):
        yield sub.scope
        sub = sub.open(EVar(f"?s{ref_termsize(sub)}"))
        yield sub


def test_block_opening_matches_one_quantifier_at_a_time():
    """Opening the first i quantifiers of a block in one map substitutes
    each variable as the named reference does, and `used_binders` names
    the quantifiers whose variable the scope mentions."""
    rng = random.Random(39)
    unused = 0
    for _ in range(300):
        body = gen_type(rng, "-", uvars=UNIVERSALS)
        binders = rng.sample(UNIVERSALS, rng.randint(1, 3))
        n = body
        for b in reversed(binders):
            n = Forall(b, n)
        k = len(binders)
        # the named reference would capture a universal named like a binder
        ps = [rng.choice([EVar(f"?o{j}"), solution(rng)]) for j in range(k)]
        ps = [p if p.uvars.isdisjoint(binders) else EVar(f"?o{j}")
              for j, p in enumerate(ps)]
        assert used_binders(n, k) == {j for j, b in enumerate(binders) if b in body.uvars}
        unused += len(used_binders(n, k)) < k
        for i in range(k + 1):
            expected = body
            for b, p in zip(binders[:i], ps):
                expected = ref_subst(expected, b, p, UVar)
            for b in reversed(binders[i:]):
                expected = Forall(b, expected)
            assert open_block(n, ps[:i]) == expected
            assert open_block(n, ps[:i]).prenex == ref_prenex(expected)
    assert unused > 50


def test_type_facts_match_walks():
    rng = random.Random(35)
    seen = 0
    for _ in range(300):
        for t in built_types(rng):
            assert_facts(t)
            seen += 1
    assert seen > 3000


def test_copies_and_pickles_rebuild_the_facts():
    rng = random.Random(37)
    seen = 0
    leaves = [UVar("a"), BVar(0), EVar("?x")]
    for _ in range(60):
        for t in [*leaves, *built_types(rng)]:
            for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert twin == t and type(twin) is type(t) and hash(twin) == hash(t)
                assert (twin.evars, twin.uvars, twin.size, twin.height, twin.dangling) \
                    == (t.evars, t.uvars, t.size, t.height, t.dangling)
                assert_facts(twin)
                if isinstance(t, Forall):
                    assert twin.hint == t.hint and twin.body == t.body
                seen += 1
    assert seen > 2000


def test_facts_of_types_with_a_child_that_is_not_a_type():
    """A node whose child is not a type is never built, so no fact counts
    one: each constructor raises TypeError, and `_wf` refuses a root that
    is not a type."""
    junk = [lambda: Data("List", ("a",)), lambda: Arrow(UVar("a"), None),
            lambda: Down(3), lambda: Up(Data("Pair", (EVar("?x"), "b"))),
            lambda: NegData("ST", (UVar("a"), [])), lambda: Data("List", "ab"),
            lambda: Forall.bind("a", Arrow(BVar(0), None)), lambda: Forall("a", 3)]
    for build in junk:
        with pytest.raises(TypeError):
            build()
    assert not _wf("not a type", frozenset(), frozenset())


def rebuilt(t, rename):
    """`t` built again node by node, apart from `t`, through the named view
    of each quantifier, with its variable renamed by `rename`."""
    if isinstance(t, Forall):
        new = rename(t.binder)
        return Forall(new, rebuilt(subst_type(UVar(new), t.binder, t.body), rename))
    return ref_rebuild(t, [rebuilt(c, rename) for _, c in ref_children(t, True)])


def type_classes(cls=_Type):
    """The concrete type classes of `polarf.syntax`, found by subclassing."""
    subs = [c for c in cls.__subclasses__() if c.__module__ == "polarf.syntax"]
    return set().union(*map(type_classes, subs)) if subs else {cls}


def test_every_type_class_has_a_shape():
    """Each type class is a leaf or rebuilds from the children `ref_children`
    gives, so a new constructor fails here, not skipped by every reference."""
    sample = Forall("a", Arrow(Data("Pair", (UVar("a"), EVar("?x"))),
                               NegData("ST", (Down(Up(Data("Int"))), UVar("b")))))
    nodes = [v for named in (False, True) for v, _ in ref_nodes(sample, named)]
    for cls in type_classes():
        found = [t for t in nodes if type(t) is cls]
        assert found, f"no sample of {cls.__name__}"
        for t in found:
            kids = [c for _, c in ref_children(t, True)]
            if cls in (UVar, BVar, EVar) or cls in (Data, NegData) and not t.args:
                assert not kids
            else:
                assert kids and ref_rebuild(t, kids) == t


def test_hash_agrees_with_equality():
    """A type built apart, and an alpha-variant with other binder names,
    are `==` and hash alike, whichever of them is hashed first."""
    rng = random.Random(40)
    nested = 0
    for i in range(400):
        # with fewer universals, quantifiers nest (each binds a name not in scope)
        t = gen_type(rng, rng.choice("+-"), uvars=UNIVERSALS[:i % 4])
        for u in (t, holeify(rng, t)[0]):
            # binders renamed apart from every name the generator uses
            variant = rebuilt(u, lambda b: f"{b}_{i}")
            twin = rebuilt(u, lambda b: b)
            assert twin is not u and variant is not u
            first, second = (twin, u) if i % 2 else (u, twin)
            assert hash(first) == hash(second) == hash(variant) == hash(u)
            assert twin == u and variant == u
            nested += isinstance(u, Forall) and isinstance(u.scope, Forall)
    assert nested > 20
    # the hint is the name a binder prints as; it is neither compared nor hashed
    scope = Arrow(BVar(0), Up(BVar(0)))
    assert Forall.bind("a", scope) == Forall.bind("b", scope)
    assert hash(Forall.bind("a", scope)) == hash(Forall.bind("b", scope))
    # the same constructor and arguments make a positive and a negative datatype
    for args in ((), (UVar("a"), Data("Int"))):
        assert Data("ST", args) != NegData("ST", args)
        assert len({Data("ST", args), NegData("ST", args), Data("ST", args)}) == 2


def test_term_sizes_match_walk():
    rng = random.Random(36)
    for _ in range(300):
        _, body = gen_program(rng)
        for node in ref_term_nodes(body):
            assert node.size == ref_term_size(node)


# -- weak extension and restriction ------------------------------------------------

def spine_contexts(rng, programs):
    """The input and output context of every spine step in the traces of
    generated programs, accepted or not."""
    for _ in range(programs):
        gamma, body = gen_program(rng)
        try:
            trace = synth_computation(Context(), gamma, body).trace
        except TypeCheckError as e:
            trace = e.trace
        for step in trace:
            if step.rule.startswith("spine-"):
                yield step.before, step.after


def test_stack_extension_matches_name_aligned_walk():
    rng = random.Random(38)
    grown = 0
    for before, after in spine_contexts(rng, 1000):
        for theta, out in ((before, after), (after, before)):
            verdict = ref_weak_extends(theta, out)
            assert wf_extension(theta, out, weak=True) == verdict
            if verdict:
                assert restrict_context(out, theta) == ref_restrict(out, theta)
            else:
                with pytest.raises(InvariantViolation):
                    restrict_context(out, theta)
        grown += len(after) > len(before) > 0
    assert grown > 50  # many spines push existentials onto a non-empty context
