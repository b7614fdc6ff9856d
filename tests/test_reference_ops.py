"""Context operations against their direct definitions.

`apply_context` substitutes all solutions in one capture-avoiding walk and
`wf_context` checks every solution against a running set of universals.
The reference definitions kept here are the direct ones: applying a context
is a right fold of single capture-avoiding substitutions, and a context is
well-formed when each solution is ground and well-formed in the context
made of the entries before it.
"""

import random

from polarf import (
    Arrow, Context, Data, Down, EVar, Forall, NegData, Solved, UVar,
    Universal, Unsolved, Up, apply_context, free_evars, free_uvars,
    subst_type, wf_context,
)
from polarf.syntax import fresh_name, subst_evar, type_names

from gen import gen_type, holeify

UNIVERSALS = ("a", "b", "c")


# -- reference definitions ----------------------------------------------------

def ref_subst(t, name, p, var_cls):
    """Substitute `p` for the `var_cls` variable `name`, one binder at a time."""
    if isinstance(t, (UVar, EVar)):
        return p if isinstance(t, var_cls) and t.name == name else t
    if isinstance(t, Down):
        return Down(ref_subst(t.body, name, p, var_cls))
    if isinstance(t, Data):
        return Data(t.constructor, tuple(ref_subst(a, name, p, var_cls) for a in t.args))
    if isinstance(t, NegData):
        return NegData(t.constructor,
                       tuple(ref_subst(a, name, p, var_cls) for a in t.args))
    if isinstance(t, Arrow):
        return Arrow(ref_subst(t.domain, name, p, var_cls),
                     ref_subst(t.codomain, name, p, var_cls))
    if isinstance(t, Up):
        return Up(ref_subst(t.body, name, p, var_cls))
    if isinstance(t, Forall):
        if var_cls is UVar and t.binder == name:
            return t
        if t.binder in free_uvars(p):
            avoid = type_names(t.body) | type_names(p) | {name}
            b = fresh_name(t.binder, avoid)
            body = ref_subst(t.body, t.binder, UVar(b), UVar)
            return Forall(b, ref_subst(body, name, p, var_cls))
        return Forall(t.binder, ref_subst(t.body, name, p, var_cls))
    raise TypeError(f"not a type: {t!r}")


def ref_apply(theta, t):
    for e in reversed(theta.entries):
        if isinstance(e, Solved):
            t = ref_subst(t, e.name, e.solution, EVar)
    return t


def ref_wf_type(theta, t, extra=frozenset()):
    if isinstance(t, UVar):
        return t.name in extra or any(
            isinstance(e, Universal) and e.name == t.name for e in theta.entries)
    if isinstance(t, EVar):
        return any(not isinstance(e, Universal) and e.name == t.name
                   for e in theta.entries)
    if isinstance(t, (Down, Up)):
        return ref_wf_type(theta, t.body, extra)
    if isinstance(t, (Data, NegData)):
        return all(ref_wf_type(theta, a, extra) for a in t.args)
    if isinstance(t, Arrow):
        return ref_wf_type(theta, t.domain, extra) and ref_wf_type(theta, t.codomain, extra)
    if isinstance(t, Forall):
        return ref_wf_type(theta, t.body, extra | {t.binder})
    return False


def ref_wf_context(theta):
    seen = set()
    for i, e in enumerate(theta.entries):
        if e.name in seen:
            return False
        seen.add(e.name)
        if isinstance(e, Solved):
            if free_evars(e.solution):
                return False
            if not ref_wf_type(Context(theta.entries[:i]), e.solution):
                return False
    return True


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
        captured += any(isinstance(e, Solved) and e.name in free_evars(holed)
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
        holed, theta, _ = holeify(rng, target)
        for e in theta.entries:
            assert subst_evar(p, e.name, holed) == ref_subst(holed, e.name, p, EVar)


# -- wf_context ----------------------------------------------------------------

def random_context(rng):
    """Contexts of every kind: duplicate names, solutions that mention later
    universals or existentials, and well-formed ones."""
    pool = [Universal("a"), Universal("b"), Universal("c"), Unsolved("?x"),
            Unsolved("?y")]
    entries = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.5:
            entries.append(rng.choice(pool))
        elif roll < 0.9:
            entries.append(Solved(f"?s{rng.randint(0, 3)}", solution(rng)))
        else:
            entries.append(Solved("?e", Data("List", (EVar(rng.choice(["?x", "?s0"])),))))
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
