"""Seeded random generators shared by the property and acceptance suites,
and the fixed-shape programs that the scaling tests grow."""

from __future__ import annotations

import random

from polarf import (
    Arrow, BoolLit, Context, Data, Down, EVar, Forall, IntLit, Lambda, Let,
    LetAnn, NegData, NegType, PairVal, PosType, Return, Thunk, TypeAbs,
    TypeEnv, UVar, Unsolved, Up, Var, free_uvars, is_ground, parse_type,
    subst_type,
)

from references import ref_children, ref_rebuild

TYVARS = ("a", "b", "c", "d")
MAX_DEPTH = 4
MAX_QUANTS = 3


def gen_pos(rng: random.Random, uvars, depth: int, quants: list) -> PosType:
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        leaves = ["Int", "Bool", "String"] + list(uvars)
        pick = rng.choice(leaves)
        return UVar(pick) if pick in uvars else Data(pick, ())
    if roll < 0.55:
        return Data("List", (gen_pos(rng, uvars, depth - 1, quants),))
    if roll < 0.7:
        return Data("Pair", (gen_pos(rng, uvars, depth - 1, quants),
                             gen_pos(rng, uvars, depth - 1, quants)))
    return Down(gen_neg(rng, uvars, depth - 1, quants))


def gen_neg(rng: random.Random, uvars, depth: int, quants: list) -> NegType:
    roll = rng.random()
    if quants[0] > 0 and depth > 0 and roll < 0.3:
        quants[0] -= 1
        binder = next((v for v in TYVARS if v not in uvars), None)
        if binder is not None:
            return Forall(binder, gen_neg(rng, uvars + (binder,), depth, quants))
    if depth <= 0 or roll < 0.55:
        return Up(gen_pos(rng, uvars, depth - 1, quants))
    if roll < 0.9:
        return Arrow(gen_pos(rng, uvars, depth - 1, quants),
                     gen_neg(rng, uvars, depth - 1, quants))
    return NegData("ST", (gen_pos(rng, uvars, depth - 1, quants),
                          gen_pos(rng, uvars, depth - 1, quants)))


def gen_type(rng: random.Random, polarity: str, depth: int = MAX_DEPTH,
             quants: int = MAX_QUANTS, uvars=()):
    budget = [quants]
    if polarity == "+":
        return gen_pos(rng, tuple(uvars), depth, budget)
    return gen_neg(rng, tuple(uvars), depth, budget)


def _prenex(n: NegType):
    binders = []
    while isinstance(n, Forall):
        binders.append(n.binder)
        n = n.body
    return binders, n


def permute_prenex(rng: random.Random, n: NegType) -> NegType:
    """Shuffle the leading quantifier block (an isomorphism when len >= 2)."""
    binders, body = _prenex(n)
    if len(binders) < 2:
        return n
    shuffled = binders[:]
    rng.shuffle(shuffled)
    for b in reversed(shuffled):
        body = Forall(b, body)
    return body


def instantiate_prenex(rng: random.Random, n: NegType) -> NegType:
    """Replace the first quantifier with a small ground type (a supertype)."""
    if not isinstance(n, Forall):
        return n
    cand = rng.choice([Data("Int", ()), Data("Bool", ()),
                       Down(Forall("z", Arrow(UVar("z"), Up(UVar("z"))))),
                       Data("List", (Data("Int", ()),))])
    return subst_type(cand, n.binder, n.body)


def gen_related_pair(rng: random.Random, polarity: str):
    """A pair biased toward interesting subtype relationships."""
    a = gen_type(rng, polarity)
    roll = rng.random()
    if roll < 0.25:
        return a, a
    if polarity == "-" and roll < 0.5:
        return a, permute_prenex(rng, a)
    if polarity == "-" and roll < 0.7:
        return a, instantiate_prenex(rng, a)
    return a, gen_type(rng, polarity)


def closed_positive_occurrences(t):
    """Paths to positive subterm occurrences that mention no bound variables."""
    paths = []

    def walk(node, path, bound):
        if isinstance(node, PosType) and not (free_uvars(node) & bound) \
                and is_ground(node):
            paths.append(tuple(path))
        if isinstance(node, Forall):
            bound = bound | {node.binder}
        for step, child in ref_children(node, True):
            walk(child, path + [step], bound)

    walk(t, [], set())
    return paths


def _replace_at(node, path, replacement):
    if not path:
        return replacement
    step, rest = path[0], path[1:]
    return ref_rebuild(node, [_replace_at(c, rest, replacement) if s == step else c
                              for s, c in ref_children(node, True)])


def subterm_at(node, path):
    for step in path:
        node = dict(ref_children(node, True))[step]
    return node


def _is_prefix(short, long):
    return len(short) <= len(long) and long[:len(short)] == short


def holeify(rng: random.Random, t, max_holes: int = 2):
    """Replace up to `max_holes` closed positive occurrences with fresh
    existentials.  Returns (type with holes, context of unsolved entries,
    solutions mapping names back to the replaced subterms)."""
    paths = closed_positive_occurrences(t)
    rng.shuffle(paths)
    want = rng.randint(1, max_holes)
    chosen = []
    for path in paths:
        if len(chosen) >= want:
            break
        # nested holes would punch through each other; keep them disjoint
        if any(_is_prefix(p, path) or _is_prefix(path, p) for p in chosen):
            continue
        chosen.append(path)
    solutions = {}
    for i, path in enumerate(chosen):
        name = f"?h{i}"
        solutions[name] = subterm_at(t, path)
        t = _replace_at(t, list(path), EVar(name))
    theta = Context(tuple(Unsolved(name) for name in sorted(solutions)))
    return t, theta, solutions


# ---------------------------------------------------------------------------
# Random small programs

ENV_POOL = (
    ("id", "dn (forall a. a -> up a)"),
    ("choose", "dn (forall a. a -> a -> up a)"),
    ("single", "dn (forall a. a -> up (List a))"),
    ("nil", "dn (forall a. up (List a))"),
    ("inc", "dn (Int -> up Int)"),
    ("pick", "dn (forall a. a -> Int -> up a)"),
    ("pair_up", "dn (forall a b. a -> b -> up (a * b))"),
    ("ints", "List Int"),
    ("flag", "Bool"),
)


def gen_env(rng: random.Random) -> TypeEnv:
    names = rng.sample(range(len(ENV_POOL)), rng.randint(2, 5))
    bindings = [(ENV_POOL[i][0], parse_type(ENV_POOL[i][1], "+"))
                for i in sorted(names)]
    if rng.random() < 0.4:
        bindings.append(("v0", gen_type(rng, "+", depth=2, quants=1)))
    return TypeEnv(tuple(bindings))


def gen_value(rng: random.Random, scope, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        if scope and roll < 0.35:
            return Var(rng.choice(scope))
        return rng.choice([IntLit(rng.randint(0, 9)), BoolLit(rng.random() < 0.5)])
    if roll < 0.65:
        return PairVal(gen_value(rng, scope, depth - 1),
                       gen_value(rng, scope, depth - 1))
    return Thunk(Return(gen_value(rng, scope, depth - 1)))


def gen_comp(rng: random.Random, scope, uvars, depth: int, lets: list):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Return(gen_value(rng, scope, 1))
    if roll < 0.45:
        anno = gen_type(rng, "+", depth=2, quants=1, uvars=uvars)
        x = f"x{len(scope)}"
        return Lambda(x, anno, gen_comp(rng, scope + [x], uvars, depth - 1, lets))
    if roll < 0.5 and len(uvars) < 2:
        binder = next(v for v in ("p", "q") if v not in uvars)
        return TypeAbs(binder, gen_comp(rng, scope, uvars + (binder,),
                                        depth - 1, lets))
    if lets[0] <= 0:
        return Return(gen_value(rng, scope, 1))
    lets[0] -= 1
    x = f"t{len(scope)}"
    if scope and rng.random() < 0.8:
        head = Var(rng.choice(scope))
    else:
        head = Thunk(Return(gen_value(rng, scope, 1)))
    args = tuple(gen_value(rng, scope, 1) for _ in range(rng.randint(0, 2)))
    cont = gen_comp(rng, scope + [x], uvars, depth - 1, lets)
    if rng.random() < 0.35:
        anno = gen_type(rng, "+", depth=2, quants=1, uvars=uvars)
        return LetAnn(x, anno, head, args, cont)
    return Let(x, head, args, cont)


def gen_program(rng: random.Random):
    """A small environment and computation; verdict intentionally unknown."""
    env = gen_env(rng)
    scope = [name for name, _ in env]
    body = gen_comp(rng, scope, (), rng.randint(1, 3), [2])
    return env, body


# -- programs whose premises ask for one ground judgment more than once ----------

CHOOSE = parse_type("dn (forall a. a -> a -> up a)", "+")
POLY_ID = parse_type("dn (forall a. a -> up a)", "+")


def gen_shared_type(rng: random.Random) -> PosType:
    """A closed positive type whose check against itself goes through an
    invariant rule to a judgment that is not a leaf, one the memo keeps:
    a list of lists, a thunk, or the thunk of `forall a. a -> up a`."""
    roll = rng.random()
    if roll < 0.4:
        return Data("List", (Data("List", (gen_type(rng, "+", depth=2, quants=1),)),))
    if roll < 0.8:
        return Down(gen_type(rng, "-", depth=3, quants=1))
    return POLY_ID


def gen_shared_program(rng: random.Random):
    """One to three lets, each applying a head to two or more variables of
    one ground type `t`: `choose` or `f : dn (t -> .. -> t -> up t)`.
    Each argument after `choose`'s first asks for the same ground judgment
    `t <=+ t`.  An argument is now and then `y`, of another type, so the
    verdict is unknown; the body is sometimes under a type abstraction."""
    t = gen_shared_type(rng)
    arity = rng.randint(2, 3)
    n = Up(t)
    for _ in range(arity):
        n = Arrow(t, n)
    env = TypeEnv((("x0", t), ("x1", t), ("y", gen_type(rng, "+", depth=2, quants=1)),
                   ("f", Down(n)), ("choose", CHOOSE)))
    scope, lets = ["x0", "x1"], []
    for i in range(rng.randint(1, 3)):
        head, k = ("f", arity) if rng.random() < 0.5 else ("choose", 2)
        args = tuple(Var("y" if rng.random() < 0.1 else rng.choice(scope))
                     for _ in range(k))
        lets.append((f"r{i}", Var(head), args))
        scope.append(f"r{i}")
    body = Return(Var(scope[-1]))
    for x, head, args in reversed(lets):
        body = Let(x, head, args, body)
    return env, TypeAbs("p", body) if rng.random() < 0.3 else body


# -- fixed-shape programs, grown by one size parameter ---------------------------

LETCHAIN_ENV = """\
val head : dn (forall a. List a -> up a)
val ids : List (dn (forall a. a -> up a))
val id : dn (forall a. a -> up a)
val choose : dn (forall a. a -> a -> up a)
"""


def letchain_source(n: int) -> str:
    """`n` lets over `head(ids)`, alternating `id` and `choose`; each
    `choose` asks for `forall a. a -> up a <=- forall a. a -> up a`."""
    lines = ["let x0 = head(ids);"]
    for i in range(1, n):
        if i % 2:
            lines.append(f"let x{i} = id(x{i - 1});")
        else:
            lines.append(f"let x{i} = choose(x{i - 1}, x{max(i - 2, 0)});")
    return LETCHAIN_ENV + "run " + "\n".join(lines) + f"\nreturn x{n - 1}\n"


def spine_source(k: int) -> str:
    """One application of a `k`-quantifier, `k`-argument head."""
    binders = [f"a{i}" for i in range(1, k + 1)]
    args = [("1", "true", "s", "ids")[i % 4] for i in range(k)]
    return ("val s : String\nval ids : List (dn (forall a. a -> up a))\n"
            f"val f : dn (forall {' '.join(binders)}. {' -> '.join(binders)} "
            f"-> up ({binders[0]} * {binders[-1]}))\n"
            f"run let r = f({', '.join(args)}); return r\n")
