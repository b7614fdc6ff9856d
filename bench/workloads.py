"""Jobs for the four benchmark workloads, each with an answer known in advance.

A job is one unit of user work: one program checked, one `A <: B` query or
one algorithm/oracle agreement instance.  `Job.call` does the work through
the entry-point table `api` (so a traced run can wrap it) and returns the
raw result; `Job.check` compares that result with the job's known answer,
which never comes from the checker under test:

* corpus       the corpus `expected` column and `EXPECTED_TYPES`;
* deep-types   accept/reject by construction;
* long-programs  acceptance and the result type, by construction;
* agreement    the declarative oracle, with the soundness and completeness
               assertions of the criterion-4 suites.

Every builder takes the freshly imported `polarf` modules and a
`random.Random`, so the same seed gives the same jobs.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

# Size ladders.  Each rung is one job size and has a per-rung metric.  Rungs
# above TIMED_MAX are scale rungs: a job there takes 30 ms to 2 s, and on a
# shared machine a job that long varies by a fifth from one minute to the
# next, so they run only in the traced run (per-rung times and growth), not
# in the end-to-end timing.
DNUP_DEPTHS = (2, 3, 4, 5, 6, 7)
LIST_DEPTHS = (4, 6, 8, 10, 12, 14)
PRENEX_WIDTHS = (4, 8, 16, 32)
LETCHAIN_LENGTHS = (10, 25, 50, 100, 200, 400, 800)
SPINE_WIDTHS = (4, 8, 16, 32, 64)
TIMED_MAX = {"dnup": 5, "list": 10, "prenex": 16, "letchain": 25, "spine": 16}

# Instance mix of the agreement workload: criterion 4 runs 7,000 ground,
# 3,000 holed and 2,000 program instances.  An instance's cost grows steeply
# with its quantifiers (the oracle searches instantiations for each), so the
# pool is stratified by quantifier count: every seed draws the same number of
# instances per kind and count, at the generator's own shares, so that only
# the instances themselves change with the seed.  The pool is as small as that
# allows, so that each instance runs about eighteen times in a 30-second run
# and its fastest repeat is steady.
AGREEMENT_MIX = (("ground", 7), ("holed", 3), ("program", 2))
AGREEMENT_POOL = 1200
# Per 100 instances of a kind: how many have q quantifiers (both sides of a
# pair, or all of a program's environment), 6 standing for 6 or more: the
# generator's shares over 48,000 instances (20 seeds of 2,400), rounded.
AGREEMENT_STRATA = {
    "pair": {0: 49, 1: 12, 2: 17, 3: 7, 4: 8, 5: 2, 6: 5},
    "program": {0: 3, 1: 16, 2: 27, 3: 26, 4: 19, 5: 8, 6: 1},
}

LEAVES = ("Int", "Bool", "String")


class Job:
    """One unit of work with its known answer."""

    __slots__ = ("rung", "variant", "call", "check", "scale")

    def __init__(self, rung, variant, call, check, scale=False):
        self.rung = rung          # e.g. "dnup.d7", "corpus.A3", "agreement.holed"
        self.variant = variant    # accept | reject | plain | trace | <instance kind>
        self.call = call          # api -> raw result (may raise)
        self.check = check        # raw result or exception -> (ok, kind)
        self.scale = scale        # a scale rung: traced run only


def _is_scale(rung):
    ladder, size = rung.split(".")
    return int(size[1:]) > TIMED_MAX[ladder]


def entry_points(pf):
    """The polarf functions the benchmark calls itself, by traced span name."""
    return SimpleNamespace(
        check_source_json=pf.cli.check_source_json,
        parse_type=pf.parser.parse_type,
        subtype_pos=pf.subtype.subtype_pos,
        subtype_neg=pf.subtype.subtype_neg,
        synth_computation=pf.typecheck.synth_computation,
        decl_subtype=pf.oracle.decl_subtype,
        decl_synth=pf.oracle.decl_synth,
        decl_iso=pf.oracle.decl_iso,
        wf_context=pf.wellformed.wf_context,
        extends=pf.syntax.extends,
        apply_context=pf.syntax.apply_context,
    )


def _failure_kind(pf, raw):
    """Error kind of an exception a job raised: a documented kind, or internal."""
    if isinstance(raw, pf.errors.TypeCheckError):
        return raw.kind
    if isinstance(raw, pf.errors.OracleBudgetExceeded):
        return "budget"
    return "internal"


# ---------------------------------------------------------------------------
# corpus: the 35 built-in programs through the exact `check --json` record

def corpus_jobs(pf, rng):
    expected_types = pf.corpus.EXPECTED_TYPES
    jobs = []
    for ex in pf.corpus.EXAMPLES + pf.corpus.STRIPPED:
        for with_trace in (False, True):
            jobs.append(_corpus_job(pf, ex, with_trace,
                                    expected_types.get(ex.name)))
    rng.shuffle(jobs)
    return jobs


def _corpus_job(pf, ex, with_trace, expected_type):
    source, name = ex.source, ex.name

    def call(api):
        return api.check_source_json(source, name, with_trace)

    def check(raw):
        if isinstance(raw, BaseException):
            return False, _failure_kind(pf, raw)
        record = json.loads(raw)
        kind = "ok" if record["status"] == "ok" else record["error"]["kind"]
        if ex.expected in ("ok", "ann"):
            ok = kind == "ok" and expected_type in (None, record["type"])
        elif ex.expected == "ambiguous":
            ok = kind == "ambiguous-let"
        else:
            ok = record["status"] == "type-error"
        ok = ok and (record["trace"] is not None) == with_trace
        return ok, kind

    return Job(f"corpus.{name}", "trace" if with_trace else "plain", call, check)


# ---------------------------------------------------------------------------
# deep-types: what `polarf sub` does per line, over three size ladders

def _dnup(depth, leaf):
    for _ in range(depth):
        leaf = f"dn (up ({leaf}))"
    return leaf


def _nested_list(depth, leaf):
    for _ in range(depth):
        leaf = f"List ({leaf})"
    return leaf


def _prenex(width, var):
    """`forall v1..vk. v1 -> .. -> vk -> up v1` against a ground arrow.

    Returns the quantified side, the accepted ground side and a ground side
    that differs only in the innermost leaf (the result type)."""
    binders = [f"{var}{i}" for i in range(1, width + 1)]
    args = [LEAVES[i % len(LEAVES)] for i in range(width)]
    quantified = f"forall {' '.join(binders)}. {' -> '.join(binders)} -> up {binders[0]}"
    ground = " -> ".join(args)
    return quantified, f"{ground} -> up {args[0]}", f"{ground} -> up {args[1]}"


def deep_type_queries(rng):
    """(rung, left, right, accepted) for every rung: one accepting query and
    one that fails only at the innermost leaf.  The seed picks only names
    and the order, so every seed does the same work."""
    queries = []
    for key, depths, build in (("dnup.d", DNUP_DEPTHS, _dnup),
                               ("list.d", LIST_DEPTHS, _nested_list)):
        for depth in depths:
            same = build(depth, "Int")
            queries.append((f"{key}{depth}", same, same, True))
            queries.append((f"{key}{depth}", same, build(depth, "Bool"), False))
    var = rng.choice("abcxyz")
    for width in PRENEX_WIDTHS:
        quantified, good, bad = _prenex(width, var)
        queries.append((f"prenex.k{width}", quantified, good, True))
        queries.append((f"prenex.k{width}", quantified, bad, False))
    return queries


def deep_types_jobs(pf, rng):
    jobs = [_sub_job(pf, *q) for q in deep_type_queries(rng)]
    rng.shuffle(jobs)
    return jobs


def _sub_job(pf, rung, left, right, accepted):
    PosType, Context = pf.syntax.PosType, pf.syntax.Context
    SubtypeResult = pf.subtype.SubtypeResult

    def call(api):
        lhs = api.parse_type(left, filename=f"{rung}:left")
        rhs = api.parse_type(right, filename=f"{rung}:right")
        if isinstance(lhs, PosType) != isinstance(rhs, PosType):
            raise ValueError("mixed polarities")
        check = api.subtype_pos if isinstance(lhs, PosType) else api.subtype_neg
        return check(Context(), lhs, rhs)

    def check(raw):
        if isinstance(raw, SubtypeResult):
            return accepted, "ok"
        kind = _failure_kind(pf, raw)
        return (not accepted and kind == "subtype-failure"), kind

    return Job(rung, "accept" if accepted else "reject", call, check,
               _is_scale(rung))


# ---------------------------------------------------------------------------
# long-programs: generated programs, checked as in corpus

LETCHAIN_ENV = """\
val head : dn (forall a. List a -> up a)
val ids : List (dn (forall a. a -> up a))
val id : dn (forall a. a -> up a)
val choose : dn (forall a. a -> a -> up a)
"""
LETCHAIN_TYPE = "up (dn (forall a. a -> up a))"


def letchain_source(n, x, phase):
    """`n` lets over `head(ids)`, alternating `id` and `choose`."""
    lines = [f"let {x}0 = head(ids);"]
    for i in range(1, n):
        if (i + phase) % 2:
            lines.append(f"let {x}{i} = id({x}{i - 1});")
        else:
            lines.append(f"let {x}{i} = choose({x}{i - 1}, {x}{max(i - 2, 0)});")
    return LETCHAIN_ENV + "run " + "\n".join(lines) + f"\nreturn {x}{n - 1}\n"


SPINE_ARGS = (("1", "Int"), ("true", "Bool"), ("s", "String"),
              ("ids", "List (dn (forall a. a -> up a))"))


def spine_source(k, head):
    """One application of a `k`-quantifier, `k`-argument head; returns the
    source and the result type, known by construction."""
    binders = [f"a{i}" for i in range(1, k + 1)]
    picks = [SPINE_ARGS[i % len(SPINE_ARGS)] for i in range(k)]
    decl = (f"val {head} : dn (forall {' '.join(binders)}. {' -> '.join(binders)} "
            f"-> up ({binders[0]} * {binders[-1]}))\n")
    env = "val s : String\nval ids : List (dn (forall a. a -> up a))\n" + decl
    args = ", ".join(v for v, _ in picks)
    return env + f"run let r = {head}({args}); return r\n", \
        f"up ({picks[0][1]} * {picks[-1][1]})"


def long_program_jobs(pf, rng):
    """The seed picks names, the id/choose phase and the order; every seed
    does the same work."""
    x, phase, head = rng.choice("xyzuvw"), rng.randrange(2), rng.choice("fgh")
    jobs = []
    for n in LETCHAIN_LENGTHS:
        jobs.append(_program_job(pf, f"letchain.n{n}", letchain_source(n, x, phase),
                                 LETCHAIN_TYPE))
    for k in SPINE_WIDTHS:
        jobs.append(_program_job(pf, f"spine.k{k}", *spine_source(k, head)))
    rng.shuffle(jobs)
    return jobs


def _program_job(pf, rung, source, result_type):
    def call(api):
        return api.check_source_json(source, f"{rung}.ipf", False)

    def check(raw):
        if isinstance(raw, BaseException):
            return False, _failure_kind(pf, raw)
        record = json.loads(raw)
        if record["status"] != "ok":
            return False, record["error"]["kind"]
        return record["type"] == result_type, "ok"

    return Job(rung, "plain", call, check, _is_scale(rung))


def letchain_probe_source(n):
    """The recursion probe: `n` lets of `inc(i)`."""
    lines = ["let i0 = inc(0);"] + [f"let i{j} = inc(i{j - 1});" for j in range(1, n)]
    return ("val inc : dn (Int -> up Int)\nrun " + "\n".join(lines)
            + f"\nreturn i{n - 1}\n")


# ---------------------------------------------------------------------------
# agreement: algorithm against the bounded declarative oracle

class AgreementGen:
    """Random instances shaped like the criterion-4 suites: types of depth
    at most 4 with at most 3 quantifiers, up to 2 holes, and small programs
    with at most 2 lets over a sampled environment."""

    TYVARS = ("a", "b", "c", "d")

    def __init__(self, pf, rng):
        self.s = pf.syntax
        self.rng = rng
        s = self.s
        a, b = s.UVar("a"), s.UVar("b")
        Int = s.Data("Int", ())

        def dn_forall(binders, body):
            for v in reversed(binders):
                body = s.Forall(v, body)
            return s.Down(body)

        self.env_pool = (
            ("id", dn_forall("a", s.Arrow(a, s.Up(a)))),
            ("choose", dn_forall("a", s.Arrow(a, s.Arrow(a, s.Up(a))))),
            ("single", dn_forall("a", s.Arrow(a, s.Up(s.Data("List", (a,)))))),
            ("nil", dn_forall("a", s.Up(s.Data("List", (a,))))),
            ("inc", s.Down(s.Arrow(Int, s.Up(Int)))),
            ("pick", dn_forall("a", s.Arrow(a, s.Arrow(Int, s.Up(a))))),
            ("pair_up", dn_forall("ab", s.Arrow(a, s.Arrow(
                b, s.Up(s.Data("Pair", (a, b))))))),
            ("ints", s.Data("List", (Int,))),
            ("flag", s.Data("Bool", ())),
        )
        self.instantiations = (
            Int, s.Data("Bool", ()), s.Data("List", (Int,)),
            s.Down(s.Forall("z", s.Arrow(s.UVar("z"), s.Up(s.UVar("z"))))))

    # -- types ----------------------------------------------------------------

    def pos(self, uvars, depth, quants):
        s, roll = self.s, self.rng.random()
        if depth <= 0 or roll < 0.35:
            pick = self.rng.choice(LEAVES + uvars)
            return s.UVar(pick) if pick in uvars else s.Data(pick, ())
        if roll < 0.55:
            return s.Data("List", (self.pos(uvars, depth - 1, quants),))
        if roll < 0.7:
            return s.Data("Pair", (self.pos(uvars, depth - 1, quants),
                                   self.pos(uvars, depth - 1, quants)))
        return s.Down(self.neg(uvars, depth - 1, quants))

    def neg(self, uvars, depth, quants):
        s, roll = self.s, self.rng.random()
        if quants[0] > 0 and depth > 0 and roll < 0.3:
            binder = next((v for v in self.TYVARS if v not in uvars), None)
            if binder is not None:
                quants[0] -= 1
                return s.Forall(binder, self.neg(uvars + (binder,), depth, quants))
        if depth <= 0 or roll < 0.55:
            return s.Up(self.pos(uvars, depth - 1, quants))
        if roll < 0.9:
            return s.Arrow(self.pos(uvars, depth - 1, quants),
                           self.neg(uvars, depth - 1, quants))
        return s.NegData("ST", (self.pos(uvars, depth - 1, quants),
                                self.pos(uvars, depth - 1, quants)))

    def type(self, polarity, depth=4, quants=3, uvars=()):
        make = self.pos if polarity == "+" else self.neg
        return make(tuple(uvars), depth, [quants])

    def related_pair(self, polarity):
        """A pair biased toward interesting subtype relationships: equal,
        prenex-permuted, instantiated, or unrelated."""
        a, roll = self.type(polarity), self.rng.random()
        if roll < 0.25:
            return a, a
        if polarity == "-" and roll < 0.5:
            return a, self._permute_prenex(a)
        if polarity == "-" and roll < 0.7:
            return a, self._instantiate_first(a)
        return a, self.type(polarity)

    def _permute_prenex(self, n):
        binders = []
        while isinstance(n, self.s.Forall):
            binders.append(n.binder)
            n = n.body
        self.rng.shuffle(binders)
        for v in reversed(binders):
            n = self.s.Forall(v, n)
        return n

    def _instantiate_first(self, n):
        if not isinstance(n, self.s.Forall):
            return n
        return self.s.subst_type(self.rng.choice(self.instantiations),
                                 n.binder, n.body)

    # -- holes ----------------------------------------------------------------

    def holeify(self, t, max_holes=2):
        """Replace up to `max_holes` disjoint closed positive occurrences
        with fresh existentials; returns the holed type and its context."""
        s = self.s
        paths = []

        def walk(node, path, bound):
            if isinstance(node, s.PosType) and s.is_ground(node) \
                    and not (s.free_uvars(node) & bound):
                paths.append(path)
            for step, child in self._children(node):
                inner = bound | {node.binder} if isinstance(node, s.Forall) else bound
                walk(child, path + (step,), inner)

        walk(t, (), frozenset())
        self.rng.shuffle(paths)
        want, chosen = self.rng.randint(1, max_holes), []
        for path in paths:
            if len(chosen) >= want:
                break
            if not any(p[:len(path)] == path or path[:len(p)] == p for p in chosen):
                chosen.append(path)
        names = []
        for i, path in enumerate(chosen):
            names.append(f"?h{i}")
            t = self._replace(t, path, s.EVar(names[-1]))
        return t, s.Context(tuple(s.Unsolved(n) for n in sorted(names)))

    def quantifiers(self, t):
        """Number of `forall`s in a type."""
        return isinstance(t, self.s.Forall) \
            + sum(self.quantifiers(child) for _, child in self._children(t))

    def _children(self, node):
        s = self.s
        if isinstance(node, (s.Down, s.Up, s.Forall)):
            return (("body", node.body),)
        if isinstance(node, (s.Data, s.NegData)):
            return tuple(enumerate(node.args))
        if isinstance(node, s.Arrow):
            return (("domain", node.domain), ("codomain", node.codomain))
        return ()

    def _replace(self, node, path, new):
        s = self.s
        if not path:
            return new
        step, rest = path[0], path[1:]
        if isinstance(node, (s.Down, s.Up)):
            return type(node)(self._replace(node.body, rest, new))
        if isinstance(node, s.Forall):
            return s.Forall(node.binder, self._replace(node.body, rest, new))
        if isinstance(node, (s.Data, s.NegData)):
            args = tuple(self._replace(a, rest, new) if i == step else a
                         for i, a in enumerate(node.args))
            return type(node)(node.constructor, args)
        if step == "domain":
            return s.Arrow(self._replace(node.domain, rest, new), node.codomain)
        return s.Arrow(node.domain, self._replace(node.codomain, rest, new))

    # -- programs -------------------------------------------------------------

    def program(self):
        s, rng = self.s, self.rng
        picked = sorted(rng.sample(range(len(self.env_pool)), rng.randint(2, 5)))
        bindings = [self.env_pool[i] for i in picked]
        if rng.random() < 0.4:
            bindings.append(("v0", self.type("+", depth=2, quants=1)))
        scope = [name for name, _ in bindings]
        body = self.comp(scope, (), rng.randint(1, 3), [2])
        return s.TypeEnv(tuple(bindings)), body

    def value(self, scope, depth):
        s, rng = self.s, self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.5:
            if scope and roll < 0.35:
                return s.Var(rng.choice(scope))
            return rng.choice([s.IntLit(rng.randint(0, 9)),
                               s.BoolLit(rng.random() < 0.5)])
        if roll < 0.65:
            return s.PairVal(self.value(scope, depth - 1),
                             self.value(scope, depth - 1))
        return s.Thunk(s.Return(self.value(scope, depth - 1)))

    def comp(self, scope, uvars, depth, lets):
        s, rng = self.s, self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            return s.Return(self.value(scope, 1))
        if roll < 0.45:
            x = f"x{len(scope)}"
            anno = self.type("+", depth=2, quants=1, uvars=uvars)
            return s.Lambda(x, anno, self.comp(scope + [x], uvars, depth - 1, lets))
        if roll < 0.5 and len(uvars) < 2:
            binder = next(v for v in ("p", "q") if v not in uvars)
            return s.TypeAbs(binder, self.comp(scope, uvars + (binder,),
                                               depth - 1, lets))
        if lets[0] <= 0:
            return s.Return(self.value(scope, 1))
        lets[0] -= 1
        x = f"t{len(scope)}"
        head = s.Var(rng.choice(scope)) if scope and rng.random() < 0.8 \
            else s.Thunk(s.Return(self.value(scope, 1)))
        args = tuple(self.value(scope, 1) for _ in range(rng.randint(0, 2)))
        cont = self.comp(scope + [x], uvars, depth - 1, lets)
        if rng.random() < 0.35:
            anno = self.type("+", depth=2, quants=1, uvars=uvars)
            return s.LetAnn(x, anno, head, args, cont)
        return s.Let(x, head, args, cont)


def agreement_jobs(pf, rng):
    gen = AgreementGen(pf, rng)
    makers = {"ground": _ground_job, "holed": _holed_job, "program": _agree_program_job}
    total = sum(share for _, share in AGREEMENT_MIX)
    jobs = []
    for kind, share in AGREEMENT_MIX:
        count = AGREEMENT_POOL * share // total
        strata = AGREEMENT_STRATA["program" if kind == "program" else "pair"]
        left = {q: count * per_100 // 100 for q, per_100 in strata.items()}
        assert sum(left.values()) == count, "AGREEMENT_POOL / 12 must be a multiple of 100"
        while any(left.values()):
            quantifiers, job = makers[kind](pf, gen)
            stratum = min(quantifiers, max(strata))
            if left[stratum]:
                left[stratum] -= 1
                jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def _agreement_check(pf):
    def check(raw):
        if isinstance(raw, BaseException):
            return False, _failure_kind(pf, raw)
        disagreement, kind = raw
        return disagreement is None, kind
    return check


def _alg(pf, api, polarity, theta, a, b):
    check = api.subtype_pos if polarity == "+" else api.subtype_neg
    try:
        return check(theta, a, b)
    except pf.errors.TypeCheckError:
        return None


def _ground_job(pf, gen):
    """Algorithm and oracle agree on a ground pair; reflexivity holds."""
    polarity = gen.rng.choice("+-")
    a, b = gen.related_pair(polarity)
    Context = pf.syntax.Context

    def call(api):
        res = _alg(pf, api, polarity, Context(), a, b)
        kind = "ok" if res is not None else "subtype-failure"
        if api.decl_subtype((), a, b) != (res is not None):
            return "disagree", kind
        if not (api.decl_subtype((), a, a) and api.decl_subtype((), b, b)):
            return "not reflexive", kind
        return None, kind

    return gen.quantifiers(a) + gen.quantifiers(b), \
        Job("agreement.ground", "ground", call, _agreement_check(pf))


def _holed_job(pf, gen):
    """Soundness and completeness with existentials on the non-ground side."""
    s = pf.syntax
    polarity = gen.rng.choice("+-")
    a, b = gen.related_pair(polarity)
    if polarity == "+":
        b_holed, theta = gen.holeify(b)
        left, right = a, b_holed
    else:
        a_holed, theta = gen.holeify(a)
        left, right = a_holed, b

    def call(api):
        decl = api.decl_subtype((), a, b)
        res = _alg(pf, api, polarity, theta, left, right)
        kind = "ok" if res is not None else "subtype-failure"
        if res is None:
            return ("incomplete" if decl else None), kind
        if not (api.wf_context(res.context) and api.extends(theta, res.context)):
            return "bad output context", kind
        holed = right if polarity == "+" else left
        completed = api.apply_context(res.context, holed)
        if not s.is_ground(completed):
            return "completion not ground", kind
        pair = (a, completed) if polarity == "+" else (completed, b)
        if not api.decl_subtype((), *pair):
            return "unsound", kind
        return None, kind

    return gen.quantifiers(a) + gen.quantifiers(b), \
        Job("agreement.holed", "holed", call, _agreement_check(pf))


def _agree_program_job(pf, gen):
    """Checker verdicts match the oracle; accepted types are oracle-derivable."""
    gamma, body = gen.program()
    Context = pf.syntax.Context
    typing_universe = pf.oracle.typing_universe

    def call(api):
        try:
            alg = api.synth_computation(Context(), gamma, body).type
            kind = "ok"
        except pf.errors.TypeCheckError as e:
            alg, kind = None, e.kind
        results = api.decl_synth((), gamma, body)
        if alg is None:
            return ("oracle types a rejected program" if results else None), kind
        universe = typing_universe(gamma, body)
        if not any(api.decl_iso((), alg, n, universe) for n in results):
            return "checker type not among oracle types", kind
        return None, kind

    return sum(gen.quantifiers(t) for _, t in gamma.bindings), \
        Job("agreement.program", "program", call, _agreement_check(pf))


WORKLOADS = {
    "corpus": corpus_jobs,
    "deep-types": deep_types_jobs,
    "long-programs": long_program_jobs,
    "agreement": agreement_jobs,
}
