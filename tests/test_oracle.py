"""The bounded declarative oracle: universes, subtyping search, type sets."""

import random

import pytest

from polarf import (
    Arrow, BoolLit, Context, Data, Forall, IntLit, NegType, OracleBudgetExceeded,
    PairVal, PosType, Return, Thunk, TypeCheckError, TypeEnv, UVar, Up, Var,
    candidate_universe, decl_iso, decl_subtype, decl_synth, parse_program,
    parse_type, pretty, subst_type, subtype_neg, synth_computation, synth_value,
)
from polarf import oracle
from polarf.corpus import by_name
from polarf.oracle import UNIVERSE_CAP, typing_universe

from gen import (
    gen_program, gen_related_pair, gen_type, instantiate_prenex,
    permute_prenex,
)
from references import (
    ref_candidate_universe, ref_decl_iso, ref_decl_subtype, ref_decl_synth,
)
from suites import ISO_ENV_CASES

T = parse_type
ID_TYPE = T("dn (forall a. a -> up a)", "+")


class TestCandidateUniverse:
    def test_type_is_its_own_subterm(self):
        u = candidate_universe([ID_TYPE])
        assert any(c == ID_TYPE for c in u)

    def test_impredicative_instantiation_available(self):
        rhs = T("up (List (dn (forall b. b -> up b)))", "-")
        u = candidate_universe([T("forall a. up (List a)", "-"), rhs])
        assert any(c == T("dn (forall b. b -> up b)", "+") for c in u)

    def test_arrow_universe_is_exactly_int(self):
        u = candidate_universe([T("Int -> up Int", "-")])
        assert list(u) == [Data("Int", ())]

    def test_universals_in_scope_included(self):
        u = candidate_universe([Data("Int", ())], theta=("a",))
        assert UVar("a") in u

    def test_universe_cap_is_loud(self):
        rng = random.Random(30)
        big = [gen_type(rng, "+") for _ in range(80)]
        with pytest.raises(OracleBudgetExceeded):
            decl_subtype((), Data("Int", ()), Data("Int", ()),
                         universe=candidate_universe(big))


class TestUniverseUnderBinders:
    """Subterms under a binder enter the universe by their binder's name."""

    def test_instantiation_with_a_bound_subterm(self):
        n, m = T("forall b. up b", "-"), T("forall a. up (List a)", "-")
        assert [pretty(c) for c in candidate_universe([n, m])] == ["b", "List a", "a"]
        assert decl_subtype((), n, m)
        subtype_neg(Context(), n, m)

    def test_matches_the_named_reading(self):
        rng = random.Random(42)
        for _ in range(200):
            types = [gen_type(rng, rng.choice("+-")) for _ in range(2)]
            types.append(T(pretty(types[0])))
            theta = ("a", "b")[:rng.randrange(3)]
            got = candidate_universe(types, theta)
            want = ref_candidate_universe(types, theta)
            assert got == want
            assert [pretty(c) for c in got] == [pretty(c) for c in want]

class TestDeclSubtype:
    def test_section3_displays(self):
        swap1 = T("forall a b. dn (a -> up b) -> List a -> up (List b)", "-")
        swap2 = T("forall b a. dn (a -> up b) -> List a -> up (List b)", "-")
        push1 = T("forall a. a -> forall b. b -> up (a * b)", "-")
        push2 = T("forall a b. a -> b -> up (a * b)", "-")
        impr1 = T("forall a. up (List a)", "-")
        impr2 = T("up (List (dn (forall b. b -> up b)))", "-")
        assert decl_subtype((), swap1, swap2) and decl_subtype((), swap2, swap1)
        assert decl_subtype((), push1, push2)
        assert decl_subtype((), impr1, impr2)
        mono = T("dn (Int -> String -> up (Int * String)) -> "
                 "List Int -> List String -> up (List (Int * String))", "-")
        poly = T("dn (forall a b. a -> b -> up (a * b)) -> "
                 "List Int -> List String -> up (List (Int * String))", "-")
        assert not decl_subtype((), mono, poly)
        assert not decl_subtype((), poly, mono)

    def test_reflexive_on_random_types(self):
        rng = random.Random(31)
        for _ in range(150):
            a = gen_type(rng, rng.choice("+-"))
            assert decl_subtype((), a, a)

    def test_transitive_on_instantiation_chains(self):
        rng = random.Random(32)
        hits = 0
        for _ in range(150):
            c = gen_type(rng, "-", quants=3)
            b = _instantiate_once(rng, c)
            a = _instantiate_once(rng, b)
            u = candidate_universe([a, b, c])
            if decl_subtype((), c, b, u) and decl_subtype((), b, a, u):
                hits += 1
                assert decl_subtype((), c, a, u)
        assert hits > 20

    def test_stability_under_substitution(self):
        from gen import instantiate_prenex, permute_prenex
        rng = random.Random(33)
        tried = 0
        for _ in range(300):
            a = gen_type(rng, "-", uvars=("c",))
            roll = rng.random()
            if roll < 0.4:
                b = a
            elif roll < 0.7:
                b = permute_prenex(rng, a)
            else:
                b = instantiate_prenex(rng, a)
            if "c" not in (_used(a) | _used(b)):
                continue
            if not decl_subtype(("c",), a, b):
                continue
            tried += 1
            for p in (Data("Int", ()), ID_TYPE):
                sa = subst_type(p, "c", a)
                sb = subst_type(p, "c", b)
                assert decl_subtype((), sa, sb)
            if tried >= 25:
                break
        assert tried >= 10

    def test_requires_ground_wf_inputs(self):
        with pytest.raises(ValueError):
            decl_subtype((), UVar("a"), UVar("a"))


def _used(t):
    from polarf import free_uvars
    return free_uvars(t)


def _instantiate_once(rng, n):
    from polarf import Forall
    if not isinstance(n, Forall):
        return n
    cand = rng.choice([Data("Int", ()), Data("Bool", ()), ID_TYPE])
    return subst_type(cand, n.binder, n.body)


class TestDeclIso:
    def test_map_binder_orders(self):
        p = T("forall a b. dn (a -> up b) -> List a -> up (List b)", "-")
        q = T("forall b a. dn (a -> up b) -> List a -> up (List b)", "-")
        assert decl_iso((), p, q)

    def test_int_is_self_isomorphic(self):
        assert decl_iso((), Data("Int", ()), Data("Int", ()))

    def test_instantiation_not_isomorphism(self):
        assert not decl_iso((), T("forall a. a -> up a", "-"),
                            T("Int -> up Int", "-"))


def _program_env(names):
    """The corpus environment pruned to the given names, as a TypeEnv."""
    from polarf.corpus import ENVIRONMENT
    prog = parse_program(ENVIRONMENT + "\nrun return true")
    keep = {name: ty for name, ty in prog.assumptions}
    return TypeEnv(tuple((n, keep[n]) for n in names))


class TestDeclSynth:
    def test_return_of_variable(self):
        gamma = TypeEnv((("x", ID_TYPE),))
        got = decl_synth((), gamma, Return(Var("x")))
        assert len(got) == 1
        assert got[0] == T("up (dn (forall a. a -> up a))", "-")

    def test_values_agree_with_the_typer(self):
        """For a literal, a pair and a thunk, the declarative type set
        holds one isomorphic to the type `synth_value` synthesizes."""
        gamma = TypeEnv((("x", ID_TYPE),))
        for v in (IntLit(1), PairVal(IntLit(1), BoolLit(True)), Thunk(Return(Var("x")))):
            alg = synth_value(Context(), gamma, v).type
            got = decl_synth((), gamma, v)
            assert any(decl_iso((), alg, p, typing_universe(gamma, v)) for p in got), v

    def test_environment_is_gated_as_synth_does(self):
        """`decl_synth` refuses an environment the algorithm refuses, with
        the same ValueError: a universal out of scope, or a negative type."""
        for p in (T("List a", "+"), T("Int -> up Int", "-")):
            gamma = TypeEnv((("x", p),))
            with pytest.raises(ValueError, match="environment is ill-formed"):
                synth_computation(Context(), gamma, Return(Var("x")))
            with pytest.raises(ValueError, match="environment is ill-formed"):
                decl_synth((), gamma, Return(Var("x")))
        # in scope, the binding is well-formed
        assert decl_synth(("a",), TypeEnv((("x", T("List a", "+")),)), Return(Var("x"))) \
            == (T("up (List a)", "-"),)

    def test_c3_is_a_singleton_up_to_iso(self):
        gamma = _program_env(["head", "ids"])
        body = parse_program("run let t = head(ids); return t").body
        got = decl_synth((), gamma, body)
        want = T("up (dn (forall a. a -> up a))", "-")
        assert got
        assert all(decl_iso((), n, want, typing_universe(gamma, body))
                   for n in got)

    def test_a3_unannotated_is_untypeable(self):
        gamma = _program_env(["nil", "choose", "ids"])
        body = parse_program("run let n = nil(); let t = choose(n, ids); "
                             "return t").body
        assert decl_synth((), gamma, body) == ()

    def test_a3_annotated_is_typeable(self):
        gamma = _program_env(["nil", "choose", "ids"])
        body = parse_program(
            "run let n : List (dn (forall a. a -> up a)) = nil(); "
            "let t = choose(n, ids); return t").body
        got = decl_synth((), gamma, body)
        want = T("up (List (dn (forall a. a -> up a)))", "-")
        assert any(decl_iso((), n, want) for n in got)

    def test_agreement_with_typer_on_corpus_rows(self):
        # small rows with pruned environments keep the universes tiny
        from polarf import synth_computation
        cases = {
            "A5": ["id", "auto"],
            "A7": ["choose", "id", "auto"],
            "C1": ["length", "ids"],
            "C4": ["single", "id"],
            "D3": ["runST", "argST"],
        }
        for name, names in cases.items():
            ex = by_name(name)
            gamma = _program_env(names)
            body = parse_program("run " + ex.term, name).body
            try:
                alg = synth_computation(Context(), gamma, body).type
            except TypeCheckError:
                alg = None
            got = decl_synth((), gamma, body)
            if alg is None:
                assert got == (), name
            else:
                assert any(decl_iso((), alg, n, typing_universe(gamma, body))
                           for n in got), name


class TestLazyUniverse:
    """A search builds its default universe at the first candidate a rule
    asks for, and filters it once per scope; every outcome is that of the
    eager reference in `references.py`."""

    @pytest.fixture
    def logged(self, monkeypatch):
        """The candidate lists handed out, with their scope, in order."""
        log = []
        candidates = oracle._Search.candidates

        def logging(search, theta, extra=()):
            out = candidates(search, theta, extra)
            log.append((theta, tuple(out)))
            return out

        monkeypatch.setattr(oracle._Search, "candidates", logging)
        return log

    @pytest.fixture
    def universes(self, monkeypatch):
        """The universes built, by their types."""
        built = []
        build = oracle.candidate_universe

        def counted(types, theta=()):
            built.append(tuple(types))
            return build(types, theta)

        monkeypatch.setattr(oracle, "candidate_universe", counted)
        return built

    def test_outcomes_match_the_eager_reference(self, logged):
        def outcome(call, *args):
            """The verdict or the budget message, and the candidates."""
            log = []
            try:
                res = call(log, *args)
            except OracleBudgetExceeded as e:
                res = f"budget: {e}"
            return shown(res), [(theta, shown(c)) for theta, c in log]

        def lazy(decl):
            def call(log, *args):
                logged.clear()
                try:
                    return decl(*args)
                finally:
                    log.extend(logged)
            return call

        def same(decl, ref, *args):
            got, want = outcome(lazy(decl), *args), outcome(ref, *args)
            assert got == want, args
            budget = isinstance(got[0], str)
            kinds.append("budget" if budget else "searched" if got[1] else "none")

        kinds = []
        rng = random.Random(2201)
        for _ in range(120):  # criterion 4, ground and holed pairs
            polarity = rng.choice("+-")
            a, b = gen_related_pair(rng, polarity)
            same(decl_subtype, ref_decl_subtype, (), a, b)
            same(decl_subtype, ref_decl_subtype, (), b, b)
        programs = [gen_program(rng) for _ in range(30)]  # criterion 4, programs
        for src in TWO_LET_PROGRAMS:  # one scope, two candidate lists
            prog = parse_program(src)
            programs.append((TypeEnv(prog.assumptions), prog.body))
        for gamma, body in programs:
            same(decl_synth, ref_decl_synth, (), gamma, body)
            results = decl_synth((), gamma, body)
            for n in results[:2]:
                same(decl_iso, ref_decl_iso, (), results[0], n,
                     typing_universe(gamma, body))
        for _ in range(40):  # criterion 5, instantiation chains and stability
            c = gen_type(rng, "-", quants=3)
            b = instantiate_prenex(rng, c)
            a = instantiate_prenex(rng, b)
            assert candidate_universe([a, b, c]) == ref_candidate_universe([a, b, c])
            same(decl_subtype, ref_decl_subtype, (), c, a, candidate_universe([a, b, c]))
            a = gen_type(rng, "-", uvars=("c",))
            same(decl_subtype, ref_decl_subtype, ("c",), a, permute_prenex(rng, a))
        for name, var, swapped in ISO_ENV_CASES:  # criterion 6
            original = dict(parse_program(by_name(name).source).assumptions)[var]
            same(decl_iso, ref_decl_iso, (), original, T(swapped, "+"))
        for _ in range(40):  # about the cap: arrows of 6 to 30 positive types
            a, b = wide(rng), wide(rng)
            same(decl_subtype, ref_decl_subtype, (), a, b)
            same(decl_subtype, ref_decl_subtype, (), a, a)
        assert min(kinds.count(k) for k in ("budget", "searched", "none")) >= 10, \
            {k: kinds.count(k) for k in set(kinds)}

    def test_a_quantifier_free_pair_builds_no_universe(self, universes):
        t = T("dn (List Int -> Bool -> up (Int * dn (up Bool)))", "+")
        assert decl_subtype((), t, t) and decl_iso((), t, t)
        assert not decl_subtype((), t, Data("Int", ()))
        assert universes == []
        assert decl_subtype((), T("forall a. a -> up a", "-"), T("Int -> up Int", "-"))
        assert len(universes) == 1

    def test_a_universe_past_the_cap_is_loud_without_forall_left(self, universes):
        t = Data("Int", ())
        for _ in range(UNIVERSE_CAP):
            t = Data("List", (t,))
        assert len(candidate_universe([t])) == UNIVERSE_CAP + 1
        with pytest.raises(OracleBudgetExceeded):
            decl_subtype((), t, t)
        with pytest.raises(OracleBudgetExceeded):
            decl_synth((), TypeEnv((("x", t),)), Return(Var("x")))
        assert len(universes) == 2


# generated programs whose second let asks for candidates in the scope of
# the first but with more extra ones
TWO_LET_PROGRAMS = (
    "val id : dn (forall a. a -> up a)\nval nil : dn (forall a. up (List a))\n"
    "val pair_up : dn (forall a b. a -> b -> up (a * b))\n"
    "run let t6 = pair_up(id, {return 0}); let t7 = nil((5, 6)); return {return t7}",
    "val single : dn (forall a. a -> up (List a))\nval pick : dn (forall a. a -> Int -> up a)\n"
    "run let t3 = single((3, single)); let t4 : List Bool = single(); return t4",
)


def wide(rng):
    """`p1 -> .. -> pk -> up p` for random positive types."""
    n = Up(gen_type(rng, "+", depth=5))
    for _ in range(rng.randint(6, 30)):
        n = Arrow(gen_type(rng, "+", depth=5), n)
    return n


def shown(x):
    """`x` with every type printed, so binder names are compared too."""
    if isinstance(x, (tuple, list)):
        return tuple(shown(y) for y in x)
    return pretty(x) if isinstance(x, (PosType, NegType)) else x
