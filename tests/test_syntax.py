"""Core syntax operations: free variables, substitution, contexts, metrics."""

import copy
import pickle
import random
import re

import pytest

from polarf import (
    Arrow, BVar, Context, Data, DataDecl, Down, EVar, Forall, IntLit, Lambda, Let,
    LetAnn, NegData, PairVal, Return, Solved, Thunk, TypeAbs, TypeCheckError, TypeEnv,
    UVar, Universal, Unsolved, Up, Var, apply_context, extends, free_uvars,
    num_prenex, parse_type, pretty, restrict_context, subst_type, synth_computation,
    synth_value,
)
from polarf.errors import InvariantViolation
from polarf.wellformed import wf_extension

from gen import gen_related_pair, gen_type, holeify
from references import ref_free_evars, ref_free_uvars, ref_nodes

T = parse_type

ID_TYPE = T("dn (forall a. a -> up a)", "+")


INT, UP_INT = Data("Int"), Up(Data("Int"))

# each composite constructor (its class name, and a builder given the child
# under test) with the polarity the grammar gives that child
CONSTRUCTORS = [
    pytest.param("Down", Down, "-", id="Down"),
    pytest.param("Data", lambda c: Data("Pair", (INT, c)), "+", id="Data"),
    pytest.param("Arrow", lambda c: Arrow(c, UP_INT), "+", id="Arrow-domain"),
    pytest.param("Arrow", lambda c: Arrow(INT, c), "-", id="Arrow-codomain"),
    pytest.param("Forall", lambda c: Forall("a", c), "-", id="Forall"),
    pytest.param("Forall", lambda c: Forall.bind("a", c), "-", id="Forall.bind"),
    pytest.param("Up", Up, "+", id="Up"),
    pytest.param("NegData", lambda c: NegData("ST", (UVar("a"), c)), "+", id="NegData"),
]


@pytest.mark.parametrize("name,build,polarity", CONSTRUCTORS)
class TestWellKinded:
    """A constructor takes only children of the polarity the grammar gives
    them: a child of the other polarity, or one that is not a type, raises
    TypeError naming the constructor."""

    def test_child_of_the_wrong_polarity_is_refused(self, name, build, polarity):
        good = INT if polarity == "+" else UP_INT
        assert build(good).polarity in ("+", "-")
        wrong = [c for c in (INT, UP_INT, BVar(0), EVar("?x"), Down(UP_INT),
                             Forall("b", UP_INT), NegData("ST", ()))
                 if c.polarity != polarity]
        assert len(wrong) >= 2
        for child in wrong:
            with pytest.raises(TypeError, match=f"^{name} takes a "):
                build(child)

    def test_child_that_is_not_a_type_is_refused(self, name, build, polarity):
        # a `DataDecl` has a `polarity` field, but it is not a type
        for child in (None, 3, "a", (INT,), Universal("a"), DataDecl("Int", polarity, 0)):
            with pytest.raises(TypeError, match=f"^{name} takes a "):
                build(child)


ONE, RET = IntLit(1), Return(IntLit(1))

# each term constructor (its class name, and a builder given the child under
# test) with the sort it takes there
TERM_CONSTRUCTORS = [
    pytest.param("Thunk", Thunk, "Computation", id="Thunk"),
    pytest.param("PairVal", lambda c: PairVal(c, ONE), "Value", id="PairVal-first"),
    pytest.param("PairVal", lambda c: PairVal(ONE, c), "Value", id="PairVal-second"),
    pytest.param("Lambda", lambda c: Lambda("x", c, RET), "Type", id="Lambda-annotation"),
    pytest.param("Lambda", lambda c: Lambda("x", INT, c), "Computation", id="Lambda-body"),
    pytest.param("TypeAbs", lambda c: TypeAbs("a", c), "Computation", id="TypeAbs"),
    pytest.param("Return", Return, "Value", id="Return"),
    pytest.param("Let", lambda c: Let("x", c, (), RET), "Value", id="Let-head"),
    pytest.param("Let", lambda c: Let("x", Var("f"), (ONE, c), RET), "Value", id="Let-arg"),
    pytest.param("Let", lambda c: Let("x", Var("f"), (), c), "Computation", id="Let-cont"),
    pytest.param("LetAnn", lambda c: LetAnn("x", c, Var("f"), (), RET), "Type",
                 id="LetAnn-annotation"),
    pytest.param("LetAnn", lambda c: LetAnn("x", INT, c, (), RET), "Value", id="LetAnn-head"),
    pytest.param("LetAnn", lambda c: LetAnn("x", INT, Var("f"), (c,), RET), "Value",
                 id="LetAnn-arg"),
    pytest.param("LetAnn", lambda c: LetAnn("x", INT, Var("f"), (), c), "Computation",
                 id="LetAnn-cont"),
]

SORTED_CHILDREN = {"Value": (ONE, Var("x"), Thunk(RET)),
                   "Computation": (RET, TypeAbs("a", RET), Let("y", Var("f"), (), RET)),
                   "Type": (INT, UP_INT, UVar("a"))}


@pytest.mark.parametrize("name,build,sort", TERM_CONSTRUCTORS)
class TestTermSorts:
    """A term constructor takes only children of the sort it names: a value,
    a computation or, for an annotation, a type of either polarity.  Any
    other child raises TypeError naming the constructor."""

    def test_children_of_the_sort_are_taken(self, name, build, sort):
        for child in SORTED_CHILDREN[sort]:
            assert type(build(child)).__name__ == name

    def test_children_of_another_sort_are_refused(self, name, build, sort):
        wrong = [c for other, kids in SORTED_CHILDREN.items() if other != sort for c in kids]
        for child in wrong + [None, 3, "x", (ONE,), Universal("a")]:
            with pytest.raises(TypeError, match=f"^{name} takes a {sort}, not "):
                build(child)


class TestTermSortProbes:
    def test_ill_sorted_terms_are_refused_where_built(self):
        with pytest.raises(TypeError, match="^Thunk takes a Computation, not Var$"):
            synth_value(Context(), TypeEnv(), Thunk(Var("x")))
        with pytest.raises(TypeError, match="^Return takes a Value, not Return$"):
            Return(Return(IntLit(1)))
        with pytest.raises(TypeError, match="^PairVal takes a Value, not Return$"):
            PairVal(Return(IntLit(1)), IntLit(2))

    def test_a_negative_annotation_is_built_and_left_to_the_typer(self):
        term = Lambda("x", UP_INT, Return(Var("x")))
        with pytest.raises(TypeCheckError) as e:
            synth_computation(Context(), TypeEnv(), term)
        assert e.value.kind == "unbound-variable"

    def test_sizes_count_the_checked_children(self):
        body = Let("y", Var("f"), (ONE, PairVal(ONE, Var("x"))), Return(Var("y")))
        assert body.size == 1 + 1 + 1 + 3 + 2
        assert Lambda("x", INT, body).size == Thunk(body).size == TypeAbs("a", body).size == 9
        assert LetAnn("z", INT, Var("g"), (Thunk(body),), RET).size == 1 + 1 + 9 + 2


class TestFreeVars:
    def test_ground_type_has_no_evars(self):
        assert ID_TYPE.evars == set()

    def test_evars_by_definition(self):
        t = Arrow(EVar("?a"), Up(EVar("?b")))
        assert t.evars == {"?a", "?b"}

    def test_evars_under_constructor(self):
        t = Data("List", (EVar("?a"),))
        assert t.evars == {"?a"}
        assert t.evars == ref_free_evars(t, True)

    def test_evars_match_structural_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            t = gen_type(rng, rng.choice("+-"))
            holed, _, _ = holeify(rng, t)
            assert holed.evars == ref_free_evars(holed, True)

    def test_context_evars(self):
        theta = Context((Universal("a"), Unsolved("?x"),
                         Solved("?y", Data("Int", ()))))
        assert theta.evar_names == {"?x", "?y"}

    def test_closed_forall(self):
        assert free_uvars(T("forall a. a -> up a", "-")) == set()

    def test_open_arrow(self):
        assert free_uvars(T("a -> up b", "-")) == {"a", "b"}

    def test_binder_respected(self):
        assert free_uvars(Forall("a", Arrow(UVar("b"), Up(UVar("a"))))) == {"b"}

    def test_uvars_match_structural_oracle(self):
        rng = random.Random(8)
        for _ in range(200):
            t = gen_type(rng, rng.choice("+-"))
            assert free_uvars(t) == ref_free_uvars(t, True)


class TestSubstitution:
    def test_simple(self):
        got = subst_type(Data("Int", ()), "a", T("a -> up a", "-"))
        assert got == T("Int -> up Int", "-")

    def test_shadowed_binder_untouched(self):
        target = T("forall a. a -> up a", "-")
        assert subst_type(EVar("?x"), "a", target) == target

    def test_impredicative_list_instantiation(self):
        got = subst_type(ID_TYPE, "a", T("up (List a)", "-"))
        assert got == T("up (List (dn (forall b. b -> up b)))", "-")

    def test_capture_avoided(self):
        # substituting a type mentioning b under a binder named b
        target = Forall("b", Up(UVar("a")))
        got = subst_type(Down(Forall("c", Up(UVar("b")))), "a", target)
        assert isinstance(got, Forall) and got.binder != "b"
        assert free_uvars(got) == {"b"}

    def test_binders_keep_their_names(self):
        got = subst_type(UVar("b"), "x", T("forall a b. a -> up b", "-"))
        assert pretty(got) == "forall a b. a -> up b"

    def test_captured_hint_is_renamed_in_print(self):
        got = subst_type(UVar("a"), "b", T("forall a. b -> up a", "-"))
        assert got == Forall("c", Arrow(UVar("a"), Up(UVar("c"))))
        assert T(pretty(got), "-") == got
        # an inner binder of the same hint would capture the outer one
        outer = Forall.bind("a", Forall.bind("a", Arrow(BVar(1), Up(BVar(0)))))
        assert outer == T("forall a b. a -> up b", "-")
        assert T(pretty(outer), "-") == outer
        assert outer.body.binder != outer.binder

    def test_named_view_of_a_hint_free_in_the_scope(self):
        t = Forall.bind("a", Arrow(UVar("a"), Up(BVar(0))))
        assert (t.binder, t.body) == ("a1", Arrow(UVar("a"), Up(UVar("a1"))))
        rng = random.Random(9)
        for _ in range(100):
            for q, _ in ref_nodes(gen_type(rng, "-", uvars=("a", "b")), True):
                for hint in q.scope.uvars if type(q) is Forall else ():
                    t = Forall.bind(hint, q.scope)
                    assert Forall(t.binder, t.body) == t and t.binder not in t.scope.uvars

    def test_alpha_equivalence_of_renamed_binders(self):
        assert T("forall a. a -> up a", "-") == T("forall b. b -> up b", "-")
        assert T("forall a b. a -> up b", "-") == T("forall b a. b -> up a", "-")
        assert T("forall a b. a -> up b", "-") != T("forall a b. b -> up a", "-")


class TestApplyContext:
    def test_empty_context_is_identity(self):
        n = T("forall a. a -> up a", "-")
        assert apply_context(Context(), n) == n

    def test_single_solution(self):
        theta = Context((Solved("?a", Data("Int", ())),))
        got = apply_context(theta, Arrow(EVar("?a"), Up(EVar("?a"))))
        assert got == T("Int -> up Int", "-")

    def test_unsolved_evar_left_alone(self):
        theta = Context((Unsolved("?a"),))
        assert apply_context(theta, EVar("?a")) == EVar("?a")

    def test_idempotent_on_ground_solutions(self):
        rng = random.Random(9)
        for _ in range(100):
            t = gen_type(rng, rng.choice("+-"))
            holed, theta, solutions = holeify(rng, t)
            solved = Context(tuple(Solved(n, solutions[n]) for n in sorted(solutions)))
            once = apply_context(solved, holed)
            assert apply_context(solved, once) == once
            assert once == t


class TestRestrictErase:
    def test_keeps_solution_for_known_evar(self):
        big = Context((Universal("a"), Solved("?x", Data("Int", ()))))
        small = Context((Universal("a"), Unsolved("?x")))
        assert restrict_context(big, small) == big

    def test_drops_new_evar(self):
        big = Context((Universal("a"), Solved("?x", Data("Int", ())),
                       Unsolved("?y")))
        small = Context((Universal("a"), Unsolved("?x")))
        got = restrict_context(big, small)
        assert got == Context((Universal("a"), Solved("?x", Data("Int", ()))))

    def test_empty(self):
        assert restrict_context(Context(), Context()) == Context()

    def test_misaligned_universals_raise(self):
        with pytest.raises(InvariantViolation):
            restrict_context(Context((Universal("a"),)),
                             Context((Universal("b"),)))

    def test_changed_solution_raises(self):
        small = Context((Universal("a"), Solved("?x", Data("Int", ()))))
        big = Context((Universal("a"), Solved("?x", Data("Bool", ())),
                       Unsolved("?y")))
        with pytest.raises(InvariantViolation):
            restrict_context(big, small)

    def test_pop_checks_the_last_entry(self):
        outer = Context((Universal("a"),))
        theta = outer.push(Unsolved("?x"))
        assert theta.pop(outer, ("?x",)) is outer
        assert theta.pop(outer, ("?x",)).pop(Context(), ("a",), universal=True) == Context()
        for names, universal in ((("?x",), True), (("a",), True), (("a",), False),
                                 (("?y",), False)):
            with pytest.raises(InvariantViolation, match=re.escape(names[-1])):
                theta.pop(outer, names, universal)
        with pytest.raises(InvariantViolation, match="universal a"):
            Context().pop(Context(), ("a",), universal=True)

    def test_pop_names_the_entry_it_expected(self):
        """A wrong name, a wrong kind and a length that does not match
        `outer` each raise, naming the last entry expected."""
        outer = Context((Universal("a"),))
        theta = outer.push(Unsolved("?x"), Unsolved("?y"))
        cases = (
            (outer, ("?x", "?z"), False, "existential ?z"),  # a wrong name
            (outer, ("?y", "?x"), False, "existential ?x"),  # the right names, out of order
            (outer, ("?x", "?y"), True, "universal ?y"),  # a wrong kind
            (outer, ("?y",), False, "existential ?y"),  # the last entry only
            (Context(), ("?x", "?y"), False, "existential ?y"),  # outer too short
            (theta, ("?y",), False, "existential ?y"),  # outer too long
        )
        for base, names, universal, shown in cases:
            with pytest.raises(InvariantViolation, match=re.escape(shown)):
                theta.pop(base, names, universal)
        assert theta.pop(outer, ("?x", "?y")) is outer

    def test_pop_and_restriction_return_the_outer_context(self):
        """`pop` and `restrict_context` hand `outer` back as it is when
        none of its entries changed, and an equal new context when one of
        them was solved."""
        int_ = Data("Int", ())
        outer = Context((Universal("a"), Unsolved("?x")))
        pushed = outer.push(Unsolved("?y"))
        solved_inside = pushed.solve("?y", int_)
        assert solved_inside.pop(outer, ("?y",)) is outer
        assert restrict_context(solved_inside, outer) is outer
        assert pushed.cut(outer) is outer and outer.cut(outer) is outer
        solved_outer = pushed.solve("?x", int_)
        want = Context((Universal("a"), Solved("?x", int_)))
        for got in (solved_outer.pop(outer, ("?y",)), restrict_context(solved_outer, outer),
                    solved_outer.cut(outer)):
            assert got == want and got is not outer
            assert got.solutions == {"?x": int_} and got.positions == want.positions

    def test_restriction_never_leaks(self):
        rng = random.Random(10)
        for _ in range(100):
            t = gen_type(rng, "+")
            _, theta, solutions = holeify(rng, t)
            grown = Context(theta.entries + (Unsolved("?new"),))
            for name, sol in solutions.items():
                grown = grown.solve(name, sol)
            got = restrict_context(grown, theta)
            assert got.evar_names.union(*(p.evars for p in got.solutions.values())) \
                <= theta.evar_names

    def test_erase(self):
        theta = Context((Universal("a"), Solved("?x", Data("Int", ())),
                         Universal("b")))
        assert theta.erased == ("a", "b")
        assert Context().erased == ()
        assert Context((Unsolved("?a"), Unsolved("?b"))).erased == ()

    def test_push_names_the_duplicate(self):
        theta = Context((Universal("a"), Unsolved("?x")))
        for entries, name in (((Unsolved("?x"),), "?x"),
                              ((Unsolved("?y"), Universal("b"), Unsolved("?y")), "?y")):
            with pytest.raises(InvariantViolation, match=re.escape(f"entry {name}")):
                theta.push(*entries)

    def test_copies_rebuild_from_the_entries(self):
        """`copy`, `deepcopy` and `pickle` give an equal context with the
        facts of its entries, and a context has slots, not a `__dict__`."""
        int_ = Data("Int", ())
        theta = (Context((Universal("a"), Unsolved("?x"))).solve("?x", int_)
                 .push(Unsolved("?y"), Universal("b")).solve("?y", int_))
        assert not hasattr(theta, "__dict__")
        shown = ("Context(entries=(Universal(name='a'), Solved(name='?x', solution=Data("
                 "constructor='Int', args=())), Solved(name='?y', solution=Data("
                 "constructor='Int', args=())), Universal(name='b')))")
        for copied in (copy.copy(theta), copy.deepcopy(theta),
                       pickle.loads(pickle.dumps(theta))):
            assert type(copied) is Context and copied == theta and copied is not theta
            assert hash(copied) == hash(theta) and repr(copied) == repr(theta) == shown
            for fact in ("positions", "uvar_names", "evar_names", "solutions", "erased"):
                assert getattr(copied, fact) == getattr(theta, fact), fact
        assert theta.erased == ("a", "b") and theta.solutions == {"?x": int_, "?y": int_}


class TestExtension:
    def test_solving_extends(self):
        assert extends(Context((Unsolved("?a"),)),
                       Context((Solved("?a", Data("Int", ())),)))

    def test_incompatible_solutions_do_not_extend(self):
        assert not extends(Context((Solved("?a", Data("Int", ())),)),
                           Context((Solved("?a", Data("Bool", ())),)))

    def test_reflexive(self):
        theta = Context((Universal("a"), Unsolved("?x"),
                         Solved("?y", Data("Int", ()))))
        assert extends(theta, theta)
        assert wf_extension(theta, theta, weak=True)

    def test_weak_allows_new_evars(self):
        base = Context((Universal("a"),))
        assert wf_extension(base, Context((Universal("a"), Unsolved("?b"))), weak=True)
        assert wf_extension(base, Context((Universal("a"),
                                           Solved("?b", Data("Int", ())))), weak=True)
        assert not extends(base, Context((Universal("a"), Unsolved("?b"))))

    def test_weak_rejects_new_existential_between_old_entries(self):
        base = Context((Universal("a"), Unsolved("?x")))
        assert wf_extension(base, Context((Universal("a"), Unsolved("?x"),
                                           Unsolved("?new"))), weak=True)
        assert not wf_extension(base, Context((Universal("a"), Unsolved("?new"),
                                               Unsolved("?x"))), weak=True)
        assert not wf_extension(base, Context((Unsolved("?new"), Universal("a"),
                                               Unsolved("?x"))), weak=True)
        # what is pushed on the end must be an existential with a new name
        assert not wf_extension(base, Context((Universal("a"), Unsolved("?x"),
                                               Universal("b"))), weak=True)
        assert not wf_extension(base, Context((Universal("a"), Unsolved("?x"),
                                               Unsolved("a"))), weak=True)

    def test_order_is_significant(self):
        ab = Context((Universal("a"), Universal("b")))
        ba = Context((Universal("b"), Universal("a")))
        assert not wf_extension(ab, ba, weak=True)

    def test_strong_implies_weak_and_transitivity(self):
        rng = random.Random(11)
        for _ in range(100):
            t = gen_type(rng, "+")
            holed, theta, solutions = holeify(rng, t)
            mid = theta
            names = sorted(solutions)
            for name in names[: len(names) // 2 + 1]:
                mid = mid.solve(name, solutions[name])
            full = mid
            for name in names[len(names) // 2 + 1:]:
                full = full.solve(name, solutions[name])
            assert extends(theta, mid) and extends(mid, full)
            assert extends(theta, full)  # transitivity
            assert wf_extension(theta, mid, weak=True)  # strong rules are a subset
            grown = Context(full.entries + (Unsolved("?extra"),))
            assert wf_extension(theta, grown, weak=True)
            assert wf_extension(mid, grown, weak=True)  # weak transitivity
            assert theta.erased == full.erased


class TestMetrics:
    @pytest.mark.parametrize("src,polarity,size", [
        ("a", "+", 1),
        ("forall a. a -> up a", "-", 4),
        ("dn (forall a. up a)", "+", 3),
        ("Int -> up Int", "-", 4),
        ("List (dn (forall a. a -> up a))", "+", 6),
    ])
    def test_termsize(self, src, polarity, size):
        assert T(src, polarity).size == size

    @pytest.mark.parametrize("src,polarity,count", [
        ("forall a b. a -> up b", "-", 2),
        ("a -> up b", "-", 0),
        ("dn (forall a. up a)", "+", 0),
        ("up (dn (forall a. up a))", "-", 0),
    ])
    def test_num_prenex(self, src, polarity, count):
        assert num_prenex(T(src, polarity)) == count

    def test_alpha_invariance(self):
        rng = random.Random(12)
        for _ in range(200):
            a, b = gen_related_pair(rng, "-")
            if a == b:
                assert a.size == b.size
                assert num_prenex(a) == num_prenex(b)
        one = T("forall a. a -> up a", "-")
        two = T("forall z. z -> up z", "-")
        assert one.size == two.size
        assert num_prenex(one) == num_prenex(two)
