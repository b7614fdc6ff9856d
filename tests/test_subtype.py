"""Algorithmic subtyping: rule behavior, invariant shifts, impredicativity."""

import random

import pytest

from polarf import (
    Context, Data, EVar, Solved, TypeCheckError, UVar, Universal,
    Unsolved, Up, apply_context, decl_subtype, extends, is_ground,
    isomorphic, parse_type, subtype_neg, subtype_pos, wf_context,
)

from gen import gen_related_pair, gen_type, holeify

T = parse_type
ID_TYPE = T("dn (forall a. a -> up a)", "+")


def accepts_neg(a, b, theta=Context()):
    try:
        return subtype_neg(theta, a, b)
    except TypeCheckError:
        return None


class TestPositive:
    def test_variable_reflexivity(self):
        theta = Context((Universal("a"),))
        res = subtype_pos(theta, UVar("a"), UVar("a"))
        assert res.context == theta

    def test_distinct_variables_fail(self):
        theta = Context((Universal("a"), Universal("b")))
        with pytest.raises(TypeCheckError):
            subtype_pos(theta, UVar("a"), UVar("b"))

    def test_instantiation_solves(self):
        theta = Context((Unsolved("?a"),))
        res = subtype_pos(theta, ID_TYPE, EVar("?a"))
        assert res.context == Context((Solved("?a", ID_TYPE),))

    def test_instantiation_scope_check(self):
        # a solution may not mention universals bound after the existential
        theta = Context((Unsolved("?a"), Universal("b")))
        with pytest.raises(TypeCheckError):
            subtype_pos(theta, Data("List", (UVar("b"),)), EVar("?a"))

    def test_invariant_shift_rejects_one_sided_generalization(self):
        with pytest.raises(TypeCheckError):
            subtype_pos(Context(), T("dn (Int -> up Int)", "+"), ID_TYPE)
        with pytest.raises(TypeCheckError):
            subtype_pos(Context(), ID_TYPE, T("dn (Int -> up Int)", "+"))

    def test_constructor_arguments_are_invariant(self):
        poly_list = T("List (dn (forall a. a -> up a))", "+")
        mono_list = T("List (dn (Int -> up Int))", "+")
        with pytest.raises(TypeCheckError):
            subtype_pos(Context(), poly_list, mono_list)
        with pytest.raises(TypeCheckError):
            subtype_pos(Context(), mono_list, poly_list)
        assert subtype_pos(Context(), poly_list, poly_list)


class TestNegative:
    def test_quantifier_swap_both_directions(self):
        a = T("forall a b. dn (a -> up b) -> List a -> up (List b)", "-")
        b = T("forall b a. dn (a -> up b) -> List a -> up (List b)", "-")
        assert accepts_neg(a, b) and accepts_neg(b, a)

    def test_quantifier_pushing(self):
        a = T("forall a. a -> forall b. b -> up (a * b)", "-")
        b = T("forall a b. a -> b -> up (a * b)", "-")
        assert accepts_neg(a, b)

    def test_impredicative_list_element(self):
        a = T("forall a. up (List a)", "-")
        b = T("up (List (dn (forall b. b -> up b)))", "-")
        assert accepts_neg(a, b)

    def test_zip_display_fails_both_directions(self):
        mono = T("dn (Int -> String -> up (Int * String)) -> "
                 "List Int -> List String -> up (List (Int * String))", "-")
        poly = T("dn (forall a b. a -> b -> up (a * b)) -> "
                 "List Int -> List String -> up (List (Int * String))", "-")
        assert accepts_neg(mono, poly) is None
        assert accepts_neg(poly, mono) is None

    def test_plain_instantiation(self):
        assert accepts_neg(T("forall a. a -> up a", "-"),
                           T("Int -> up Int", "-"))
        assert accepts_neg(T("Int -> up Int", "-"),
                           T("forall a. a -> up a", "-")) is None

    def test_forall_right_universal_is_fresh_for_the_context(self):
        # the bound `a` on the right is not the universal `a` in scope
        theta = Context((Universal("a"),))
        n, m = T("a -> up a", "-"), T("forall a. a -> up a", "-")
        assert accepts_neg(n, m, theta) is None
        assert not decl_subtype(("a",), n, m)
        assert accepts_neg(m, m, theta) and decl_subtype(("a",), m, m)

    def test_forall_left_keeps_unused_existential_out_of_output(self):
        res = accepts_neg(T("forall a. up Int", "-"), T("up Int", "-"))
        assert res is not None and res.context == Context()

    def test_negdata_invariance(self):
        st_int = T("ST Int Int", "-")
        assert accepts_neg(st_int, st_int)
        assert accepts_neg(T("ST Int Bool", "-"), st_int) is None
        assert accepts_neg(T("forall a. ST a Int", "-"), st_int)


class TestIsomorphic:
    def test_map_types_of_the_two_binder_orders(self):
        p = T("forall a b. dn (a -> up b) -> List a -> up (List b)", "-")
        q = T("forall b a. dn (a -> up b) -> List a -> up (List b)", "-")
        assert isomorphic(Context(), p, q)

    def test_base_type(self):
        assert isomorphic(Context(), Data("Int", ()), Data("Int", ()))

    def test_instantiation_is_not_isomorphism(self):
        assert not isomorphic(Context(), T("forall a. a -> up a", "-"),
                              T("Int -> up Int", "-"))

    def test_mixed_polarity(self):
        assert not isomorphic(Context(), Data("Int", ()), T("up Int", "-"))


class TestResultShape:
    def test_trace_is_deterministic(self):
        theta = Context((Unsolved("?x"),))
        a = T("dn (forall a. a -> up a)", "+")
        r1 = subtype_pos(theta, a, EVar("?x"))
        r2 = subtype_pos(theta, a, EVar("?x"))
        assert r1 == r2
        assert r1.trace and r1.trace == r2.trace

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError):
            subtype_pos(Context(), EVar("?a"), Data("Int", ()))  # left not ground
        theta = Context((Solved("?a", Data("Int", ())),))
        with pytest.raises(ValueError):
            subtype_pos(theta, Data("Int", ()), EVar("?a"))  # q already solved
        with pytest.raises(ValueError):
            subtype_neg(Context(), T("up Int", "-"), Up(EVar("?a")))  # m not ground

    def test_postconditions_on_random_holed_instances(self):
        rng = random.Random(21)
        solved = failed = 0
        for _ in range(300):
            polarity = rng.choice("+-")
            t = gen_type(rng, polarity)
            holed, theta, _ = holeify(rng, t)
            try:
                if polarity == "+":
                    res = subtype_pos(theta, t, holed)
                    completed = apply_context(res.context, holed)
                    assert completed.size <= t.size
                else:
                    res = subtype_neg(theta, holed, t)
                    completed = apply_context(res.context, holed)
                    assert completed.size <= t.size
            except TypeCheckError:
                failed += 1
                continue
            solved += 1
            assert wf_context(res.context)
            assert extends(theta, res.context)
            assert is_ground(completed)
            assert [e.name for e in res.context] == [e.name for e in theta]
        # a self-against-holed-self check usually succeeds
        assert solved > failed


class TestAgainstOracle:
    def test_ground_agreement_sample(self):
        from polarf import decl_subtype
        rng = random.Random(22)
        agree = 0
        for _ in range(300):
            polarity = rng.choice("+-")
            a, b = gen_related_pair(rng, polarity)
            alg = None
            try:
                if polarity == "+":
                    subtype_pos(Context(), a, b)
                else:
                    subtype_neg(Context(), a, b)
                alg = True
            except TypeCheckError:
                alg = False
            assert decl_subtype((), a, b) == alg
            agree += 1
        assert agree == 300
