"""Concrete syntax: parsing, polarity enforcement, pretty round-trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from polarf import (
    Arrow, Data, Down, Forall, Let, LetAnn, TypeCheckError, UVar, Up,
    parse_program, parse_type, pretty,
)
from polarf.corpus import EXAMPLES, STRIPPED

from gen import gen_comp, gen_env, gen_type


class TestParseType:
    def test_head_type_from_examples(self):
        t = parse_type("dn (forall a. List a -> up a)", "+")
        assert t == Down(Forall("a", Arrow(Data("List", (UVar("a"),)),
                                           Up(UVar("a")))))

    def test_bare_variable_is_positive(self):
        assert parse_type("a", "+") == UVar("a")

    def test_arrow_domain_must_be_positive(self):
        with pytest.raises(TypeCheckError) as e:
            parse_type("up Int -> up Int")
        assert e.value.kind == "parse"
        assert "positive" in e.value.message

    def test_polarity_mismatch_reported(self):
        with pytest.raises(TypeCheckError):
            parse_type("up Int", "+")
        with pytest.raises(TypeCheckError):
            parse_type("a", "-")

    def test_product_sugar(self):
        assert parse_type("Int * Bool", "+") == Data("Pair", (Data("Int", ()),
                                                              Data("Bool", ())))
        # right associative
        assert parse_type("a * b * c", "+") == \
            Data("Pair", (UVar("a"), Data("Pair", (UVar("b"), UVar("c")))))

    def test_multi_binder_forall(self):
        assert parse_type("forall a b. a -> up b", "-") == \
            parse_type("forall a. forall b. a -> up b", "-")

    def test_negative_constructor(self):
        t = parse_type("forall b. ST b a", "-")
        assert isinstance(t, Forall)

    def test_constructor_arity_enforced(self):
        with pytest.raises(TypeCheckError):
            parse_type("List", "+")
        with pytest.raises(TypeCheckError):
            parse_type("List Int Bool", "+")

    def test_unknown_constructor(self):
        with pytest.raises(TypeCheckError):
            parse_type("Maybe Int", "+")

    def test_comments_and_whitespace(self):
        assert parse_type("Int -- trailing note\n", "+") == Data("Int", ())


class TestParseProgram:
    def test_assumption_plus_let(self):
        prog = parse_program(
            "val id : dn (forall a. a -> up a)\n"
            "run let t = id(id); return t")
        assert len(prog.assumptions) == 1
        assert isinstance(prog.body, Let)
        assert prog.body.args == (prog.body.head,)

    def test_unbound_term_variables_parse(self):
        # binding errors belong to the typechecker, not the parser
        prog = parse_program("run return x")
        assert prog.body is not None

    def test_thunk_body_must_be_computation(self):
        with pytest.raises(TypeCheckError) as e:
            parse_program("run {return}")
        assert e.value.kind == "parse"

    def test_assumptions_must_be_closed(self):
        with pytest.raises(TypeCheckError) as e:
            parse_program("val x : List a\nrun return x")
        assert "closed" in e.value.message

    def test_assumption_scope_follows_binders(self):
        with pytest.raises(TypeCheckError) as e:
            parse_program("val f : dn (forall a. a -> up (c * a)) * "
                          "dn (forall b. up (List b)) * b\nrun return f")
        assert e.value.message == "assumption type must be closed (unbound: b, c)"
        assert (e.value.span.start, e.value.span.end) == (8, 10)
        prog = parse_program("val f : dn (forall a. (dn (forall a. up a)) -> up a)\n"
                             "run return f")
        assert len(prog.assumptions) == 1

    def test_duplicate_assumption(self):
        with pytest.raises(TypeCheckError):
            parse_program("val x : Int\nval x : Bool\nrun return x")

    def test_data_declarations_extend_the_table(self):
        prog = parse_program(
            "data Box pos 1\n"
            "val x : Box Int\n"
            "run return x")
        assert prog.datatypes[0].name == "Box"
        assert prog.assumptions[0][1] == Data("Box", (Data("Int", ()),))

    def test_data_redeclaration_rejected(self):
        with pytest.raises(TypeCheckError):
            parse_program("data List pos 1\nrun return x")

    def test_annotated_let(self):
        prog = parse_program(
            "val nil : dn (forall a. up (List a))\n"
            "run let n : List Int = nil(); return n")
        assert isinstance(prog.body, LetAnn)

    def test_parse_error_carries_span(self):
        with pytest.raises(TypeCheckError) as e:
            parse_program("run let = x(); return x")
        assert e.value.span is not None

    def test_whole_corpus_parses(self):
        for ex in EXAMPLES + STRIPPED:
            prog = parse_program(ex.source, ex.name)
            assert prog.body is not None


class TestPretty:
    def test_spec_strings(self):
        t = Down(Forall("a", Arrow(UVar("a"), Up(UVar("a")))))
        assert pretty(t) == "dn (forall a. a -> up a)"
        assert pretty(UVar("a")) == "a"
        assert pretty(Up(t)) == "up (dn (forall a. a -> up a))"

    def test_nested_let_round_trip(self):
        src = ("let f = {return {/\\a. \\y : Int. return {\\x : a. "
               "let z = h(y, x); return z}}}(); let t = k(f, lst); return t")
        prog = parse_program("run " + src)
        again = parse_program("run " + pretty(prog.body))
        assert again.body == prog.body

    def test_type_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(500):
            t = gen_type(rng, rng.choice("+-"))
            polarity = "+" if rng.random() < 0 else None
            back = parse_type(pretty(t))
            assert back == t, pretty(t)

    def test_term_round_trip_random(self):
        rng = random.Random(14)
        for _ in range(500):
            env = gen_env(rng)
            body = gen_comp(rng, [n for n, _ in env], (), 3, [2])
            back = parse_program("run " + pretty(body)).body
            assert back == body, pretty(body)


# a compact hypothesis strategy over positive types (negatives ride inside)
_pos_strategy = st.recursive(
    st.sampled_from([Data("Int", ()), Data("Bool", ()), Data("String", ())]),
    lambda kids: st.one_of(
        st.builds(lambda a: Data("List", (a,)), kids),
        st.builds(lambda a, b: Data("Pair", (a, b)), kids, kids),
        st.builds(lambda p: Down(Up(p)), kids),
        st.builds(lambda p, q: Down(Arrow(p, Up(q))), kids, kids),
        st.builds(lambda p: Down(Forall("a", Arrow(UVar("a"), Up(p)))), kids),
        st.builds(lambda p: Down(Forall("a", Arrow(UVar("a"), Up(UVar("a"))))),
                  kids),
    ),
    max_leaves=12,
)

_neg_strategy = st.one_of(
    st.builds(Up, _pos_strategy),
    st.builds(Arrow, _pos_strategy, st.builds(Up, _pos_strategy)),
    st.builds(lambda p: Forall("a", Arrow(UVar("a"), Up(p))), _pos_strategy),
)


class TestPrettyHypothesis:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_pos_strategy, _neg_strategy))
    def test_round_trip(self, t):
        assert parse_type(pretty(t)) == t
