"""Concrete syntax: parsing, polarity enforcement, pretty round-trips."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from polarf import (
    Arrow, Data, Down, Forall, Let, LetAnn, NegData, TypeCheckError, UVar, Up,
    parse_program, parse_type, pretty,
)
from polarf import parser
from polarf.cli import check_source_json
from polarf.corpus import ENVIRONMENT, EXAMPLES, STRIPPED

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


class TestAssumptionMemo:
    """`parse_program` keeps the assumptions of each clean declaration
    block by the block's text, which holds everything that decides them."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(parser, "_PRELUDES", {})

    def test_corpus_parses_and_records_alike_from_the_memo(self):
        first = parse_program(EXAMPLES[0].source)
        warm = [parse_program(ex.source) for ex in EXAMPLES + STRIPPED]
        for ex, prog in zip(EXAMPLES + STRIPPED, warm):
            assert prog.assumptions is first.assumptions
            parser._PRELUDES.clear()
            assert parse_program(ex.source) == prog
            for with_trace in (False, True):
                parser._PRELUDES.clear()
                cold = check_source_json(ex.source, ex.name, with_trace)
                assert check_source_json(ex.source, ex.name, with_trace) == cold

    def test_declarations_are_part_of_the_key(self):
        body = "val x : dn T\nrun return x"
        prog = parse_program("data T neg 0\n" + body)
        assert prog.assumptions[0][1] == Down(NegData("T", ()))
        for _ in range(2):
            with pytest.raises(TypeCheckError) as e:
                parse_program("data T pos 0\n" + body)
            assert e.value.message == "dn expects a computation type (usually 'dn (...)')"
        assert list(parser._PRELUDES) == ["data T neg 0\nval x : dn T\n"]

    @pytest.mark.parametrize("src", [
        "val x : List\nrun return x",
        "val x : up Int\nrun return x",
        "val x : dn (forall a. a -> up b)\nrun return x",
        "val x : Int val y : Int )\nrun return x",
        "val x : Int Bool\nrun return x",
        "val x : Int $\nrun return x",
        "val x : Int\nval x : Bool\nrun return x",
        "data T pos 0\ndata T neg 0\nrun return true",
        "val x : List a\nrun return x",
        "val x : Int\n",
        "val x : Int\nreturn x\nrun return x",
    ])
    def test_errors_are_not_kept(self, src):
        errors = []
        for _ in range(2):
            with pytest.raises(TypeCheckError) as e:
                parse_program(src)
            errors.append((e.value.message, e.value.span.start, e.value.span.end))
            assert parser._PRELUDES == {}
        assert errors[0] == errors[1]

    def test_binder_names_keep_their_own_entries(self):
        a = parse_program("val f : dn (forall a. a -> up a)\nrun return f")
        b = parse_program("val f : dn (forall b. b -> up b)\nrun return f")
        assert a.assumptions[0][1] == b.assumptions[0][1]
        assert pretty(a.assumptions[0][1]) == "dn (forall a. a -> up a)"
        assert pretty(b.assumptions[0][1]) == "dn (forall b. b -> up b)"
        assert len(parser._PRELUDES) == 2

    def test_memo_stays_within_its_cap(self):
        cap = parser.MEMO_CAP
        blocks = [f"val v{i} : Int\n" for i in range(cap + 5)]
        progs = [parse_program(block + "run return true") for block in blocks]
        assert list(parser._PRELUDES) == blocks[5:]
        last = parse_program(blocks[-1] + "run return v0")
        assert last.assumptions is progs[-1].assumptions


class TestPreludeMemo:
    """`parse_program` keeps the datatypes and assumptions of each clean
    declaration block by the block's text, and reads a program whose block
    it has seen from the `run` line on."""

    @pytest.fixture(autouse=True)
    def empty_memos(self, monkeypatch):
        for memo in ("_PRELUDES", "_INPUT_TOKENS"):
            monkeypatch.setattr(parser, memo, {})
        lex, self.starts = parser._lex, []

        def recorded(src, filename, start=0):
            self.starts.append(start)
            return lex(src, filename, start)

        monkeypatch.setattr(parser, "_lex", recorded)

    @staticmethod
    def cold():
        parser._PRELUDES.clear()
        parser._INPUT_TOKENS.clear()

    @staticmethod
    def outcome(src):
        """The program, or the message and span of its parse error."""
        try:
            return parse_program(src, "f.ipf")
        except TypeCheckError as e:
            return e.message, e.span

    def test_a_hit_equals_a_cold_parse(self):
        block = len(ENVIRONMENT) + 1
        for ex in EXAMPLES + STRIPPED:
            self.cold()
            first = parse_program(ex.source, ex.name)
            assert parser._PRELUDES == {ex.source[:block]: (first.datatypes, first.assumptions)}
            (kept,) = parser._PRELUDES.values()
            self.starts.clear()
            second = parse_program(ex.source, ex.name)
            assert self.starts == [block]
            assert second == first
            assert second.datatypes is kept[0] and second.assumptions is kept[1]

    def test_a_cold_corpus_pass_hits_from_its_second_program(self):
        for ex in EXAMPLES + STRIPPED:
            parse_program(ex.source, ex.name)
        assert self.starts == [0] + [len(ENVIRONMENT) + 1] * (len(EXAMPLES + STRIPPED) - 1)
        assert len(parser._PRELUDES) == 1

    def test_records_are_the_same_cold_and_warm(self):
        for ex in EXAMPLES + STRIPPED:
            for with_trace in (False, True):
                self.cold()
                cold = check_source_json(ex.source, ex.name, with_trace)
                self.starts.clear()
                assert check_source_json(ex.source, ex.name, with_trace) == cold
                assert self.starts == [len(ENVIRONMENT) + 1]

    @pytest.mark.parametrize("body", [
        "run let = x(); return x",
        "run return x $",
        "run return x\n)",
        "run {return}",
        "run return 1" + "0" * 5000,
        "run return 1 2",
        "run " + "{" * 40 + "return x" + "}" * 40,
        "run \\x : List. return x",
        "run let y : up Int = x(); return y",
    ], ids=range(9))
    def test_body_errors_are_the_same_cold_and_warm(self, body):
        src = ENVIRONMENT + "\n" + body
        cold = self.outcome(src)
        assert isinstance(cold, tuple) and parser._PRELUDES == {}
        parse_program(ENVIRONMENT + "\nrun return head")
        self.starts.clear()
        assert self.outcome(src) == cold
        assert self.starts == [len(ENVIRONMENT) + 1]

    def test_kept_datatypes_are_in_scope_in_the_body(self):
        src = "data T neg 0\nval x : dn T\nrun \\y : dn T. return x"
        first = parse_program(src)
        second = parse_program(src)
        assert self.starts == [0, len("data T neg 0\nval x : dn T\n")]
        assert second == first
        assert second.body.annotation == Down(NegData("T", ()))
        assert parse_program("data T pos 0\nval x : T\nrun \\y : T. return x").body \
            .annotation == Data("T", ())

    @pytest.mark.parametrize("src", [
        "val x : Int run return x",
        "val x : Int run\nreturn x",
        "val x : Int\n" * (parser.MEMO_TEXT_MAX // 12 + 1) + "run return x",
        "val x : Int\nreturn x",
    ], ids=["run-mid-line", "run-ends-a-line", "long-block", "no-run"])
    def test_these_take_the_full_path(self, src):
        assert self.outcome(src) == self.outcome(src)
        assert self.starts == [0, 0]
        assert parser._PRELUDES == {}

    def test_a_run_line_may_start_with_a_gap(self):
        src = "val x : Int\n  -- a note\n\t run return x"
        assert parse_program(src) == parse_program(src)
        assert self.starts == [0, len("val x : Int\n  -- a note\n")]

    def test_a_block_at_the_length_cap_is_kept(self):
        limit = parser.MEMO_TEXT_MAX
        line = "-- " + "x" * 96 + "\n"
        for length in (limit, limit + 1):
            block = line * (length // 100) + "\n" * (length % 100)
            parse_program(block + "run return true")
            assert (block in parser._PRELUDES) == (length == limit)

    def test_threads_share_the_memo_at_its_cap(self, monkeypatch):
        # threads that drop the same oldest entry at once must not fail;
        # each program's body is its own text, so both memos evict
        monkeypatch.setattr(parser, "MEMO_CAP", 8)
        failures = []

        def parse(t):
            try:
                for i in range(2_000):
                    name = f"v{t}_{i % 50}"
                    prog = parse_program(f"val {name} : Int\nrun return {name}")
                    assert prog.assumptions[0][0] == prog.body.value.name == name
            except Exception as e:  # reported by the assertion below
                failures.append(e)

        threads = [threading.Thread(target=parse, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(parser._PRELUDES) <= 8 + len(threads)
        assert len(parser._INPUT_TOKENS) <= 8 + len(threads)


class TestLineTokens:
    """`_lex` keeps the tokens of each input it has lexed, by the input's
    text, within two bounds, and returns lists of its own."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(parser, "_INPUT_TOKENS", {})

    def test_memo_stays_within_its_cap(self):
        cap = parser.MEMO_CAP
        inputs = [f"x{i}\n" for i in range(cap + 1)]
        for src in inputs:
            assert parser._lex(src, "f")[1] == [src[:-1], ""]
        assert list(parser._INPUT_TOKENS) == inputs[1:]

    def test_long_inputs_are_lexed_but_not_kept(self):
        limit = parser.MEMO_TEXT_MAX
        kept, long = "x " * (limit // 2), "x " * (limit // 2) + "x"
        for src in (kept, long):
            kinds, texts, ends = parser._lex(src, "f")
            count = (len(src) + 1) // 2
            assert kinds == ["ident"] * count + ["eof"]
            assert texts == ["x"] * count + [""]
            assert ends == [1 + 2 * i for i in range(count)] + [len(src)]
        assert list(parser._INPUT_TOKENS) == [kept]

    @pytest.mark.parametrize("start", [0, len("run -- a prefix\n")])
    def test_inputs_with_a_stray_character_are_not_kept(self, start):
        src = "run -- a prefix\n"[:start] + "val x : Int\nval y : Int ? Int\nrun return x"
        at = start + len("val x : Int\nval y : Int ")
        for _ in range(2):
            with pytest.raises(TypeCheckError) as e:
                parser._lex(src, "f", start)
            assert e.value.message == "unexpected character '?'"
            assert (e.value.span.start, e.value.span.end) == (at, at + 1)
            assert parser._INPUT_TOKENS == {}

    def test_returned_lists_are_the_callers(self):
        src = "val x : Int\nrun return x"
        first = parser._lex(src, "f")
        expected = [list(tokens) for tokens in first]
        for returned in (first, parser._lex(src, "f")):  # a miss, then a hit
            for tokens in returned:
                tokens[0] = tokens[-1]
                tokens.append(tokens[0])
            returned[0].clear()
            assert list(parser._lex(src, "f")) == expected


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
