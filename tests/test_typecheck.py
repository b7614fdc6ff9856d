"""Algorithmic typing: values, computations, spines, and the let forms."""

import json

import pytest

from polarf import (
    BoolLit, Context, Data, Down, EVar, IntLit, PairVal, Return, Solved,
    Thunk, TypeCheckError, TypeEnv, Unsolved, Up, Var, apply_context,
    check_program, decl_synth, parse_program, parse_type, pretty,
    subtype_pos, synth_spine, synth_value,
)
from polarf import cli, oracle, subtype, syntax, typecheck, wellformed
from polarf.corpus import ENVIRONMENT, EXAMPLES, STRIPPED, by_name

from references import ref_weak_extends

T = parse_type
ID_TYPE = T("dn (forall a. a -> up a)", "+")


def check(term_src: str, env: str = ENVIRONMENT):
    return check_program(parse_program(env + "\nrun " + term_src))


def check_error(term_src: str, env: str = ENVIRONMENT) -> TypeCheckError:
    with pytest.raises(TypeCheckError) as e:
        check(term_src, env)
    return e.value


class TestSynthValue:
    def test_variable(self):
        res = synth_value(Context(), TypeEnv((("x", Data("Int", ())),)), Var("x"))
        assert res.type == Data("Int", ())
        assert res.context == Context()

    def test_thunked_return(self):
        res = synth_value(Context(), TypeEnv(), Thunk(Return(BoolLit(True))))
        assert res.type == Down(Up(Data("Bool", ())))

    def test_unbound_variable(self):
        with pytest.raises(TypeCheckError) as e:
            synth_value(Context(), TypeEnv(), Var("y"))
        assert e.value.kind == "unbound-variable"

    def test_literals_and_pairs(self):
        res = synth_value(Context(), TypeEnv(), PairVal(IntLit(3), BoolLit(False)))
        assert res.type == T("Int * Bool", "+")


class TestSynthComputation:
    def test_c3_program_type(self):
        res = check("let t = head(ids); return t")
        assert pretty(res.type) == "up (dn (forall a. a -> up a))"

    def test_a7_rejected(self):
        err = check_error("let t = choose(id, auto); return t")
        assert err.kind == "subtype-failure"

    def test_return_true(self):
        res = check("return true")
        assert pretty(res.type) == "up Bool"

    def test_a3_needs_annotation(self):
        err = check_error("let n = nil(); let t = choose(n, ids); return t")
        assert err.kind == "ambiguous-let"
        assert "annotate" in err.message
        ok = check("let n : List (dn (forall a. a -> up a)) = nil(); "
                   "let t = choose(n, ids); return t")
        assert pretty(ok.type) == "up (List (dn (forall a. a -> up a)))"

    def test_annotation_mismatch_is_distinguished(self):
        err = check_error("let n : Int = nil(); return n")
        assert err.kind == "subtype-failure"
        assert "annotation" in err.message

    def test_head_must_be_thunk(self):
        err = check_error("let x = flag(); return x", env="val flag : Bool\n")
        assert err.kind == "shape"
        assert "thunk" in err.message

    def test_partial_application_forbidden(self):
        err = check_error("let x = pairup(1); return x",
                          env="val pairup : dn (Int -> Bool -> up (Int * Bool))\n")
        assert err.kind == "shape"
        assert "partial application" in err.message

    def test_too_many_arguments(self):
        err = check_error("let x = inc(1, 2); return x",
                          env="val inc : dn (Int -> up Int)\n")
        assert err.kind == "arity"

    def test_lambda_annotation_must_be_well_formed(self):
        err = check_error("\\x : List a. return x", env="")
        assert err.kind == "unbound-variable"

    def test_type_abstraction_scopes_its_binder(self):
        res = check("/\\a. \\x : a. return x", env="")
        assert pretty(res.type) == "forall a. a -> up a"

    def test_shadowed_type_abstraction_binder(self):
        res = check("/\\a. \\x : a. return {/\\a. \\y : a. return y}", env="")
        assert res.type == T("forall a. a -> up (dn (forall b. b -> up b))", "-")

    def test_unannotated_let_of_ground_result(self):
        res = check("let x = {return 3}(); return x", env="")
        assert pretty(res.type) == "up Int"

    def test_nested_let_restriction_keeps_outer_solutions(self):
        # the inner let's spine existential must not leak, while the outer
        # argument still solves the head's quantifier
        res = check("let t = single({return {\\x : Int. "
                    "let y = id(x); return y}}); return t",
                    env="val id : dn (forall a. a -> up a)\n"
                        "val single : dn (forall a. a -> up (List a))\n")
        assert "List" in pretty(res.type)


class TestSynthSpine:
    def test_empty_spine_on_returner(self):
        res = synth_spine(Context(), TypeEnv(), (), T("up Int", "-"))
        assert res.type == T("up Int", "-")
        assert res.context == Context()

    def test_instantiating_spine(self):
        gamma = TypeEnv((("ids", T("List (dn (forall a. a -> up a))", "+")),))
        head = T("forall a. List a -> up a", "-")
        res = synth_spine(Context(), gamma, (Var("ids"),), head)
        assert apply_context(res.context, res.type) == Up(ID_TYPE)
        assert res.context.solutions["?a0"] == ID_TYPE

    def test_empty_spine_still_instantiates_forall(self):
        res = synth_spine(Context(), TypeEnv(), (), T("forall a. up (List a)", "-"))
        assert isinstance(res.type, Up)
        assert res.type.body == Data("List", (EVar("?a0"),))
        assert res.context == Context((Unsolved("?a0"),))
        assert ref_weak_extends(Context(), res.context)

    def test_unused_binder_skipped(self):
        res = synth_spine(Context(), TypeEnv(), (), T("forall a. up Int", "-"))
        assert res.type == T("up Int", "-")
        assert res.context == Context()  # no existential was created

    def test_preconditions(self):
        theta = Context((Solved("?a", Data("Int", ())),))
        with pytest.raises(ValueError):
            synth_spine(theta, TypeEnv(), (), Up(EVar("?a")))


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        ex = by_name("A5")
        prog = parse_program(ex.source, ex.name)
        r1 = check_program(prog)
        r2 = check_program(prog)
        assert r1 == r2
        assert r1.trace == r2.trace


class TestTypeAbsShadowing:
    """A shadowing `/\\a` introduces a fresh universal; the source can only
    reach it as `a`, never by the fresh name."""

    def test_fresh_universal_is_not_a_source_name(self):
        src = "/\\a. /\\a. \\x : a1. return x"
        assert check_error(src, env="").kind == "unbound-variable"
        assert decl_synth((), TypeEnv(), parse_program("run " + src).body) == ()

    @pytest.mark.parametrize("src,expected", [
        ("/\\a. /\\a. \\x : a. return x", "forall a b. b -> up b"),
        ("/\\a. \\y : a. /\\a. \\x : a. return y",
         "forall a. a -> forall b. b -> up a"),
    ])
    def test_shadowing_type_abstractions(self, src, expected):
        ty = check(src, env="").type
        assert ty == T(expected, "-")
        assert T(pretty(ty), "-") == ty
        assert ty in decl_synth((), TypeEnv(), parse_program("run " + src).body)


class TestLazyTrace:
    """Trace steps keep their judgments and contexts as objects, and a
    rejection keeps its message as parts: a check prints nothing until a
    step's strings or the message are read."""

    @pytest.fixture
    def pretty_calls(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return pretty(x)

        monkeypatch.setattr(subtype, "pretty", counted)
        return calls

    def test_accepted_checks_print_nothing_until_read(self, pretty_calls):
        traces = [check_program(parse_program(ex.source, ex.name)).trace
                  for ex in EXAMPLES if ex.expected in ("ok", "ann")]
        ladder = "Int"
        for _ in range(12):
            ladder = f"dn (up ({ladder}))"
        t = T(ladder, "+")
        traces.append(subtype_pos(Context(), t, t).trace)
        assert pretty_calls == []

        steps = [step for trace in traces for step in trace]
        for step in steps:
            assert step.goal
            assert step.context_before == pretty(step.before)
            assert step.context_after == pretty(step.after)
        printed = sum(2 + sum(not isinstance(part, str) for part in step.judgment)
                      for step in steps)
        assert len(pretty_calls) == printed

    def test_rejections_print_nothing_until_read(self, pretty_calls):
        errors = []
        for ex in EXAMPLES:
            if ex.expected == "reject":
                with pytest.raises(TypeCheckError) as e:
                    check_program(parse_program(ex.source, ex.name))
                errors.append(e.value)
        assert pretty_calls == []
        messages = [e.message for e in errors]
        printed = sum(not isinstance(part, str) for e in errors for part in e.parts)
        assert len(pretty_calls) == printed > 0
        assert [e.message for e in errors] == messages  # printed once, then kept
        assert len(pretty_calls) == printed


class TestTraceRendering:
    """Steps share their contexts, and the trace of a `check --json` record
    prints each context object once."""

    @pytest.fixture
    def shown_contexts(self, monkeypatch):
        shown = []

        def counted(x):
            if isinstance(x, Context):
                shown.append(x)
            return pretty(x)

        monkeypatch.setattr(cli, "pretty", counted)
        return shown

    def test_each_context_object_is_printed_once(self, shown_contexts):
        steps = renders = 0
        for ex in EXAMPLES + STRIPPED:
            trace = trace_of(parse_program(ex.source, ex.name))
            # hold every context read, so that no two share an id
            contexts = [ctx for s in trace for ctx in (s.before, s.after)]
            distinct = len({id(ctx) for ctx in contexts})
            shown_contexts.clear()
            cli._trace_json(trace)
            assert len(shown_contexts) == distinct, ex.name
            steps += len(trace)
            renders += distinct

            shown_contexts.clear()
            record = json.loads(cli.check_source_json(ex.source, ex.name, with_trace=True))
            assert len(record["trace"]) == len(trace)
            assert len({id(ctx) for ctx in shown_contexts}) == len(shown_contexts) > 0
        assert 2 * renders < steps  # 225 renders for 727 steps, not 2 per step


class TestTypeFacts:
    """Types carry their facts (free variables, size, scope): a check reads
    them and walks no type."""

    @pytest.fixture
    def type_walks(self, monkeypatch):
        calls = []
        walk = oracle.positive_subterms

        def counted(t, *rest, **named):
            calls.append(t)
            return walk(t, *rest, **named)

        for module in (syntax, wellformed, subtype, typecheck, oracle):
            if hasattr(module, "positive_subterms"):
                monkeypatch.setattr(module, "positive_subterms", counted)
        return calls

    def test_accepted_checks_walk_no_type(self, type_walks):
        for ex in EXAMPLES:
            if ex.expected in ("ok", "ann"):
                check_program(parse_program(ex.source, ex.name))
        ladder = "Int"
        for _ in range(12):
            ladder = f"dn (up ({ladder}))"
        t = T(ladder, "+")
        subtype_pos(Context(), t, t)
        assert type_walks == []


class TestTraceOnDemand:
    """A check builds trace steps only when a trace is asked for: the plain
    `check --json` record builds none, and the library keeps its default
    of the full trace."""

    @pytest.fixture
    def steps_built(self, monkeypatch):
        built = []
        step = subtype.TraceStep

        def counted(*args):
            built.append(args[0])
            return step(*args)

        monkeypatch.setattr(subtype, "TraceStep", counted)
        return built

    def test_plain_records_build_no_steps(self, steps_built):
        for ex in EXAMPLES + STRIPPED:
            plain = cli.check_source_json(ex.source, ex.name)
            assert steps_built == [], ex.name
            traced = json.loads(cli.check_source_json(ex.source, ex.name, with_trace=True))
            assert steps_built
            assert plain == json.dumps({**traced, "trace": None})
            steps_built.clear()

    def test_library_default_keeps_the_full_trace(self, steps_built):
        for ex in EXAMPLES + STRIPPED:
            traced = json.loads(cli.check_source_json(ex.source, ex.name, with_trace=True))
            program = parse_program(ex.source, ex.name)
            assert cli._trace_json(trace_of(program)) == traced["trace"], ex.name
            assert trace_of(program, trace=False) == ()
        assert steps_built


def trace_of(program, **options):
    """The trace of checking `program`, accepted or not."""
    try:
        return check_program(program, **options).trace
    except TypeCheckError as e:
        return e.trace
