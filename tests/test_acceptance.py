"""Acceptance criteria, one test per criterion, at full stated scale.

Each test prints a PASS/FAIL line (visible with `pytest -s` or in captured
output).  The checker's internal postcondition assertions (context shape,
extension, groundness of completed types, size bounding, strict metric
decrease) are active throughout: a single violation anywhere in these runs
raises InvariantViolation and fails the suite.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from polarf import (
    Context, Data, TypeCheckError, check_program,
    decl_subtype, free_uvars, parse_program, parse_type, pretty,
    subst_type, subtype_neg,
)
from polarf.cli import check_source_json
from polarf.corpus import EXAMPLES, STRIPPED

from gen import (
    gen_comp, gen_env, gen_program, gen_type, instantiate_prenex,
    permute_prenex,
)
from suites import (
    ISO_ENV_CASES, check_ground_agreement, check_holed_agreement,
    check_isomorphic_environments, check_program_agreement,
)

T = parse_type
ID_TYPE = T("dn (forall a. a -> up a)", "+")


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    print(f"PASS criterion {number}: {summary}")


def test_criterion_1_corpus_verdicts():
    with criterion(1, "all 32 corpus rows reproduce (14 ok / 9 ann / 9 reject)"
                      " in under a second"):
        started = time.monotonic()
        counts = {"ok": 0, "ann": 0, "reject": 0}
        for ex in EXAMPLES:
            try:
                check_program(parse_program(ex.source, ex.name))
                accepted = True
            except TypeCheckError:
                accepted = False
            assert accepted == (ex.expected in ("ok", "ann")), ex.name
            counts[ex.expected] += 1
        elapsed = time.monotonic() - started
        assert counts == {"ok": 14, "ann": 9, "reject": 9}
        assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"


def test_criterion_2_annotation_necessity():
    with criterion(2, "stripping the annotation from A3, C6, A11 rejects "
                      "with ambiguous-let"):
        assert {ex.name for ex in STRIPPED} == \
            {"A3-stripped", "C6-stripped", "A11-stripped"}
        for ex in STRIPPED:
            with pytest.raises(TypeCheckError) as e:
                check_program(parse_program(ex.source, ex.name))
            assert e.value.kind == "ambiguous-let", ex.name


def test_criterion_3_subtyping_displays():
    with criterion(3, "quantifier swap (both ways), quantifier pushing, "
                      "impredicative list accept; zip rejects both ways"):
        swap1 = T("forall a b. dn (a -> up b) -> List a -> up (List b)", "-")
        swap2 = T("forall b a. dn (a -> up b) -> List a -> up (List b)", "-")
        subtype_neg(Context(), swap1, swap2)
        subtype_neg(Context(), swap2, swap1)
        subtype_neg(Context(),
                    T("forall a. a -> forall b. b -> up (a * b)", "-"),
                    T("forall a b. a -> b -> up (a * b)", "-"))
        subtype_neg(Context(), T("forall a. up (List a)", "-"),
                    T("up (List (dn (forall b. b -> up b)))", "-"))
        mono = T("dn (Int -> String -> up (Int * String)) -> "
                 "List Int -> List String -> up (List (Int * String))", "-")
        poly = T("dn (forall a b. a -> b -> up (a * b)) -> "
                 "List Int -> List String -> up (List (Int * String))", "-")
        with pytest.raises(TypeCheckError):
            subtype_neg(Context(), mono, poly)
        with pytest.raises(TypeCheckError):
            subtype_neg(Context(), poly, mono)


def test_criterion_4_soundness_completeness_suite():
    with criterion(4, "10,000 subtyping instances and 2,000 programs agree "
                      "with the oracle; no budget exhaustion"):
        # any OracleBudgetExceeded would propagate and fail this test
        check_ground_agreement(random.Random(1000), 7000)
        check_holed_agreement(random.Random(1001), 3000)
        check_program_agreement(random.Random(1002), 2000)


def test_criterion_5_lemma_suite():
    with criterion(5, "reflexivity, transitivity, substitution stability, "
                      "and every in-engine postcondition hold"):
        rng = random.Random(1003)
        # reflexivity over fresh instances (also asserted inside criterion 4)
        for _ in range(2000):
            a = gen_type(rng, rng.choice("+-"))
            assert decl_subtype((), a, a)
        # transitivity along instantiation chains
        hits = 0
        for _ in range(1500):
            c = gen_type(rng, "-", quants=3)
            b = instantiate_prenex(rng, c)
            a = instantiate_prenex(rng, b)
            from polarf import candidate_universe
            u = candidate_universe([a, b, c])
            if decl_subtype((), c, b, u) and decl_subtype((), b, a, u):
                hits += 1
                assert decl_subtype((), c, a, u)
        assert hits > 100
        # stability of derivable judgments under substitution
        stable = 0
        for _ in range(2000):
            a = gen_type(rng, "-", uvars=("c",))
            roll = rng.random()
            b = a if roll < 0.4 else permute_prenex(rng, a) if roll < 0.7 \
                else instantiate_prenex(rng, a)
            if "c" not in (free_uvars(a) | free_uvars(b)):
                continue
            if not decl_subtype(("c",), a, b):
                continue
            stable += 1
            for p in (Data("Int", ()), ID_TYPE):
                assert decl_subtype((), subst_type(p, "c", a),
                                    subst_type(p, "c", b))
            if stable >= 150:
                break
        assert stable >= 50


def test_criterion_6_isomorphic_environments():
    with criterion(6, "5 corpus programs are stable under quantifier-permuted "
                      "environment types (up to isomorphism)"):
        assert len(ISO_ENV_CASES) >= 5
        check_isomorphic_environments()


def test_criterion_7_determinism():
    with criterion(7, "corpus and fuzz inputs checked twice give "
                      "byte-identical JSON"):
        rng = random.Random(1004)
        sources = [ex.source for ex in EXAMPLES + STRIPPED]
        for _ in range(300):
            gamma, body = gen_program(rng)
            env_src = "".join(f"val {n} : {pretty(t)}\n" for n, t in gamma)
            sources.append(env_src + "run " + pretty(body))
        for src in sources:
            one = check_source_json(src, "fuzz.ipf", with_trace=True)
            two = check_source_json(src, "fuzz.ipf", with_trace=True)
            assert one == two
            json.loads(one)  # stays valid JSON


def test_criterion_8_parser_round_trip():
    with criterion(8, "parse after pretty is the identity (up to alpha) on "
                      "10,000 random ASTs"):
        rng = random.Random(1005)
        for _ in range(6000):
            t = gen_type(rng, rng.choice("+-"))
            assert parse_type(pretty(t)) == t
        for _ in range(4000):
            env = gen_env(rng)
            body = gen_comp(rng, [n for n, _ in env], (), 3, [2])
            assert parse_program("run " + pretty(body)).body == body
