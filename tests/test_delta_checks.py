"""The delta postcondition against the full checks it replaces.

Every typing and subtyping rule checks its output context with
`wellformed.wf_extension`, which reads only the entries that changed and
the entries pushed past the input.  Its reference is the full check:
`wf_context(out)` and `extends(theta, out)` (`references.ref_weak_extends`
for the spine rules).  On every rule of generated programs and queries and
of the corpus, both must give the same answer, on the rule's own contexts,
on the pair reversed, and on planted bad outputs.  The let rules restrict
a spine's output with the same weak check, so `restrict_context` rejects
every planted bad spine output.  The checks a rule reads from its
premises (transitivity of extension, and the completed size built from
the premises') agree with the full checks on every rule.  And every rule
must still run a postcondition: a bad context planted under each kind of
rule is caught.  The context facts handed over rule by rule equal those
its entries define.
"""

import random
from collections import Counter

import pytest

from polarf import (
    Context, Data, InvariantViolation, Solved, TypeCheckError, UVar, Universal,
    Unsolved, apply_context, extends, is_ground, parse_program, restrict_context,
    subtype, subtype_neg, subtype_pos, synth_computation, wellformed, wf_context,
)
from polarf.corpus import EXAMPLES, STRIPPED
from polarf.subtype import _Engine, _OpenedStep
from polarf.typecheck import _Typer, check_program
from polarf.wellformed import wf_extension

from gen import gen_program, gen_related_pair, holeify
from references import ref_weak_extends


def reference(theta, out, weak):
    return wf_context(out) and (ref_weak_extends if weak else extends)(theta, out)


def traced(run):
    try:
        return run().trace
    except TypeCheckError as e:
        return e.trace


def rule_steps(seed, programs, queries):
    """The trace steps of every rule of the corpus and of generated
    programs and subtyping queries, accepted or not."""
    rng = random.Random(seed)
    traces = [traced(lambda: check_program(parse_program(ex.source, ex.name)))
              for ex in EXAMPLES + STRIPPED]
    for _ in range(programs):
        gamma, body = gen_program(rng)
        traces.append(traced(lambda: synth_computation(Context(), gamma, body)))
    for _ in range(queries):
        polarity = rng.choice("+-")
        a, b = gen_related_pair(rng, polarity)
        if polarity == "+":
            holed, theta, _ = holeify(rng, b)
            traces.append(traced(lambda: subtype_pos(theta, a, holed)))
        else:
            holed, theta, _ = holeify(rng, a)
            traces.append(traced(lambda: subtype_neg(theta, holed, b)))
    return [step for trace in traces for step in trace]


def rule_contexts(seed, programs, queries):
    """(before, after, weak) of every rule of the corpus and of generated
    programs and subtyping queries, accepted or not."""
    for step in rule_steps(seed, programs, queries):
        yield step.before, step.after, step.rule.startswith("spine-")


# planted bad outputs: each returns a context, or None where it does not apply

def later_universal(theta, out):
    """Solve an existential unsolved in theta with a universal bound after it."""
    n = len(theta)
    for i, e in enumerate(theta.entries):
        later = [u for u in out.entries[i + 1:n] if type(u) is Universal]
        if type(e) is Unsolved and later:
            entries = list(out.entries)
            entries[i] = Solved(e.name, UVar(later[0].name))
            return Context(tuple(entries))
    return None


def dropped_entry(theta, out):
    if not theta.entries:
        return None
    i = len(theta) // 2
    return Context(out.entries[:i] + out.entries[i + 1:])


def changed_solution(theta, out):
    for i, e in enumerate(theta.entries):
        if type(e) is Solved:
            entries = list(out.entries)
            entries[i] = Solved(e.name, Data("Pair", (e.solution, e.solution)))
            return Context(tuple(entries))
    return None


def pushed_universal(theta, out):
    return Context(out.entries + (Universal("planted"),))


def pushed_out_of_scope(theta, out):
    """Push an existential solved with a universal no entry binds."""
    return Context(out.entries + (Solved("?planted", UVar("planted")),))


PLANTS = (later_universal, dropped_entry, changed_solution, pushed_universal,
          pushed_out_of_scope)


def test_delta_check_matches_full_check():
    rules = spines = grown = restricted = 0
    planted = dict.fromkeys([p.__name__ for p in PLANTS], 0)
    for before, after, weak in rule_contexts(41, programs=600, queries=1000):
        assert wf_extension(before, after, weak) and reference(before, after, weak)
        assert wf_extension(after, before, weak) == reference(after, before, weak)
        rules += 1
        spines += weak
        grown += len(after) > len(before)
        for plant in PLANTS:
            bad = plant(before, after)
            if bad is None:
                continue
            assert not reference(before, bad, weak), plant.__name__
            assert not wf_extension(before, bad, weak), plant.__name__
            planted[plant.__name__] += 1
            if weak:
                with pytest.raises(InvariantViolation):
                    restrict_context(bad, before)
                restricted += 1
    assert rules > 10_000 and spines > 300 and grown > 100
    assert min(planted.values()) > 1000, planted
    assert restricted > 1000


def test_delta_check_on_contexts_of_every_kind():
    """Hand-made pairs whose verdicts differ in one way each."""
    a, x = Universal("a"), Unsolved("?x")
    base = Context((x, a))
    cases = [
        (Context((Solved("?x", Data("Int")), a)), False, True),
        (Context((Solved("?x", UVar("a")), a)), False, False),   # a comes after ?x
        (Context((a, x)), False, False),                        # reordered
        (Context((x, a, Unsolved("?y"))), True, True),
        (Context((x, a, Solved("?y", UVar("a")))), True, True),
        (Context((x, a, Unsolved("?x"))), True, False),          # name taken
        (Context((x, a, Unsolved("?y"), Unsolved("?y"))), True, False),
        (Context((x, a, Universal("b"))), True, False),
        (Context((x, a, Solved("?y", UVar("b")))), True, False),  # b not in scope
        (Context((x,)), True, False),
    ]
    for out, weak, verdict in cases:
        assert reference(base, out, weak) == verdict, out
        assert wf_extension(base, out, weak) == verdict, out
    assert wf_extension(base, base) and wf_extension(base, base, weak=True)


FACTS = ("positions", "uvar_names", "evar_names", "solutions", "erased")


def test_handed_over_facts_match_the_entries():
    """The facts of every context the rules see are those that its entries
    define: the facts of `Context(entries)`, computed in one pass, also
    where `solve` handed its input's positions and names on, and where
    `pop` returned the context it was given."""
    contexts = 0
    for step in rule_steps(47, programs=1000, queries=1000):
        for ctx in (step.before, step.after):
            built = Context(ctx.entries)
            for fact in FACTS:
                assert getattr(ctx, fact) == getattr(built, fact), (fact, ctx)
            contexts += 1
    assert contexts > 20_000, contexts


# -- postconditions by lemma ---------------------------------------------------------

def completion(after, judgment):
    """A subtyping judgment's non-ground side completed under `after`, and
    its ground side."""
    a, polarity, b = judgment
    if polarity == " <=+ ":
        return apply_context(after, b), a
    return apply_context(after, a), b


def test_postconditions_by_lemma_match_full_checks(monkeypatch):
    """The postconditions that a rule reads from its premises, against the
    full checks they stand for, on every rule of the corpus and of the
    generated programs and queries.  A context check that follows the
    premises' stamps (Lemma 2 of `wf_extension`) agrees with
    `wf_context(out) and extends(theta, out)`; the size a rule builds from
    its premises' bounds its completed non-ground side, which is ground and
    no larger than its ground side; and the quantifiers of a block opened
    at once, which run no check of their own, pass the full checks too."""
    counts = Counter()
    follows, check_post = wellformed._follows, subtype._check_post
    synth_post, spine_post = _Typer._check_synth_post, _Typer._check_spine_post

    def checked_follows(theta, out, weak):
        verdict = follows(theta, out, weak)
        if verdict:
            assert reference(theta, out, weak)
            counts["transitivity"] += 1
        return verdict

    def checked_post(theta, out, ground_size, size, goal):
        check_post(theta, out, ground_size, size, goal)
        completed, _ = completion(out, goal)
        assert wf_context(out) and extends(theta, out)
        assert is_ground(completed) and completed.size <= size <= ground_size
        counts["subtyping"] += 1

    def checked_synth_post(self, theta, out, result):
        synth_post(self, theta, out, result)
        assert reference(theta, out, False)
        counts["synthesis"] += 1

    def checked_spine_post(self, theta, out, n, m):
        spine_post(self, theta, out, n, m)
        assert reference(theta, out, True)
        counts["spine"] += 1

    monkeypatch.setattr(wellformed, "_follows", checked_follows)
    monkeypatch.setattr(subtype, "_check_post", checked_post)
    monkeypatch.setattr(_Typer, "_check_synth_post", checked_synth_post)
    monkeypatch.setattr(_Typer, "_check_spine_post", checked_spine_post)
    for step in rule_steps(43, programs=300, queries=600):
        judgment = step.judgment
        if len(judgment) == 3 and judgment[1] in (" <=+ ", " <=- "):
            completed, ground = completion(step.after, judgment)
            assert is_ground(completed) and completed.size <= ground.size
            counts["subtyping steps"] += 1
        counts["opened"] += isinstance(step, _OpenedStep)
    assert min(counts["subtyping"], counts["subtyping steps"]) > 2000, counts
    assert counts["synthesis"] > 500 and counts["spine"] > 150, counts
    assert counts["transitivity"] > 400 and counts["opened"] > 20, counts


# -- every rule runs a postcondition ------------------------------------------------

def plant_universal(context):
    return Context(context.entries + (Universal(f"planted{len(context)}"),))


def corrupt_inner(monkeypatch, cls, method, parent_index):
    """Make every inner call of `cls.method` (one whose parent argument, at
    `parent_index`, is set) return a context with a universal pushed on."""
    original = getattr(cls, method)

    def corrupted(self, *args):
        result = original(self, *args)
        if args[parent_index] is None:
            return result
        if isinstance(result, Context):
            return plant_universal(result)
        return result[0], plant_universal(result[1])

    monkeypatch.setattr(cls, method, corrupted)


ENGINE_SOURCE = ("val x : dn (up Int)\nval f : dn (dn (up Int) -> up Int)\n"
                 "run let y = f(x); return y")
SPINE_SOURCE = "val id : dn (forall a. a -> up a)\nrun let y = id(1); return y"


@pytest.mark.parametrize("cls,method,parent_index,source,message", [
    (_Engine, "pos", 3, ENGINE_SOURCE, "output context is ill-formed or does not extend"),
    (_Engine, "neg", 3, ENGINE_SOURCE, "output context is ill-formed or does not extend"),
    (_Typer, "value", 2, "run return 1", "synthesis output is ill-formed"),
    (_Typer, "comp", 2, "run return {return 1}", "synthesis output is ill-formed"),
    # the spine is a loop: its rules check the contexts their premises return
    (_Typer, "_subtype_pos", 0, SPINE_SOURCE, "spine output is ill-formed"),
], ids=["engine-pos", "engine-neg", "synth-value", "synth-comp", "spine"])
def test_planted_bad_context_is_caught(monkeypatch, cls, method, parent_index, source,
                                       message):
    program = parse_program(source)
    check_program(program)
    corrupt_inner(monkeypatch, cls, method, parent_index)
    with pytest.raises(InvariantViolation, match=message):
        check_program(program)
