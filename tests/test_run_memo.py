"""One memo per checking run, against one memo per subtyping premise.

The engine remembers a derived ground/ground judgment for the whole
checking run, so a later premise that asks for it again gets one `memo`
step.  The reference (`references.RefTyper`) starts a new memo at each
premise and derives the judgment again.  On the corpus, the benchmark's
let-chain and spine shapes and generated programs, both give the same
status, type, error kind, message and span.  The run's trace is the
reference's with some runs of consecutive steps cut: each cut run is one
`memo` step that prints as the run's last step, the conclusion the run
derived.  A memo hit advances the fresh-existential counters as the
derivation it cuts did, so every step prints as the reference's, names
included.  Every `memo` step answers a judgment that the same run
derived before it, never one from an earlier run.
"""

import random

import pytest

from polarf import Context, TypeCheckError, TypeEnv, parse_program, pretty
from polarf.corpus import EXAMPLES, STRIPPED
from polarf.typecheck import _Typer

from gen import gen_program, gen_shared_program, letchain_source, spine_source
from references import RefTyper


def outcome(typer, gamma, body):
    """The record and the trace of a `typer` run on `body` under `gamma`."""
    run = typer(gamma)
    try:
        ty, out = run.comp(Context(), body, None)
    except TypeCheckError as e:
        return ("error", e.kind, e.message, e.span), e.trace
    return ("ok", pretty(ty), pretty(out)), tuple(run.trace)


def printed(step):
    return "\n".join((step.goal, step.context_before, step.context_after))


def assert_cut_from(trace, ref):
    """`trace` is `ref` with runs of consecutive steps each cut to one
    `memo` step that prints as the run's last step."""
    i = 0
    for j, step in enumerate(trace):
        text = printed(step)
        if step.rule == "memo":
            k = i
            while k < len(ref) and text != printed(ref[k]):
                k += 1
            assert k < len(ref), f"memo step {j} ends no run of the reference"
        else:
            k = i
            assert k < len(ref) and step.rule == ref[k].rule, f"step {j}"
            assert text == printed(ref[k]), f"step {j}"
        i = k + 1
    assert i == len(ref), "the trace ends before the reference does"


def assert_memo_from_this_run(trace):
    """Each `memo` step's judgment, with the universals in scope, was
    concluded by an earlier step of the same trace that derived it."""
    derived = set()
    for j, step in enumerate(trace):
        parts = step.judgment
        if len(parts) != 3 or parts[1] not in (" <=+ ", " <=- "):
            continue
        key = parts, step.before.erased
        if step.rule == "memo":
            assert key in derived, f"memo step {j} answers a judgment not derived in this run"
        else:
            derived.add(key)


def compare(gamma, body):
    """Both engines on one program, with equal records; returns the
    lengths of both traces."""
    record, trace = outcome(_Typer, gamma, body)
    ref_record, ref = outcome(RefTyper, gamma, body)
    assert outcome(_Typer, gamma, body) == (record, trace)  # a run starts afresh
    assert_memo_from_this_run(trace)
    assert_cut_from(trace, ref)
    assert record == ref_record
    return len(trace), len(ref)


def parsed(src):
    program = parse_program(src)
    return TypeEnv(tuple(program.assumptions)), program.body


@pytest.mark.parametrize("ex", EXAMPLES + STRIPPED, ids=lambda ex: ex.name)
def test_corpus_agrees_with_memo_per_premise(ex):
    compare(*parsed(ex.source))


@pytest.mark.parametrize("n", [10, 25, 100])
def test_letchain_cuts_repeated_derivations(n):
    steps, ref_steps = compare(*parsed(letchain_source(n)))
    assert steps < ref_steps


@pytest.mark.parametrize("k", [4, 16])
def test_spine_agrees_with_memo_per_premise(k):
    compare(*parsed(spine_source(k)))


def test_generated_programs_agree_with_memo_per_premise():
    rng = random.Random(23)
    for _ in range(1000):
        compare(*gen_program(rng))


def test_shared_arguments_cut_repeated_derivations():
    """Programs that pass two or more arguments of one ground type reach
    `memo` steps that answer a judgment of an earlier premise, which the
    reference derives again; the records are equal all the same, error
    messages included."""
    rng = random.Random(29)
    cut = 0
    for _ in range(300):
        steps, ref_steps = compare(*gen_shared_program(rng))
        cut += steps < ref_steps
    assert cut > 100, cut
