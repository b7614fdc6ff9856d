"""Rule and node budgets of the checker, counted, not timed.

The invariant rules check both directions one level down.  Without the
per-run memo of ground/ground judgments that costs 2^d rules on nested
`List` and 4^d on nested `dn (up ...)`; with it, a depth-d ladder takes at
most 4*d + 1 rules.  The memo lasts the whole checking run, so a typing
run derives a ground judgment that several of its premises ask for once.
The budget fixture stops a run as soon as it records one rule too many,
so an exponential engine fails these tests at once instead of running for
hours.

Checking against a block of k quantifiers and typing a k-argument spine
build a number of type nodes linear in k: the block is opened in one map,
the rest of the arrow chain is read through the context, and no rule
rebuilds its completed type to check its size.  A program parsed again
builds no node for an assumption type it shares with an earlier parse, and
lexes each input that it reads by one `findall`, or by none if an earlier
parse read the same text.

Leaving a scope cuts the context back to the one the rule extended and
hands that one back when none of its entries changed, so a run builds few
contexts; the extension checks read only the entries a rule changed.

The memos hash whole types on every lookup.  A type node with children
computes its hash once, on its first `hash()`, from its children's kept
hashes; building a node computes none.
"""

from collections import Counter

import pytest

from polarf import (
    Context, TypeCheckError, check_program, parse_program, parse_type, subtype_neg,
    subtype_pos,
)
from polarf import cli, parser, subtype, syntax, wellformed
from polarf.cli import check_source_json, main
from polarf.corpus import EXAMPLES, STRIPPED
from polarf.parser import MAX_TYPE_HEIGHT
from polarf.syntax import Arrow, Data, Down, Forall, NegData, Up

from gen import letchain_source, prenex_source, spine_source
from references import ref_nodes


def dnup(depth, leaf):
    for _ in range(depth):
        leaf = f"dn (up ({leaf}))"
    return leaf


def nested_list(depth, leaf):
    for _ in range(depth):
        leaf = f"List ({leaf})"
    return leaf


LADDERS = [pytest.param(dnup, 12, id="dnup-d12"),
           pytest.param(nested_list, 50, id="list-d50")]


def budget(depth):
    return 4 * depth + 1


@pytest.fixture
def rule_budget(monkeypatch):
    """Fail the test as soon as the engine records more than `limit` rules."""
    def install(limit):
        record = subtype._Engine._record
        count = [0]

        def counted(self, *args):
            count[0] += 1
            if count[0] > limit:
                pytest.fail(f"the engine recorded more than {limit} rules")
            return record(self, *args)

        monkeypatch.setattr(subtype._Engine, "_record", counted)
    return install


@pytest.mark.parametrize("build,depth", LADDERS)
def test_accepting_ladder_within_budget(build, depth, rule_budget):
    rule_budget(budget(depth))
    t = parse_type(build(depth, "Int"), "+")
    res = subtype_pos(Context(), t, t)
    assert res.context == Context()
    assert len(res.trace) <= budget(depth)


@pytest.mark.parametrize("build,depth", LADDERS)
def test_mismatched_leaf_still_fails(build, depth, rule_budget):
    rule_budget(budget(depth))
    good = parse_type(build(depth, "Int"), "+")
    bad = parse_type(build(depth, "Bool"), "+")
    with pytest.raises(TypeCheckError) as err:
        subtype_pos(Context(), good, bad)
    assert err.value.kind == "subtype-failure"


@pytest.mark.parametrize("build,depth", LADDERS)
def test_sub_command_within_budget(build, depth, rule_budget, tmp_path,
                                   monkeypatch, capsys):
    rule_budget(budget(depth))
    steps = []

    def counting(*args, **kwargs):
        res = subtype_pos(*args, **kwargs)
        steps.append(len(res.trace))
        return res

    monkeypatch.setattr(cli, "subtype_pos", counting)
    same, other = build(depth, "Int"), build(depth, "Bool")
    path = tmp_path / "ladder.txt"
    path.write_text(f"{same} <: {same}\n{same} <: {other}\n", encoding="utf-8")
    assert main(["sub", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1: ok") and lines[1].startswith("2: fail")
    assert len(steps) == 1 and steps[0] <= budget(depth)


def test_repeated_ground_judgment_shows_memo_step():
    # the argument check derives List Int <=+ List Int in both directions;
    # the second one is answered from the memo
    src = ("val f : dn (List (List Int) -> up Int)\n"
           "val xs : List (List Int)\n"
           "run let y = f(xs); return y\n")
    first = check_source_json(src, "memo.ipf", with_trace=True)
    second = check_source_json(src, "memo.ipf", with_trace=True)
    assert first == second
    assert '"rule": "memo"' in first
    assert '"status": "ok"' in first


def test_later_premise_answers_from_memo():
    # the second argument's premise asks for List Int <=+ List Int, both
    # ways, which the first argument's premise derived
    src = ("val f : dn (List (List Int) -> List (List Int) -> up Int)\n"
           "val xs : List (List Int)\n"
           "run let y = f(xs, xs); return y\n")
    rules = [step.rule for step in check_program(parse_program(src)).trace]
    first, second = rules.index("var", 1), rules.index("var", 2)
    assert rules[first + 1:second] == ["data", "data", "data", "memo", "data"]
    assert rules[second + 1:second + 4] == ["memo", "memo", "data"]


@pytest.mark.parametrize("n", [10, 100, 400])
def test_letchain_derives_its_ground_judgment_once(n):
    # every `choose` asks for forall a. a -> up a <=- forall a. a -> up a;
    # with a memo per premise each one derived it again (n/2 forall-left
    # steps, 5,001 steps in all at n = 400)
    trace = check_program(parse_program(letchain_source(n))).trace
    assert [step.rule for step in trace].count("forall-left") == 1
    if n == 400:
        assert len(trace) <= 3810


def test_memo_step_in_subtype_trace():
    # Int <=+ Int costs one rule either way, so only the inner List is remembered
    t = parse_type("List (List Int)", "+")
    rules = [step.rule for step in subtype_pos(Context(), t, t).trace]
    assert rules == ["data", "data", "data", "memo", "data"]


def test_repeats_through_arrows_under_a_shift(rule_budget):
    # T(k+1) = dn (T(k) -> up T(k)): the arrow's domain premise T(k) <=+ T(k)
    # is asked for again by the shift-return below it, at every level
    depth = 8
    rule_budget(6 * depth + 1)
    t = "Int"
    for _ in range(depth):
        t = f"dn ({t} -> up ({t}))"
    ty = parse_type(t, "+")
    assert len(subtype_pos(Context(), ty, ty).trace) == 6 * depth + 1


# -- node builds of wide prenex blocks and long spines -------------------------------

def prenex_query(k):
    return tuple(parse_type(side, "-") for side in prenex_source(k))


def node_builds(monkeypatch, run):
    """The type nodes `run()` builds: every node computes its facts once."""
    combine, count = syntax._combine, [0]

    def counted(*args):
        count[0] += 1
        return combine(*args)

    with monkeypatch.context() as patch:
        patch.setattr(syntax, "_combine", counted)
        run()
    return count[0]


@pytest.mark.parametrize("build,check", [
    pytest.param(prenex_query, lambda q: subtype_neg(Context(), *q), id="prenex"),
    pytest.param(lambda k: parse_program(spine_source(k)), check_program, id="spine"),
])
def test_node_builds_grow_linearly(build, check, monkeypatch):
    # with the block opened one quantifier at a time, these grow ~3.9x per
    # doubling: each opening rebuilds every quantifier inside it
    inputs = [build(k) for k in (16, 32, 64)]
    builds = [node_builds(monkeypatch, lambda: check(x)) for x in inputs]
    assert builds[0] > 16
    for small, large in zip(builds, builds[1:]):
        assert large <= 2.3 * small, builds


def test_assumption_types_are_built_once(monkeypatch):
    # every corpus program starts with the same 26 `val` lines: parsed again,
    # a program builds only the nodes of its `run` term's annotations
    for ex in EXAMPLES + STRIPPED:
        parse_program(ex.source)
        again = node_builds(monkeypatch, lambda: parse_program(ex.source))
        assert again == node_builds(monkeypatch, lambda: parse_program("run " + ex.term))


class CountedFindall:
    """A compiled pattern whose `findall` calls are counted, by text."""

    def __init__(self, pattern):
        self.pattern, self.texts = pattern, []

    def findall(self, text):
        self.texts.append(text)
        return self.pattern.findall(text)

    def __getattr__(self, name):
        return getattr(self.pattern, name)


def test_each_input_is_lexed_by_one_findall(monkeypatch):
    # a cold corpus pass lexes the first program whole and the other 34
    # behind their shared declaration block, each by one `findall`; the
    # next pass lexes only the first program's body, and a warm pass, or
    # finding the blocks, lexes nothing
    token = CountedFindall(parser._TOKEN)
    monkeypatch.setattr(parser, "_TOKEN", token)
    monkeypatch.setattr(parser, "_INPUT_TOKENS", {})
    monkeypatch.setattr(parser, "_PRELUDES", {})
    sources = [ex.source for ex in EXAMPLES + STRIPPED]
    for src in sources:
        parse_program(src)
    block = parser._block_length(sources[0])
    assert token.texts == sources[:1] + [src[block:] for src in sources[1:]]
    for expected in ([sources[0][block:]], []):
        token.texts.clear()
        for src in sources:
            parse_program(src)
            parser._block_length(src)
        assert token.texts == expected
    long = "run " + "".join(f"let x{i} = f(x{i - 1});\n" for i in range(1, 20_001)) + "return x"
    assert len(parser._lex(long, "f")[0]) > 20_000 * 8 and len(token.texts) == 1
    parser._block_length(long)
    assert len(token.texts) == 1


# -- contexts ---------------------------------------------------------------------------

def context_work(monkeypatch, sources):
    """The contexts built and the `_delta` and `_follows` calls of the
    extension checks in one `check --json` run per (source, traced) pair."""
    count, init = Counter(), syntax.Context.__init__

    def built(self, *args):
        count["builds"] += 1
        init(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(syntax.Context, "__init__", built)
        for name in ("_delta", "_follows"):
            def counted(*args, check=getattr(wellformed, name), name=name):
                count[name] += 1
                return check(*args)

            patch.setattr(wellformed, name, counted)
        for src, traced in sources:
            check_source_json(src, "x.ipf", with_trace=traced)
    return count


@pytest.mark.parametrize("sources,builds,deltas,follows", [
    pytest.param([(ex.source, traced) for ex in EXAMPLES + STRIPPED
                  for traced in (False, True)], 298, 194, 392, id="corpus"),
    pytest.param([(letchain_source(n), False) for n in (10, 100, 400)], 519, 1023, 2049,
                 id="letchains"),
    pytest.param([(spine_source(k), False) for k in (4, 16, 64)], 6, 87, 174,
                 id="spines"),
])
def test_context_work_within_budget(monkeypatch, sources, builds, deltas, follows):
    count = context_work(monkeypatch, sources)
    assert count["builds"] <= builds, count
    assert count["_delta"] <= deltas and count["_follows"] <= follows, count


# -- hashing ---------------------------------------------------------------------------

COMPOSITES = (Down, Up, Arrow, Data, NegData, Forall)


@pytest.fixture
def hash_computations(monkeypatch):
    """Count, per class, the hashes computed from a node's fields."""
    count = Counter()
    for cls in COMPOSITES:
        def counted(self, compute=cls._rehash):
            count[type(self).__name__] += 1
            return compute(self)

        monkeypatch.setattr(cls, "_rehash", counted)
    return count


def composite_nodes(t):
    """The distinct nodes with children in `t`, by identity."""
    return {id(n): n for n, _ in ref_nodes(t) if type(n) in COMPOSITES}


def test_a_type_is_hashed_once(hash_computations):
    src = "dn (ST Int Bool)"
    for i in range(32):
        src = f"dn (forall a{i}. a{i} -> up (List ({src} * a{i})))"
    for _ in range(5):
        src = f"List ({src})"
    t = parse_type(src, "+")
    assert t.height == MAX_TYPE_HEIGHT
    nodes = composite_nodes(t).values()
    assert len(nodes) > 190
    assert not hash_computations  # building a node hashes nothing
    first = hash(t)
    assert hash_computations == Counter(type(n).__name__ for n in nodes)
    hash_computations.clear()
    assert hash(t) == first and not hash_computations
    # a new node over hashed children computes its own hash only
    n = t
    while type(n) is Data:
        n = n.args[0]
    n = n.body  # the outermost quantifier, hashed with `t`
    hash(n)
    assert not hash_computations
    for new in (Down(n), Up(t), Arrow(t, n), Data("Pair", (t, t)),
                NegData("ST", (t, t)), Forall.bind("b", n)):
        hash(new)
        assert hash_computations == Counter({type(new).__name__: 1})
        hash_computations.clear()
