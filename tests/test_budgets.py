"""Rule budgets of the subtyping engine, counted in rules, not wall clock.

The invariant rules check both directions one level down.  Without the
per-run memo of ground/ground judgments that costs 2^d rules on nested
`List` and 4^d on nested `dn (up ...)`; with it, a depth-d ladder takes at
most 4*d + 1 rules.  The budget fixture stops a run as soon as it records
one rule too many, so an exponential engine fails these tests at once
instead of running for hours.
"""

import pytest

from polarf import Context, TypeCheckError, parse_type, subtype_pos
from polarf import cli, subtype
from polarf.cli import check_source_json, main


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
