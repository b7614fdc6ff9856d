"""A fresh existential is named against its context.

Opening a quantifier `forall a` gives the existential `?a` plus the
smallest number from 0 up whose name neither the context nor the block
being opened holds, as `forall-right` names a universal.  So a name is a
function of the context: unrelated earlier lets do not move it, and a
memo hit, which leaves the context as it is, cannot either.
"""

import pytest

from polarf import (
    Context, Data, TypeCheckError, Universal, Unsolved, check_program,
    parse_program, parse_type, subtype_neg,
)
from polarf.corpus import ENVIRONMENT
from polarf.subtype import _Engine

T = parse_type


class Forgetful(_Engine):
    """A checking run that remembers no judgment."""

    def _remember(self, *args):
        pass


def opened(trace, theta):
    """The existentials that the steps of `trace` hold and `theta` does not."""
    return {e.name for step in trace for ctx in (step.before, step.after)
            for e in ctx.entries if type(e) is not Universal} - theta.evar_names


def test_a_quantifier_opens_past_the_names_the_context_holds():
    theta = Context((Unsolved("?a0"), Unsolved("?a2")))
    res = subtype_neg(theta, T("forall a. a -> up a"), T("Int -> up Int"))
    assert opened(res.trace, theta) == {"?a1"}
    assert res.context == theta


def test_a_block_opens_past_its_own_names():
    theta = Context((Unsolved("?a0"),))
    n = T("forall a. forall a. a -> up a")  # the inner binder shadows the outer
    res = subtype_neg(theta, n, T("Int -> up Int"))
    assert opened(res.trace, theta) == {"?a1", "?a2"}


@pytest.mark.parametrize("earlier", ["", "let u = id(1); ",
                                     "let u = single(id); let v = head(u); "])
def test_earlier_lets_do_not_move_a_name(earlier):
    """Corpus E1's application names `?a1` after any unrelated earlier lets."""
    program = parse_program(f"{ENVIRONMENT}\nrun {earlier}let t = k(h, lst); return t\n")
    with pytest.raises(TypeCheckError) as e:
        check_program(program)
    assert e.value.kind == "subtype-failure"
    assert e.value.message.endswith(
        "solution a mentions variables bound after ?a1 was introduced "
        "(while checking a <=+ ?a1)")


def test_the_memo_opens_the_names_deriving_again_opens():
    """`Tri T T U` against itself, with `?a1` in the context: the run and a
    run that remembers nothing open the same names, to the same answer."""
    t, u = T("dn (forall a. a -> up a)"), T("dn (forall a. a -> a -> up a)")
    tri = Data("Tri", (t, t, u))
    theta = Context((Unsolved("?a1"),))
    run, again = _Engine(), Forgetful()
    assert run.subtype("+", theta, tri, tri) == again.subtype("+", theta, tri, tri) == theta
    assert any(step.rule == "memo" for step in run.trace)
    assert opened(run.trace, theta) == opened(again.trace, theta) == {"?a0"}
