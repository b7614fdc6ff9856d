"""Well-formedness checks for types, contexts, and typing environments.

These gate every public checker entry point: universal variables must be bound
in the context, existentials must be tracked by it, bound variables must have a
binder, solutions and environment bindings must be positive and ground.
"""

from __future__ import annotations

from itertools import compress
from operator import is_not

from .errors import InvariantViolation
from .syntax import (
    Context, NegType, PosType, Solved, TypeEnv, UVar, Universal, Unsolved,
    free_uvars, subst_uvars,
)

_NONE = frozenset()


def wf_type(theta: Context, t) -> bool:
    """True iff `t` only mentions variables the context knows about."""
    return _wf(t, theta.uvar_names, theta.evar_names)


def _wf(t, uvars, evars, cls=(PosType, NegType)) -> bool:
    """`t` is a type of class `cls`, every universal of `t` is in `uvars`,
    every existential in `evars`, and every bound variable is under its
    binder; read from `t`'s root class and facts."""
    return isinstance(t, cls) and t.dangling < 0 and t.uvars <= uvars and t.evars <= evars


def wf_annotation(theta: Context, anno: PosType, renamed: dict):
    """An annotation's type in terms of the universals in scope, or None
    unless it is positive, ground and well-formed there.  `renamed` maps
    the source names of shadowing type abstractions (`syntax.bind_tyvar`)."""
    names = free_uvars(anno) & renamed.keys() if renamed else ()
    if any(renamed[a] is None for a in names):
        return None
    p = subst_uvars({a: UVar(renamed[a]) for a in names}, anno) if names else anno
    return p if _wf(p, theta.uvar_names, _NONE, PosType) else None


def wf_context(theta: Context) -> bool:
    """Entry names are fresh and every solution is positive, ground and scoped to its prefix.

    One pass: `universals` holds the universals seen so far, which is all a
    ground solution can mention.
    """
    seen = set()
    universals = set()
    for e in theta.entries:
        if e.name in seen:
            return False
        seen.add(e.name)
        if isinstance(e, Universal):
            universals.add(e.name)
        elif isinstance(e, Solved) and not _wf(e.solution, universals, _NONE, PosType):
            return False
    return True


def wf_extension(theta: Context, out: Context, weak: bool = False) -> bool:
    """For a well-formed `theta`: is `out` well-formed, and does it extend
    `theta` (or, if `weak`, weakly extend it)?  Equal to `wf_context(out)
    and extends(theta, out)`, read from what changed, or from the checks
    that already led from `theta` to `out`.

    Lemma 1 (context extension, after Dunfield and Krishnaswami, "Complete
    and Easy Bidirectional Typechecking for Higher-Rank Polymorphism",
    ICFP 2013).  Let `theta` be well-formed, and let `out` have `theta`'s
    length (or, if `weak`, at least that length).  Then `out` is
    well-formed and (weakly) extends `theta` iff
    1. each of `out`'s first len(theta) entries is equal to `theta`'s entry
       at that position, or is `Solved(x, p)` where `theta` has
       `Unsolved(x)`, and each such new solution `p` is ground and
       mentions only universals that come before it; and
    2. (if `weak`) each entry past `theta`'s is an existential, named
       neither in `theta` nor earlier past it, and its solution, if it has
       one, is ground and mentions only universals of `theta`.
    Proof: an entry of `theta` can become an entry of an extension only by
    staying equal, or by an unsolved existential gaining a solution; that
    is 1 without its scope condition, and 2 without its scope condition is
    what weak extension asks of the entries past `theta`.  `out` then has
    `theta`'s names in `theta`'s order, so its names are distinct iff the
    names past `theta` are new and distinct, and every entry has the same
    universals before it as in `theta`.  So a solution that `out` shares
    with `theta` is well-formed in its prefix because it was in `theta`'s,
    and what is left of `wf_context(out)` is the scope condition on the
    solutions that are new, which 1 and 2 check.

    Lemma 2 (transitivity, ibid.).  If `mid` is a well-formed extension of
    the well-formed `theta`, and `out` one of `mid`, then `out` is a
    well-formed extension of `theta`; the same holds for weak extension,
    and an extension is a weak extension.  Proof: well-formedness of `out`
    is given.  An entry of `theta` is equal in `mid` or solved there from
    unsolved, and then equal in `out` or solved there from unsolved; a
    solved entry stays equal, so it is equal in `out` or solved from
    unsolved.  And an entry past `theta` in `out` is past `theta` in `mid`
    or past `mid`: an existential, fresh, with a well-formed solution.

    So this check costs what changed.  If `out is theta` there is nothing
    to check.  A check that passes stamps `out` with `theta` (`_extends`);
    then, when the stamps of `out` lead back to `theta` in a few steps,
    Lemma 2 decides, and the stamps found are what the premises of a rule
    checked: a rule whose output is the object its last premise returned
    reads one stamp per premise.  Otherwise this reads the entries that
    are not the very objects `theta` has (a scan in C), and the entries
    past `theta`.  A stamp says only that one context is a (weak)
    extension of another, if that other is well-formed, which stays true;
    a strong check follows only strong stamps.
    """
    if out is theta:
        return True
    if not (_follows(theta, out, weak) or _delta(theta, out, weak)):
        return False
    out._extends = (theta, weak)
    return True


# the stamps read before the delta check decides: one per premise of the
# longest sequence of premises a rule has, but for the datatype rule,
# which has two per argument
_HOPS = 4


def _follows(theta: Context, out: Context, weak: bool) -> bool:
    """Do checked extensions lead from `theta` to `out` (Lemma 2)?"""
    c = out
    for _ in range(_HOPS):
        stamp = c._extends
        if stamp is None or stamp[1] and not weak:
            return False
        c = stamp[0]
        if c is theta:
            return True
    return False


def _delta(theta: Context, out: Context, weak: bool) -> bool:
    """Lemma 1's conditions, read from the entries that changed."""
    old, new = theta.entries, out.entries
    n = len(old)
    if len(new) != n and not (weak and len(new) > n):
        return False
    positions = theta.positions
    for i in compress(range(n), map(is_not, old, new)):
        e, e2 = old[i], new[i]
        if e == e2:
            continue
        if not (type(e) is Unsolved and type(e2) is Solved and e2.name == e.name
                and scoped(e2.solution, theta, i)):
            return False
    names = set()
    uvars = theta.uvar_names  # all of them come before the pushed entries
    for e in new[n:]:
        name = e.name
        if (type(e) is Universal or name in positions or name in names
                or type(e) is Solved and not _wf(e.solution, uvars, _NONE, PosType)):
            return False
        names.add(name)
    return True


def scoped(p, theta: Context, i: int) -> bool:
    """Is `p` positive and ground, and does it mention only universals that
    come before position `i` of the well-formed context `theta`?"""
    positions = theta.positions
    return _wf(p, theta.uvar_names, _NONE, PosType) and all(positions[a] < i for a in p.uvars)


def restrict_context(theta_prime: Context, theta: Context) -> Context:
    """theta_prime without the existentials pushed after theta's entries:
    its first len(theta) entries, which keep their (possibly newer)
    solutions.  `theta` must be well-formed; raises InvariantViolation
    unless theta_prime is well-formed and weakly extends it."""
    if not wf_extension(theta, theta_prime, weak=True):
        raise InvariantViolation(
            "restriction input is ill-formed or does not weakly extend its target")
    restricted = theta_prime.cut(theta)
    if restricted is not theta:
        # the first len(theta) entries of a weak extension extend theta
        restricted._extends = (theta, False)
    return restricted


def wf_env(theta: Context, gamma: TypeEnv) -> bool:
    """Every binding's type is positive, ground and well-formed in the context."""
    uvars = theta.uvar_names
    return all(_wf(p, uvars, _NONE, PosType) for _, p in gamma)
