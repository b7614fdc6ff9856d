"""Well-formedness checks for types, contexts, and typing environments.

These gate every public checker entry point: universal variables must be
bound in the context, existentials must be tracked by it, solutions and
environment bindings must be ground.
"""

from __future__ import annotations

from .syntax import (
    Arrow, Context, Data, Down, EVar, Forall, NegData, Solved, TypeEnv, UVar,
    Universal, Up,
)

_NONE = frozenset()


def wf_type(theta: Context, t) -> bool:
    """True iff `t` only mentions variables the context knows about."""
    return _wf(t, theta.uvar_names(), theta.evar_names(), _NONE)


def _wf(t, uvars, evars, bound) -> bool:
    """Every universal of `t` is in `uvars` or bound, every existential in `evars`."""
    if isinstance(t, UVar):
        return t.name in bound or t.name in uvars
    if isinstance(t, EVar):
        return t.name in evars
    if isinstance(t, (Down, Up)):
        return _wf(t.body, uvars, evars, bound)
    if isinstance(t, (Data, NegData)):
        return all(_wf(a, uvars, evars, bound) for a in t.args)
    if isinstance(t, Arrow):
        return (_wf(t.domain, uvars, evars, bound)
                and _wf(t.codomain, uvars, evars, bound))
    if isinstance(t, Forall):
        # binders may shadow; track them separately from the context
        return _wf(t.body, uvars, evars, bound | {t.binder})
    return False


def wf_context(theta: Context) -> bool:
    """Entry names are fresh and every solution is ground and scoped to its prefix.

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
        elif isinstance(e, Solved) and not _wf(e.solution, universals, _NONE, _NONE):
            return False
    return True


def wf_env(theta: Context, gamma: TypeEnv) -> bool:
    """Every binding's type is ground and well-formed in the context."""
    uvars = theta.uvar_names()
    return all(_wf(p, uvars, _NONE, _NONE) for _, p in gamma)
