"""Well-formedness checks for types, contexts, and typing environments.

These gate every public checker entry point: universal variables must be
bound in the context, existentials must be tracked by it, bound variables
must have a binder, solutions and environment bindings must be ground.
"""

from __future__ import annotations

from .syntax import (
    Context, NegType, PosType, Solved, TypeEnv, UVar, Universal, free_uvars,
    subst_uvars,
)

_NONE = frozenset()


def wf_type(theta: Context, t) -> bool:
    """True iff `t` only mentions variables the context knows about."""
    return _wf(t, theta.uvar_names, theta.evar_names)


def _wf(t, uvars, evars) -> bool:
    """Every node of `t` is a type, every universal of `t` is in `uvars`,
    every existential in `evars`, and every bound variable is under its
    binder; read from `t`'s facts."""
    return (isinstance(t, (PosType, NegType)) and t.typed and t.dangling < 0
            and t.uvars <= uvars and t.evars <= evars)


def wf_annotation(theta: Context, anno: PosType, renamed: dict):
    """An annotation's type in terms of the universals in scope, or None
    unless it is ground and well-formed there.  `renamed` maps the source
    names of shadowing type abstractions (see `syntax.bind_tyvar`)."""
    names = free_uvars(anno) & renamed.keys() if renamed else ()
    if any(renamed[a] is None for a in names):
        return None
    p = subst_uvars({a: UVar(renamed[a]) for a in names}, anno) if names else anno
    return p if _wf(p, theta.uvar_names, _NONE) else None


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
        elif isinstance(e, Solved) and not _wf(e.solution, universals, _NONE):
            return False
    return True


def wf_env(theta: Context, gamma: TypeEnv) -> bool:
    """Every binding's type is ground and well-formed in the context."""
    uvars = theta.uvar_names
    return all(_wf(p, uvars, _NONE) for _, p in gamma)
