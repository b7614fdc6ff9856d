"""polarf: a typechecker for a polarized System F with local, impredicative
type inference, plus a bounded declarative oracle for property testing."""

from .errors import (
    InvariantViolation, OracleBudgetExceeded, SourceSpan, TypeCheckError,
)
from .parser import (
    BUILTIN_DATATYPES, DataDecl, Program, parse_program, parse_type, pretty,
)
from .subtype import (
    SubtypeResult, TraceStep, isomorphic, subtype_neg, subtype_pos,
)
from .syntax import (
    ArgList, Arrow, BVar, BoolLit, Computation, Context, Data, Down, EVar,
    Forall, IntLit, Lambda, Let, LetAnn, NegData, NegType, PairVal, PosType,
    Return, Solved, Thunk, TypeAbs, TypeEnv, UVar, Universal, Unsolved, Up,
    Value, Var, apply_context, extends, free_uvars, is_ground, num_prenex,
    subst_type,
)
from .typecheck import (
    SynthResult, check_program, synth_computation, synth_spine, synth_value,
)
from .wellformed import restrict_context, wf_context, wf_env, wf_type

__version__ = "0.1.0"

# The oracle is loaded when one of its names is first read (PEP 562), so
# that `polarf check`, which never runs it, does not import it.
_ORACLE = ("candidate_universe", "decl_iso", "decl_subtype", "decl_synth")


def __getattr__(name):
    if name in _ORACLE:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module 'polarf' has no attribute {name!r}")
