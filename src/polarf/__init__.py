"""polarf: a typechecker for a polarized System F with local, impredicative
type inference, plus a bounded declarative oracle for property testing."""

from .errors import (
    InvariantViolation, OracleBudgetExceeded, SourceSpan, TypeCheckError,
)
from .oracle import (
    candidate_universe, decl_iso, decl_subtype, decl_synth,
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
