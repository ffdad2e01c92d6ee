"""One-phase interior-point solver for inequality-constrained programs.

Solves ``min f(x) s.t. a(x) <= 0`` (nonconvex allowed) and always
terminates with a first-order certificate: optimality, local primal
infeasibility, or unboundedness of the shifted feasible set.  No
feasibility-restoration phase and no penalty parameter: primal residual,
complementarity and the barrier parameter are driven to zero at one rate.

The names below are the public API.  Solver internals (steps, linear
algebra, merit functions) are imported from their defining modules.
"""

from .iterate import Iterate, SolveStatus, SolverOptions
from .problem import (
    EvaluationError,
    LinearRow,
    NlpProblem,
    ProblemTransform,
    Relation,
    SourceConstraint,
    SourceProblem,
    check_derivatives,
    to_inequality_form,
)
from .problem_file import (
    ProblemFile,
    ProblemFileError,
    build_source,
    parse_problem_file,
    serialize_problem_file,
)
from .registry import BuiltinProblem, builtin_registry
from .solver import SolveResult, TraceRecord, solve

__version__ = "0.1.0"

__all__ = [
    "BuiltinProblem",
    "EvaluationError",
    "Iterate",
    "LinearRow",
    "NlpProblem",
    "ProblemFile",
    "ProblemFileError",
    "ProblemTransform",
    "Relation",
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "SourceConstraint",
    "SourceProblem",
    "TraceRecord",
    "build_source",
    "builtin_registry",
    "check_derivatives",
    "parse_problem_file",
    "serialize_problem_file",
    "solve",
    "to_inequality_form",
]
