"""Exact-arithmetic engine for finite-dimensional Poisson-Lie structures.

Provides exact symbolic expressions, bracket-table verification, structure
matrix degeneracy analysis, Casimir invariant computation via graded ansatz
and exact nullspace, and numeric flow cross-checks, together with the ``plq``
command line interface and a built-in example corpus.
"""

from .canonical import (CanonicalRealization, ClosureReport,
                        NotExpressibleError, canonical_bracket,
                        express_in_generators, verify_closure)
from .corpus import corpus_data, corpus_names, corpus_problem
from .expr import (ExprError, LogExpr, Poly, RatFunc, VarTable, diff,
                   sigma_poly, substitute)
from .flow import (DriftReport, FlowConfig, FlowPoleError, FlowResult,
                   abstract_flow, canonical_flow, generator_trajectory)
from .parsing import ParseError, parse_expression, parse_ratfunc, to_string
from .problem import Problem, ProblemError, build_problem, load_problem
from .solver import (AnsatzSpec, CasimirBasis, InvariantReport,
                     independence_rank, solve_casimirs, solve_with_escalation,
                     verify_invariant)
from .structure import (DEFAULT_SEED, BracketTable, JacobiReport, RankReport,
                        bind_parameters, generic_rank, jacobi_check)

__all__ = [
    "AnsatzSpec", "BracketTable", "CanonicalRealization", "CasimirBasis",
    "ClosureReport", "DEFAULT_SEED", "DriftReport", "ExprError", "FlowConfig",
    "FlowPoleError", "FlowResult", "InvariantReport", "JacobiReport",
    "LogExpr", "NotExpressibleError", "ParseError", "Poly", "Problem",
    "ProblemError", "RankReport", "RatFunc", "VarTable", "abstract_flow",
    "bind_parameters", "build_problem", "canonical_bracket", "canonical_flow",
    "corpus_data", "corpus_names", "corpus_problem", "diff",
    "express_in_generators", "generator_trajectory", "generic_rank",
    "independence_rank", "jacobi_check", "load_problem", "parse_expression",
    "parse_ratfunc", "sigma_poly", "solve_casimirs",
    "solve_with_escalation", "substitute", "to_string", "verify_closure",
    "verify_invariant",
]

__version__ = "0.1.0"
