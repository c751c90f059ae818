"""Minimum-size decision set learning over binarized data via SAT/MaxSAT.

The package trains unordered rule sets whose size is counted in literals
(each body literal and each head is one node), proving minimality with
a CDCL SAT solver and trading accuracy against size with MaxSAT.
"""

from .cardinality import build_totalizer
from .dataset import (BinDataset, DatasetError, FoldPlan, RawDataset, SanitizeReport,
                      binarize, kfold_split, load_csv, sanitize)
from .cover import minimize_exact_fit
from .dimacs import emit_dimacs, parse_dimacs
from .encoder import (CnfBundle, EncodingError, Scope, VarMap, build_bounded,
                      build_perfect, build_sparse, exactly_one, lam_to_cost)
from .formula import Assignment, Formula, FormulaError, check_model, normalize_clause
from .model import (DecisionSet, EvalReport, ModelError, Rule, decode, deserialize,
                    evaluate, load_model, save_model, serialize, verify_perfect)
from .optimizer import (ContradictionError, MaxsatResult, OptimizerError, SearchLimits,
                        SolveOutcome, default_node_budget, maxsat_solve, minimize_bounded,
                        minimize_perfect, minimize_sparse)
from .solver import SolveBudgetExceeded, Solver

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BinDataset",
    "CnfBundle",
    "ContradictionError",
    "DatasetError",
    "DecisionSet",
    "EncodingError",
    "EvalReport",
    "FoldPlan",
    "Formula",
    "FormulaError",
    "MaxsatResult",
    "ModelError",
    "OptimizerError",
    "RawDataset",
    "Rule",
    "SanitizeReport",
    "Scope",
    "SearchLimits",
    "SolveBudgetExceeded",
    "SolveOutcome",
    "Solver",
    "VarMap",
    "binarize",
    "build_bounded",
    "build_perfect",
    "build_sparse",
    "build_totalizer",
    "check_model",
    "decode",
    "default_node_budget",
    "deserialize",
    "emit_dimacs",
    "evaluate",
    "exactly_one",
    "kfold_split",
    "lam_to_cost",
    "load_csv",
    "load_model",
    "maxsat_solve",
    "minimize_bounded",
    "minimize_exact_fit",
    "minimize_perfect",
    "minimize_sparse",
    "normalize_clause",
    "parse_dimacs",
    "sanitize",
    "save_model",
    "serialize",
    "verify_perfect",
]
