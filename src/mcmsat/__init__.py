"""Exact minimal-adder realization of constant multiplication sets via
pseudo-Boolean satisfiability."""

from .encoder import EncodingConfig, encode_mcm, predict_size, preprocess_trivial
from .model import (
    AdderGraph,
    AOperationParams,
    GraphNode,
    McmError,
    McmInstance,
    apply_a_operation,
    check_solution,
    csd_digits,
    csd_upper_bound,
    heuristic_graph,
    normalize_targets,
    recoding_upper_bounds,
    recoding_witness,
    verify_solution,
)
from .oracle import SearchBudgetExceeded, brute_force_optimal
from .pb import Model, PbFormula, parse_opb, parse_solver_output
from .solve import (
    DecodeError,
    OptimizationReport,
    SolveOutcome,
    SolverError,
    decode_solution,
    optimal_mcm,
    solve,
    solve_encoding,
    witness_phase_hints,
)

__version__ = "0.1.0"
