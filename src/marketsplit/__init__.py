"""Exact feasibility solver for market split / n-dimensional subset sum."""

from .enumerate1d import (
    CandidateBatch,
    PairSumEnumerator,
    QuarterTable,
    RunBlocks,
    SumsetEnumerator,
    assemble_solution,
    build_quarter_tables,
    permuted_rhs,
)
from .instances import (
    MspInstance,
    ParseError,
    ReductionOverflowError,
    SolutionVector,
    generate_instance,
    parse_instance,
    solution_encoding,
    solution_from_string,
    solution_to_string,
    surrogate_reduce,
    verify_solution,
    write_instance,
)
from .oracle import brute_force_all, two_list_all
from .solver import (
    SolveResult,
    SolveStats,
    SolveTimeout,
    SolverConfig,
    solve,
)
from .validate import (
    EncodedSet,
    ResidualSet,
    compute_residuals,
    encode_batch,
    encode_vector,
    get_backend,
    match_batch,
    validate_chunked,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateBatch",
    "EncodedSet",
    "MspInstance",
    "PairSumEnumerator",
    "ParseError",
    "QuarterTable",
    "ReductionOverflowError",
    "ResidualSet",
    "RunBlocks",
    "SolutionVector",
    "SolveResult",
    "SolveStats",
    "SolveTimeout",
    "SolverConfig",
    "SumsetEnumerator",
    "assemble_solution",
    "brute_force_all",
    "build_quarter_tables",
    "compute_residuals",
    "encode_batch",
    "encode_vector",
    "generate_instance",
    "get_backend",
    "match_batch",
    "parse_instance",
    "permuted_rhs",
    "solution_encoding",
    "solution_from_string",
    "solution_to_string",
    "solve",
    "surrogate_reduce",
    "two_list_all",
    "validate_chunked",
    "verify_solution",
    "write_instance",
]
