"""Preconditioned penalized least squares.

Library and CLI for the Puffer family of left-preconditioners, classical
estimators (OLS, ridge, marginal p-values), regular sparse penalties
with a generic coordinate-descent solver, and a harness that numerically
certifies the algebraic equivalences between the preconditioned fits and
the classical quantities.
"""

from .errors import DataError, DegreesOfFreedomError, NumericalError, RankError
from .estimators import InferenceResult, inference, ols, p_values, ridge, sigma_hat, z_stats
from .linalg import SvdFactors, gram_inverse_diagonal, rank_of, svd
from .penalties import (
    PenaltySpec,
    elastic_net,
    lasso,
    mcp,
    pen_derivative,
    pen_value,
    scad,
    soft_threshold,
    univariate_threshold,
)
from .preconditioners import (
    PreconditionedPair,
    project_rowspace,
    puffer,
    puffer_scaled,
    puffer_tau,
    ridge_via_precond,
    scaling_matrix,
)
from .solver import (
    FitResult,
    SolverConfig,
    lambda_max,
    multistart_local_minima,
    solve,
    solve_path,
)
from .verify import TheoremReport, default_suite

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DegreesOfFreedomError",
    "FitResult",
    "InferenceResult",
    "NumericalError",
    "PenaltySpec",
    "PreconditionedPair",
    "RankError",
    "SolverConfig",
    "SvdFactors",
    "TheoremReport",
    "default_suite",
    "elastic_net",
    "gram_inverse_diagonal",
    "inference",
    "lambda_max",
    "lasso",
    "mcp",
    "multistart_local_minima",
    "ols",
    "p_values",
    "pen_derivative",
    "pen_value",
    "project_rowspace",
    "puffer",
    "puffer_scaled",
    "puffer_tau",
    "rank_of",
    "ridge",
    "ridge_via_precond",
    "scad",
    "scaling_matrix",
    "sigma_hat",
    "soft_threshold",
    "solve",
    "solve_path",
    "svd",
    "univariate_threshold",
    "z_stats",
]
