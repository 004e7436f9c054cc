"""Uniqueness analysis for second-order diffusion generators.

Decides whether a f'' + b f' - V f generates a unique bounded semigroup
(L-infinity uniqueness) via endpoint integral tests, with multidimensional
radial comparison, and cross-checks the verdict against Feynman-Kac
sampling and a conservative Fokker-Planck solver.
"""

from .errors import (
    ConfigError,
    DiffuniqError,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
    ValidationError,
)
from .expr import eval_expr, format_expr, free_vars, parse_expr, parse_expr_multi
from .gridfn import GridFunction
from .operator import (
    Operator1D,
    OperatorND,
    RadialBound,
    make_operator_1d,
    make_operator_nd,
    radial_bound,
)
from .quadrature import IntegralVerdict, improper_integral, log_scale
from .uniqueness import (
    INCONCLUSIVE,
    NOT_UNIQUE,
    PROOF_FAITHFUL,
    STRICT_THEOREM,
    UNIQUE,
    Verdict,
    endpoint_condition,
    entrance_test,
    monotone_solution,
    nd_verdicts,
    uniqueness_1d,
    uniqueness_nd,
)
from .fdsolver import (
    ABSORBING,
    REFLECTING,
    FPState,
    Grid1D,
    bc_sensitivity_probe,
    duality_check,
    fp_solve,
    gaussian_state,
)
from .montecarlo import FKEstimate, coupled_radial_comparison, feynman_kac

__version__ = "0.1.0"

__all__ = [
    "ABSORBING", "ConfigError", "DiffuniqError",
    "DomainError", "ExprSyntaxError", "FKEstimate", "FPState",
    "GridFunction", "Grid1D", "INCONCLUSIVE", "IntegralVerdict", "NOT_UNIQUE",
    "Operator1D", "OperatorND", "PROOF_FAITHFUL", "RadialBound",
    "REFLECTING", "STRICT_THEOREM", "UNIQUE", "UnknownIdentifier",
    "ValidationError", "Verdict", "bc_sensitivity_probe",
    "coupled_radial_comparison", "duality_check", "endpoint_condition",
    "entrance_test", "eval_expr", "feynman_kac", "format_expr", "fp_solve",
    "free_vars", "gaussian_state", "improper_integral", "log_scale",
    "make_operator_1d",
    "make_operator_nd", "monotone_solution", "nd_verdicts", "parse_expr",
    "parse_expr_multi", "radial_bound", "uniqueness_1d", "uniqueness_nd",
]
