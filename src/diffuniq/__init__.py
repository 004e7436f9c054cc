"""Uniqueness analysis for second-order diffusion generators.

Decides whether a f'' + b f' - V f generates a unique bounded semigroup
(L-infinity uniqueness) via endpoint integral tests, with multidimensional
radial comparison, and cross-checks the verdict against Feynman-Kac
sampling and a conservative Fokker-Planck solver.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DiffuniqError,
    DomainError,
    ExprSyntaxError,
    UnknownIdentifier,
    ValidationError,
)
from .expr import free_vars, parse_expr
from .gridfn import GridFunction
from .operator import (
    Operator1D,
    OperatorND,
    make_operator_1d,
    make_operator_nd,
    radial_bound,
)
from .quadrature import IntegralVerdict
from .uniqueness import (
    INCONCLUSIVE,
    NOT_UNIQUE,
    PROOF_FAITHFUL,
    STRICT_THEOREM,
    UNIQUE,
    Verdict,
    endpoint_condition,
    entrance_test,
    nd_verdicts,
    uniqueness_1d,
)
from .fdsolver import (
    ABSORBING,
    REFLECTING,
    FPState,
    Grid1D,
    bc_sensitivity_probe,
    fp_solve,
    gaussian_state,
)
from .montecarlo import FKEstimate, feynman_kac

__all__ = [
    "ABSORBING", "ConfigError", "DiffuniqError",
    "DomainError", "ExprSyntaxError", "FKEstimate", "FPState",
    "GridFunction", "Grid1D", "INCONCLUSIVE", "IntegralVerdict", "NOT_UNIQUE",
    "Operator1D", "OperatorND", "PROOF_FAITHFUL", "REFLECTING",
    "STRICT_THEOREM", "UNIQUE", "UnknownIdentifier", "ValidationError",
    "Verdict", "bc_sensitivity_probe",
    "endpoint_condition", "entrance_test", "feynman_kac", "fp_solve",
    "free_vars", "gaussian_state", "make_operator_1d", "make_operator_nd",
    "nd_verdicts", "parse_expr", "radial_bound", "uniqueness_1d",
]
