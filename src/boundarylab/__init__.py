"""Numerical laboratory for boundary behavior of fully nonlinear elliptic
equations in Lipschitz and C1 graph domains: moduli of continuity,
regularized distances, Pucci barriers, a monotone cut-cell grid solver,
and a dyadic boundary-growth measurement harness."""

from .errors import (
    BoundaryLabError, ConfigError, ConvergenceError, DomainError,
    InfeasibleError, MonotonicityError, QuadratureError,
)
from .modulus import (
    Modulus, constant, dini_integral, log_modulus,
    make_composite, power, table,
)
from .geometry import BoundaryGraph, C1Report, check_c1_conditions
from .regdist import Mollifier, RegularizedDistanceField
from .pucci import EllipticityPair, pucci_minus, pucci_plus, sym_eigvals
from .barriers import (
    Barrier, BarrierReport, SandwichReport, barrier_hessian_value,
    check_special_solution_sandwich, minimal_passing_epsilon,
    sample_domain_points, special_solution, verify_barrier,
)
from .solver import (
    ABPReport, FixedOp, GridProblem, GridSolution, LaplaceOp, PucciOp,
    abp_check, discretize, solve,
)
from .harness import (
    GrowthReport, envelope_lower, envelope_upper, fit_log_slope,
    measure_boundary_modulus, measure_growth,
)
from .calibrate import (
    CalibrationConstants, epsilon_for, load_calibration, run_calibration,
    save_calibration,
)

__version__ = "0.1.0"
