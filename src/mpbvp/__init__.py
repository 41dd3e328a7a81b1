"""Measure-valued boundary-value problems and their multipoint approximations.

Solve linear systems of complex ODEs of any order with general
(Stieltjes-measure) boundary conditions, build convergent sequences of
explicit multipoint problems, and certify the approximation error with
computable constants.
"""

from .approx import (
    ApproximationReport,
    ErrorConstants,
    SweepRow,
    approximate_coefficients,
    build_multipoint_problem,
    constant_shift_rhs,
    remark3_constants,
    sawtooth_perturbation,
    sawtooth_rhs,
    sweep,
    theorem2_check,
    theorem3_check,
)
from .boundary import (
    BoundaryTerm,
    GeneralBoundaryOperator,
    LiftedOperator,
    MultipointBoundaryOperator,
    apply_operator,
    default_probe_jets,
    lift,
    multipointify,
    norm_lower_bound,
    norm_upper_bound,
)
from .bvp import (
    BvpProblem,
    BvpSolution,
    NotUniquelySolvableError,
    companion_reduce,
    residuals,
    solve,
)
from .funcspace import (
    Grid,
    PiecewisePoly,
    PolyMatrix,
    PolyVector,
    SampledJet,
    antiderivative,
    mat_norm,
    norm_c,
    norm_cl,
    norm_l1,
    norm_w1r,
    traj_norm_c,
    vec_norm,
)
from .linode import (
    MatrixTrajectory,
    forced_trajectory,
    fundamental_matrix,
    inverse_fundamental,
)
from .problemfile import (
    ProblemFormatError,
    emit_problem,
    parse_problem,
    problem_from_dict,
    problem_to_dict,
)
from .stieltjes import (
    MatrixMeasure,
    ScalarMeasure,
    discretize_measure,
    rs_integrate,
    total_variation,
    tv_distance,
)
from . import corpus

__version__ = "0.1.0"

__all__ = [
    "ApproximationReport",
    "ErrorConstants",
    "SweepRow",
    "approximate_coefficients",
    "build_multipoint_problem",
    "constant_shift_rhs",
    "remark3_constants",
    "sawtooth_perturbation",
    "sawtooth_rhs",
    "sweep",
    "theorem2_check",
    "theorem3_check",
    "BoundaryTerm",
    "GeneralBoundaryOperator",
    "LiftedOperator",
    "MultipointBoundaryOperator",
    "apply_operator",
    "default_probe_jets",
    "lift",
    "multipointify",
    "norm_lower_bound",
    "norm_upper_bound",
    "BvpProblem",
    "BvpSolution",
    "NotUniquelySolvableError",
    "companion_reduce",
    "residuals",
    "solve",
    "Grid",
    "PiecewisePoly",
    "PolyMatrix",
    "PolyVector",
    "SampledJet",
    "antiderivative",
    "mat_norm",
    "norm_c",
    "norm_cl",
    "norm_l1",
    "norm_w1r",
    "traj_norm_c",
    "vec_norm",
    "MatrixTrajectory",
    "forced_trajectory",
    "fundamental_matrix",
    "inverse_fundamental",
    "ProblemFormatError",
    "emit_problem",
    "parse_problem",
    "problem_from_dict",
    "problem_to_dict",
    "MatrixMeasure",
    "ScalarMeasure",
    "discretize_measure",
    "rs_integrate",
    "total_variation",
    "tv_distance",
    "corpus",
]
