"""deltasum: exponential-sum identities, oscillatory Bessel integrals, and
exact-rational exponent optimization, each checked against brute-force
oracles at desk scale."""

__version__ = "0.1.0"

from .characters import DirichletCharacter, enumerate_characters, gauss_sum
from .errors import (
    BudgetExceeded,
    ComputationError,
    DeltasumError,
    DomainError,
    Infeasible,
    InfeasiblePoint,
    InvalidValue,
    LimitExceeded,
    ModulusMismatch,
    NotInvertible,
    NotPrime,
    NotUnit,
    OutOfRange,
    ParameterInconsistency,
    PrincipalCharacter,
    QuadratureNonConvergence,
    SharedFactor,
    ShapeMismatch,
    Unbounded,
)
from .exponent import (
    BoundProblem,
    ExponentForm,
    OptimizationResult,
    evaluate_bound,
    minimize_max,
    paper_bound_problem,
    parse_problem_file,
    staged_elimination,
)
from .expsums import (
    ExpSumValue,
    PsiAverageParams,
    c3_closed,
    c3_raw,
    c4_correlation,
    d_sum,
    identity_tolerance,
    kloosterman,
    psi_average_closed,
    psi_average_raw,
    ramanujan_sum,
    twisted_kloosterman,
    twisted_split_check,
    voronoi_char_sum_closed,
    voronoi_char_sum_raw,
)
from .numcore import (
    Factorization,
    RationalAngle,
    angle_add,
    arithmetic_functions,
    factorize,
    mod_inv,
)
from .oscillatory import (
    IntegralParams,
    WindowFunction,
    bessel_j,
    integral_value_and_error,
    transition_cutoff,
)
from .scan import Lcg, ScanReport
from .suites import SUITES, run_suite
