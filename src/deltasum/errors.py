"""Exception taxonomy.

Domain-validation errors (bad input values) and computational errors
(budget, overflow, non-convergence) are kept in separate branches so the
CLI can map them to distinct exit codes.
"""


class DeltasumError(Exception):
    """Base class for all toolkit errors."""


class DomainError(DeltasumError):
    """Invalid argument values (maps to CLI exit code 2)."""


class ComputationError(DeltasumError):
    """Resource or numerical failure (maps to CLI exit code 3)."""


class NotInvertible(DomainError):
    pass


class NotPrime(DomainError):
    pass


class NotUnit(DomainError):
    pass


class PrincipalCharacter(DomainError):
    pass


class ModulusMismatch(DomainError):
    pass


class SharedFactor(DomainError):
    pass


class ParameterInconsistency(DomainError):
    pass


class InfeasiblePoint(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class Infeasible(DomainError):
    pass


class Unbounded(DomainError):
    pass


class OutOfRange(DeltasumError):
    """A value outside the supported range; raised as one of the two kinds
    below, so the CLI can tell a bad argument from a size limit."""


class InvalidValue(OutOfRange, DomainError):
    """An argument outside its mathematical domain (exit code 2)."""


class LimitExceeded(OutOfRange, ComputationError):
    """A size bound (2**31, 2**40, 2**62) or a rounding contract exceeded
    (exit code 3)."""


class BudgetExceeded(ComputationError):
    pass


class QuadratureNonConvergence(ComputationError):
    pass
