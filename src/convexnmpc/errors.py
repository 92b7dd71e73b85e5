"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error JSON and map failures to exit codes.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"
    exit_code = 2

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class SchemaError(ToolkitError):
    """Malformed system file or config input."""

    code = "SCHEMA"
    exit_code = 3


class RegionEmptyError(ToolkitError):
    code = "REGION_EMPTY"
    exit_code = 1


class UncontrollableError(ToolkitError):
    code = "UNCONTROLLABLE"
    exit_code = 1


class InvalidOutputVectorError(ToolkitError):
    code = "INVALID_OUTPUT_VECTOR"
    exit_code = 1


class IllConditionedError(ToolkitError):
    code = "ILL_CONDITIONED"
    exit_code = 1


class SignAmbiguousError(ToolkitError):
    code = "SIGN_AMBIGUOUS"
    exit_code = 1


class PreconditionError(ToolkitError):
    code = "PRECONDITION"
    exit_code = 1


class NoConvergenceError(ToolkitError):
    code = "NO_CONVERGENCE"
    exit_code = 2


class NoFiniteDeterminationError(ToolkitError):
    code = "NO_FINITE_DETERMINATION"
    exit_code = 2


class NoPositiveLevelError(ToolkitError):
    code = "NO_POSITIVE_LEVEL"
    exit_code = 2


class OutOfRangeError(ToolkitError):
    code = "OUT_OF_RANGE"
    exit_code = 3


class InfeasibleStateError(ToolkitError):
    """Raised when no candidate scenario is optimal for a query state."""

    code = "INFEASIBLE_STATE"
    exit_code = 2

    def __init__(self, message, step=None, partial=None, **details):
        super().__init__(message, **details)
        self.step = step
        self.partial = partial


class CatalogMismatchError(ToolkitError):
    code = "CATALOG_HASH_MISMATCH"
    exit_code = 3
