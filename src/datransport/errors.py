"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` used by scenario
validation and by the CLI when mapping failures to exit codes.
"""


class TransportError(Exception):
    """Base class for all library errors."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class BadParamError(TransportError):
    code = "BAD_PARAM"


class NonProbabilityError(TransportError):
    code = "NON_PROBABILITY"


class MixtureError(TransportError):
    code = "BAD_MIXTURE"


class GridMismatchError(TransportError):
    code = "GRID_MISMATCH"


class MassMismatchError(TransportError):
    code = "MASS_MISMATCH"


class BrokenPathError(TransportError):
    code = "BROKEN_PATH"


class BadEndpointError(TransportError):
    code = "BAD_ENDPOINT"


class InfeasiblePreconditionError(TransportError):
    code = "INFEASIBLE_PRECONDITION"


class NonIncreasingTimesError(TransportError):
    code = "NON_INCREASING_TIMES"


class UnreachableMassError(TransportError):
    code = "UNREACHABLE_MASS"


class PlanTooLargeError(TransportError):
    code = "TOO_LARGE"


class SizeCapError(TransportError):
    code = "SIZE_CAP"


class ScenarioFormatError(TransportError):
    code = "BAD_SCENARIO"


class NonFiniteError(TransportError):
    code = "NON_FINITE"
