"""Exception types shared across the package.

The CLI maps each error to its exit status by type, in ``cli._EXIT_CODES``.
"""


class TransportError(Exception):
    """Base class for all library errors."""


class BadParamError(TransportError):
    pass


class NonProbabilityError(TransportError):
    pass


class MixtureError(TransportError):
    pass


class GridMismatchError(TransportError):
    pass


class MassMismatchError(TransportError):
    pass


class BrokenPathError(TransportError):
    pass


class BadEndpointError(TransportError):
    pass


class InfeasiblePreconditionError(TransportError):
    pass


class UnreachableMassError(TransportError):
    pass


class PlanTooLargeError(TransportError):
    pass


class SizeCapError(TransportError):
    pass


class ScenarioFormatError(TransportError):
    pass


class NonFiniteError(TransportError):
    pass
