"""Exception types shared across the package."""


class CoopDetectError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CoopDetectError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(CoopDetectError):
    """A matrix required to be Hermitian positive definite is not."""


class InvalidConfig(CoopDetectError):
    """A configuration object failed validation; message lists the fields."""


class ConfigMismatch(CoopDetectError):
    """Two objects that must describe the same experiment do not line up."""


class UnknownEdge(CoopDetectError):
    """A message was addressed along an edge that is not in the backhaul graph."""


class StateConsistencyError(CoopDetectError):
    """A solver state invariant failed (e.g. the maintained covariance drifted)."""


class DegenerateClasses(CoopDetectError):
    """A rate is undefined because one of the two activity classes is empty."""
