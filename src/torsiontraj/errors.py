"""Exception types shared across the library.

Usage errors (bad parameters, malformed data) and computation refusals
(capability limits, failed gate hypotheses) are kept distinct so the
command-line layer can map them to different exit codes.
"""


class TorsionTrajError(Exception):
    """Base class for all library errors."""


class SingularMatrixError(TorsionTrajError):
    """A nonsingular matrix was required and the matrix is singular."""


class ParameterError(TorsionTrajError):
    """A parameter is outside the documented domain of an operation."""


class ValidationError(TorsionTrajError):
    """Structured data (a homomorphism, a package) violates its invariants."""


class DimensionError(ValidationError):
    """Matrix shapes are incompatible with the requested operation.

    A matrix of the wrong shape is malformed data, so this is a
    ValidationError: from outside data it is a usage error.
    """


class InvariantError(TorsionTrajError):
    """A computed result fails an identity that the mathematics guarantees.

    Raised instead of an ``assert`` so that the check also runs under
    ``python -O``.  It signals a defect in the library, or an input that
    bypassed the usual validation.
    """


class CapabilityError(TorsionTrajError):
    """The input is valid but beyond what this implementation supports."""
