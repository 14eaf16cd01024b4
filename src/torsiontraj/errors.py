"""Exception types shared across the library.

One class covers every usage error: ``ValidationError``, a bad
parameter or malformed data, which the command line maps to exit 2.
The other ``TorsionTrajError`` classes are refusals (a capability
limit, a failed gate hypothesis, a broken identity), mapped to exit 1.
"""


class TorsionTrajError(Exception):
    """Base class for all library errors."""


class ValidationError(TorsionTrajError):
    """A parameter is outside its documented domain, or structured data
    (a homomorphism, a package) violates its invariants."""


class DimensionError(ValidationError):
    """Matrix shapes are incompatible with the requested operation.

    A matrix of the wrong shape is malformed data, so this is a
    ValidationError: from outside data it is a usage error.
    """


class SingularMatrixError(ValidationError):
    """A nonsingular matrix was required and the matrix is singular.

    Like a wrong shape, a singular matrix is malformed data for the
    operation that refuses it.
    """


class InvariantError(TorsionTrajError):
    """A computed result fails an identity that the mathematics guarantees.

    Raised instead of an ``assert`` so that the check also runs under
    ``python -O``.  It signals a defect in the library, or an input that
    bypassed the usual validation.
    """


class CapabilityError(TorsionTrajError):
    """The input is valid but beyond what this implementation supports."""
