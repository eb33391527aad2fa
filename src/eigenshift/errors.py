"""Exception hierarchy shared across the library."""


class EigenShiftError(Exception):
    """Base class for all library errors."""


class ShapeError(EigenShiftError):
    """Operands have non-conforming dimensions."""


class SingularMatrixError(EigenShiftError):
    """A matrix required to be nonsingular (or full rank) is not.

    Carries the rank that was actually found.
    """

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class BackendError(EigenShiftError):
    """A float or complex value was given where an exact scalar is needed."""


class InvalidParameterError(EigenShiftError):
    """A free parameter violates its constraint (e.g. a1*b1 = 0)."""


class InvalidChainError(EigenShiftError):
    """Vectors do not form a genuine Jordan chain (pair)."""


class NormalizationError(EigenShiftError):
    """A required normalization (e.g. r^T v = 1) does not hold."""


class InverseIdentityError(EigenShiftError):
    """R*V = I or U*L = I fails for supplied inverses."""


class ResolventError(EigenShiftError):
    """Resolvent requested at a point of the spectrum."""


class ExtractionError(EigenShiftError):
    """Canonical block extraction found a nonconforming residual block."""


class ReductionError(EigenShiftError):
    """Concentrated-form reduction failed its similarity verification."""


class ClassificationError(EigenShiftError):
    """Internal cycle verification failed with no usable fallback, or
    the rank-sequence oracle found its own invariants broken."""


class MissingEigenvalueError(EigenShiftError):
    """Supplied eigenvalue list does not cover the whole spectrum."""
