"""Exception types shared across the package."""


class DCError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the dctool exit status: 2 for input that fails validation,
    3 for a numerical failure on valid input.
    """

    exit_code = 2


class ShapeMismatch(DCError):
    """Operand shapes do not conform."""


class NonFinite(DCError):
    """A matrix entry is NaN or infinite."""


class NotAppreciable(DCError):
    """A value whose standard part must be nonzero is (numerically) infinitesimal."""


class SingularStandardPart(DCError):
    """The standard part has no inverse, so the matrix is not invertible."""

    exit_code = 3


class NotHermitian(DCError):
    """The matrix is not Hermitian (standard part Hermitian, infinitesimal part skew)."""


class NotSkewSymmetric(DCError):
    """The complex matrix is not skew-symmetric."""


class NotOrthogonal(DCError):
    """Vectors required to be orthogonal are not."""


class Inconsistent(DCError):
    """A linear system that should be consistent has a large residual."""

    exit_code = 3


class IllConditionedGap(DCError):
    """Two distinct eigenvalue clusters are too close; the reduction would amplify error."""

    exit_code = 3


class BadEigenspace(DCError):
    """Supplied vectors are not an orthonormal eigenspace basis."""


class UnknownEigenvalue(DCError):
    """The requested value matches no block of the decomposition."""


class AccuracyError(DCError):
    """An internal residual check failed; the computed factor was rejected."""

    exit_code = 3
