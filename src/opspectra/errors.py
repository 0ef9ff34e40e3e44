"""Exception types shared across the library."""


class OperatorLibraryError(Exception):
    """Base class for all errors raised by this library."""


class PointOnCurve(OperatorLibraryError):
    """The queried point lies (numerically) on the symbol curve."""


class EssentialPoint(PointOnCurve):
    """The point belongs to the essential spectrum; no Fredholm index exists."""


class NotHermitian(OperatorLibraryError):
    """A matrix or operator expected to be Hermitian is not."""


class ConvergenceFailure(OperatorLibraryError):
    """A dense linear-algebra kernel failed to converge."""


class DimensionMismatch(OperatorLibraryError):
    """A truncation is too small to carry out the requested construction."""


class NotStabilized(OperatorLibraryError):
    """A spectral count could not be made at the working precision."""


class NotHyponormal(OperatorLibraryError):
    """The operator failed the hyponormality precondition."""


class NotNormAttainingClass(OperatorLibraryError):
    """The operator failed the absolutely-norm-attaining precondition."""


class TemplateMismatch(OperatorLibraryError):
    """The conjugated truncation violates the expected block zero pattern."""

    def __init__(self, message, block_norms=None):
        super().__init__(message)
        self.block_norms = dict(block_norms or {})


class SpecFileError(OperatorLibraryError):
    """Base class for operator spec file problems."""


class ParseError(SpecFileError):
    """The spec file is malformed (syntax, types, unknown fields)."""


class ValidationError(SpecFileError):
    """The spec file parsed but describes an invalid operator."""
