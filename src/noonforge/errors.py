"""Exception hierarchy.

Two families matter for the CLI exit-code contract: ``InputError`` (bad
files, specs, shapes, capacities -> exit 2) and ``NumericError`` (failed
numerical preconditions or degenerate results -> exit 3).
"""


class NoonforgeError(Exception):
    """Base class for all package errors."""


class InputError(NoonforgeError):
    """Invalid user-supplied input (file, spec string, shape, capacity)."""


class ShapeError(InputError):
    """Dimension or photon-number mismatch."""


class SpecError(InputError):
    """Malformed ket/superposition spec or invalid selection."""


class CapacityError(InputError):
    """Requested computation exceeds the configured size cap."""


class MatrixFileError(InputError):
    """Matrix file failed to parse or validate."""


class NumericError(NoonforgeError):
    """Numerical precondition failed or result is degenerate."""


class SingularMatrixError(NumericError):
    """Matrix is singular where an invertible one is required."""


class NotUnitaryError(NumericError):
    """Matrix fails the unitarity tolerance."""


class NotHermitianError(NumericError):
    """Matrix fails the Hermiticity tolerance."""


class BranchCutError(NumericError):
    """Unitary has an eigenvalue at -1, where the principal log is ambiguous."""


class ZeroProbabilityError(NumericError):
    """Post-selection kept no probability weight."""
