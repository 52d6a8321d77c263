"""Exception hierarchy shared across the toolkit.

Every error carries a ``kind`` string ("shape", "domain", "numeric", "io") that
the command-line layer maps onto its documented exit codes.
"""


class QrfError(Exception):
    """Base class for all toolkit errors."""

    kind = "domain"


class ShapeError(QrfError):
    """Structural problem: wrong register size, bad index, malformed split."""

    kind = "shape"


class DomainError(QrfError):
    """Input outside the mathematical domain of an operation."""

    kind = "domain"


class NumericError(QrfError):
    """Input violates a numerical tolerance (norm, diagonality, ...)."""

    kind = "numeric"


class IoError(QrfError):
    """File cannot be read, written, or parsed as a state document."""

    kind = "io"


class NotPowerOfTwoError(ShapeError):
    pass


class NormToleranceError(NumericError):
    pass


class EmptyKeepSetError(ShapeError):
    pass


class NotDiagonalError(NumericError):
    pass


class TooFewQubitsError(ShapeError):
    pass


class DimensionMismatchError(ShapeError):
    pass


class WrongQubitCountError(ShapeError):
    pass


class InvalidBipartitionError(ShapeError):
    pass


class UnknownQuantityError(DomainError):
    pass


class GridError(DomainError):
    pass


class NonPositiveInputError(DomainError):
    pass


def _require_member(value, kind, what: str):
    """value, if it is a member of the enum kind; anything else raises UnknownQuantityError."""
    if not isinstance(value, kind):
        raise UnknownQuantityError(f"unknown {what} {value!r}")
    return value
