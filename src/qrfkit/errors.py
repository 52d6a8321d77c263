"""Exception hierarchy shared across the toolkit.

Every error carries a ``kind`` string ("shape", "domain", "numeric", "io") that
the command-line layer maps onto its documented exit codes.
"""

import operator


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


def _integer(value, what: str) -> int:
    """value by operator.index; a non-integer raises ShapeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ShapeError(f"{what} {value!r} is not an integer") from None


def _check_target(n: int, p, what: str = "perspective target", error=ShapeError, needs: str = "") -> int:
    """p by operator.index if in [0, n), else ShapeError or error; with needs, n < 2 raises TooFewQubitsError(needs)."""
    p = _integer(p, what)
    if not 0 <= p < n:
        raise error(f"{what} {p} outside register of {n} qubits")
    if needs and n < 2:
        raise TooFewQubitsError(needs)
    return p


def _check_tolerance(tol, what: str):
    """tol, unless it is NaN or negative, which would pass or refuse every value: then DomainError."""
    if not tol >= 0:
        raise DomainError(f"{what} tolerance must be a nonnegative number, got {tol}")
    return tol
