"""Exception hierarchy shared across the toolkit.

Every error carries a ``kind`` string ("shape", "domain", "numeric", "io") that
the command-line layer maps onto its documented exit codes.
"""

import numbers
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


def _real(value, message: str, error=DomainError) -> float:
    """value as a float if it is a numbers.Real other than a bool; anything else raises error(message % value)."""
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):  # float, int: no ABC lookup
        return float(value)
    raise error(message % (value,))


def _iterable(value, what: str, error):
    """iter(value); a value that is not iterable, such as None or an int, raises error."""
    try:
        return iter(value)
    except TypeError:
        raise error(f"{what} must be a collection, got {value!r}") from None


def _check_target(n: int, p, what: str = "perspective target", error=ShapeError, needs: str = "") -> int:
    """p by operator.index if in [0, n), else ShapeError or error; with needs, n < 2 raises TooFewQubitsError(needs)."""
    p = _integer(p, what)
    if not 0 <= p < n:
        raise error(f"{what} {p} outside register of {n} qubits")
    if needs and n < 2:
        raise TooFewQubitsError(needs)
    return p


def _check_tolerance(tol, what: str) -> float:
    """tol as a float, unless it is NaN or negative, which would pass or refuse every value, or no real number: then
    DomainError."""
    message = f"{what} tolerance must be a nonnegative number, got %r"
    if not _real(tol, message) >= 0.0:
        raise DomainError(message % (tol,))
    return float(tol)
