"""Exception types raised across the library, and the input checks that raise them."""

import math
from enum import Enum

import numpy as np


class TailscopeError(Exception):
    """Base class for every error raised by this package."""


class MissingColumnError(TailscopeError):
    """Input CSV lacks a required header column."""


class UnparsableRowError(TailscopeError):
    """A CSV row could not be parsed; the message names the row."""


class NonPositivePriceError(TailscopeError):
    """A close price was zero or negative; the message names the date."""


class DuplicateDateError(TailscopeError):
    """Two observations share the same date."""


class EmptySeriesError(TailscopeError):
    """Operation requires a non-empty series."""


class TooShortError(TailscopeError):
    """Series is shorter than the operation's minimum length."""


class WindowTooSmallError(TailscopeError):
    """Rolling window is below the statistic's minimum size."""


class WindowTooLargeError(TailscopeError):
    """Rolling window exceeds the series length."""


class ZeroToleranceError(TailscopeError):
    """Relative tolerance resolved to zero (constant window)."""


class NegativeValueError(TailscopeError):
    """Input values must be non-negative."""


class TooFewPointsError(TailscopeError):
    """Curve has too few points to work with."""


class AllZeroError(TailscopeError):
    """Input values are all zero."""


class InvalidParameterError(TailscopeError):
    """A parameter value is outside its valid domain."""


class _Choice(str, Enum):
    """String enum whose unknown values raise InvalidParameterError naming the choices."""

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(member.value for member in cls)
        raise InvalidParameterError(f"{cls.__name__} must be one of {choices}, got {value!r}")


def _as_float64(values, name: str = "values") -> np.ndarray:
    """``values`` as a float64 array, or InvalidParameterError if numpy cannot convert it."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"{name} must be numeric: {exc}") from None


def _as_finite_array(
    values, *, min_n: int = 0, non_negative: bool = False, name: str = "values", ndim: int = 1
):
    """``values`` as a float64 array (``_as_float64``), checked in this order: ``ndim``
    dimensions, 1 for a series and 0 for a scalar (InvalidParameterError), at
    least ``min_n`` values (TooShortError), all finite (InvalidParameterError),
    and, when ``non_negative``, none below zero (NegativeValueError)."""
    arr = _as_float64(values, name)
    if arr.ndim != ndim:
        shape = "a scalar" if ndim == 0 else f"{ndim}-D"
        raise InvalidParameterError(f"{name} must be {shape}, got shape {arr.shape}")
    if arr.size < min_n:
        raise TooShortError(f"need at least {min_n} values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} must be finite")
    if non_negative and (arr < 0.0).any():
        raise NegativeValueError(f"{name} must be non-negative")
    return arr


def _unit_scale(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """``(arr * 2**-e, e)`` with max|arr| < 2**e <= 2 * max|arr| (e = 0 for all
    zeros). The scale is exact while nothing goes subnormal, and no sum, square
    or fourth power of the scaled values can overflow."""
    e = int(np.frexp(np.abs(arr).max())[1])
    return np.ldexp(arr, -e), e


def _from_unit_scale(value, e: int, name: str):
    """``value * 2**e``, or InvalidParameterError when that is beyond float64."""
    if (np.frexp(value)[1] + e > 1024).any():
        raise InvalidParameterError(f"{name} exceeds the float64 range")
    return np.ldexp(value, e)


def _finite_cell(raw: str, path, number: int, what: str) -> float:
    """The ``what`` cell of row ``number`` of the CSV file at ``path`` as a
    finite float; anything else raises UnparsableRowError naming the row."""
    try:
        value = float(raw)
    except ValueError:
        raise UnparsableRowError(f"{path.name} row {number}: unparsable {what} {raw!r}") from None
    if not math.isfinite(value):
        raise UnparsableRowError(f"{path.name} row {number}: non-finite {what} {raw!r}")
    return value


def _as_int(value, message: str, *, low=-math.inf, high=math.inf) -> int:
    """``value`` as an int; a bool, a non-integer or a value outside
    [low, high] raises InvalidParameterError(message)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= value <= high):
        raise InvalidParameterError(message)
    return int(value)


def _freeze(obj, same_length=(), **kinds) -> None:
    """Convert each named field of the frozen dataclass ``obj``, in the order
    given: a ``_Choice`` enum or ``tuple`` is called on the value, and a numpy
    dtype gives a read-only 1-D copy of that dtype (float64 converts as
    ``_as_float64`` does, naming the field). Then the fields named in
    ``same_length`` must have equal lengths. A field that breaks a rule
    raises InvalidParameterError."""
    for field, kind in kinds.items():
        value = getattr(obj, field)
        if issubclass(kind, np.generic):
            if kind is np.float64:
                value = _as_float64(value, field)
            value = np.array(value, dtype=kind)
            if value.ndim != 1:
                raise InvalidParameterError(f"{field} must be 1-D, got shape {value.shape}")
            value.setflags(write=False)
        else:
            value = kind(value)
        object.__setattr__(obj, field, value)
    if len({len(getattr(obj, field)) for field in same_length}) > 1:
        *first, last = same_length
        raise InvalidParameterError(f"{', '.join(first)} and {last} must have equal length")
