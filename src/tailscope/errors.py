"""Exception types raised across the library, and the input checks that raise them."""

import math

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


def _as_finite_array(
    values, *, min_n: int = 0, non_negative: bool = False, name: str = "values", ndim: int = 1
):
    """``values`` as a float64 array, checked in this order: ``ndim``
    dimensions, 1 for a series and 0 for a scalar (InvalidParameterError), at
    least ``min_n`` values (TooShortError), all finite (InvalidParameterError),
    and, when ``non_negative``, none below zero (NegativeValueError)."""
    arr = np.asarray(values, dtype=np.float64)
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


def _freeze(obj, **dtypes) -> None:
    """Replace each named field of the frozen dataclass ``obj`` with a
    read-only copy of the given dtype."""
    for field, dtype in dtypes.items():
        arr = np.array(getattr(obj, field), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, field, arr)
