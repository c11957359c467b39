"""Descriptive statistics and a rolling-window engine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .apen import ApenParams, apen as _apen_value
from .errors import (
    InvalidParameterError,
    TooShortError,
    WindowTooLargeError,
    WindowTooSmallError,
)

# Below this magnitude the mean is treated as zero and CV flagged undefined.
_CV_MEAN_FLOOR = 1e-12
# Rolling SD and CV reduce blocks of windows of at most this many cells, so
# their temporaries stay near 512 KB whatever the series length.
_ROLLING_BLOCK_CELLS = 65_536


class RollingStatistic(str, Enum):
    STD_DEV = "std_dev"
    COEFF_VARIATION = "coeff_variation"
    APEN = "apen"


@dataclass(frozen=True)
class StatsSummary:
    """Sample summary; std_dev uses the n-1 denominator, kurtosis is excess."""

    n: int
    mean: float
    std_dev: float
    coeff_variation: float | None  # None when |mean| < 1e-12
    excess_kurtosis: float | None  # None when n < 4 or the sample is constant

    def to_row(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "std_dev": self.std_dev,
            "coeff_variation": self.coeff_variation,
            "excess_kurtosis": self.excess_kurtosis,
        }


def _std(arr: np.ndarray) -> float:
    return float(arr.std(ddof=1))


def _coeff_variation(arr: np.ndarray) -> float:
    mean = arr.mean()
    if abs(mean) < _CV_MEAN_FLOOR:
        return float("nan")
    return float(arr.std(ddof=1) / mean)


def _excess_kurtosis(arr: np.ndarray) -> float:
    # Sample-adjusted Fisher-Pearson estimator; 0 for a normal population.
    n = arr.size
    if n < 4:
        return float("nan")
    dev = arr - arr.mean()
    s2 = float((dev**2).sum()) / (n - 1)
    if s2 == 0.0:
        return float("nan")
    quartic = float((dev**4).sum()) / (s2 * s2)
    adjust = 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * quartic - adjust


def summarize(values) -> StatsSummary:
    """Mean, sample SD, coefficient of variation, and excess kurtosis."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise TooShortError("summary statistics need at least two values")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("values must be finite")
    cv = _coeff_variation(arr)
    kurt = _excess_kurtosis(arr)
    return StatsSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std_dev=_std(arr),
        coeff_variation=None if np.isnan(cv) else cv,
        excess_kurtosis=None if np.isnan(kurt) else kurt,
    )


@dataclass(frozen=True, eq=False)
class RollingSeries:
    """Windowed statistic values, each dated at its window's last observation."""

    statistic: RollingStatistic
    window: int
    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "statistic", RollingStatistic(self.statistic))
        object.__setattr__(self, "dates", tuple(self.dates))
        values = np.array(self.values, dtype=np.float64)
        if len(self.dates) != values.size:
            raise InvalidParameterError("dates and values must have equal length")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def points(self) -> list[tuple]:
        return [(day, float(value)) for day, value in zip(self.dates, self.values)]


def rolling(
    values,
    window: int,
    statistic: RollingStatistic | str,
    *,
    dates=None,
    apen_params: ApenParams | None = None,
) -> RollingSeries:
    """Apply ``statistic`` to every contiguous window of exactly ``window``
    observations, producing n - window + 1 points dated at window ends.

    Windows that leave a coefficient of variation undefined (mean within
    1e-12 of zero) yield NaN so point count stays n - window + 1. Windows
    are independent; evaluation is safe to parallelize.
    """
    arr = np.asarray(values, dtype=np.float64)
    stat = RollingStatistic(statistic)
    n = arr.size
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)):
        raise InvalidParameterError("window must be an integer")
    window = int(window)
    if stat is RollingStatistic.APEN:
        params = apen_params if apen_params is not None else ApenParams()
        minimum = params.m + 2
    else:
        params = None
        minimum = 2
    if window < minimum:
        raise WindowTooSmallError(
            f"window {window} is below the minimum {minimum} for {stat.value}"
        )
    if window > n:
        raise WindowTooLargeError(f"window {window} exceeds series length {n}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("values must be finite")
    if dates is not None:
        labels = tuple(dates)
        if len(labels) != n:
            raise InvalidParameterError("dates and values must have equal length")
        labels = labels[window - 1 :]
    else:
        labels = tuple(range(window - 1, n))
    out = np.empty(n - window + 1, dtype=np.float64)
    if stat is RollingStatistic.APEN:
        for i in range(out.size):
            out[i] = _apen_value(arr[i : i + window], params)
    else:
        # Each window is reduced on its own row with the same pairwise sums
        # as _std and _coeff_variation, so the values match theirs to the bit.
        windows = sliding_window_view(arr, window)
        step = max(1, _ROLLING_BLOCK_CELLS // window)
        for start in range(0, out.size, step):
            block = windows[start : start + step]
            sd = block.std(axis=1, ddof=1)
            if stat is RollingStatistic.COEFF_VARIATION:
                mean = block.mean(axis=1)
                defined = np.abs(mean) >= _CV_MEAN_FLOOR
                sd = np.divide(sd, mean, out=np.full_like(sd, np.nan), where=defined)
            out[start : start + step] = sd
    return RollingSeries(stat, window, labels, out)
