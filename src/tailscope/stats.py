"""Descriptive statistics and a rolling-window engine."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .apen import ApenParams, _rolling_apen
from .errors import (
    InvalidParameterError,
    WindowTooLargeError,
    WindowTooSmallError,
    _as_finite_array,
    _as_float64,
    _as_int,
    _Choice,
    _freeze,
)

# Below this magnitude the mean is treated as zero and CV flagged undefined.
_CV_MEAN_FLOOR = 1e-12
# Rolling SD reduces blocks of windows of at most this many cells, so its
# temporaries stay near 512 KB whatever the series length.
_ROLLING_BLOCK_CELLS = 65_536
# Below this max|dev| the fourth powers of the deviations leave the normal
# float64 range (2**-1022), so kurtosis is taken on rescaled deviations.
_QUARTIC_FLOOR = 2.0**-255


class RollingStatistic(_Choice):
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


def _excess_kurtosis(arr: np.ndarray) -> float:
    # Sample-adjusted Fisher-Pearson estimator; 0 for a normal population.
    n = arr.size
    if n < 4:
        return float("nan")
    dev = arr - arr.mean()
    peak = np.abs(dev).max()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        quartic = _quartic_ratio(dev) if peak >= _QUARTIC_FLOOR else np.nan
        if not np.isfinite(quartic):
            # Kurtosis is scale-invariant, so moments that overflow, go
            # subnormal or whose square vanishes are taken again on
            # dev / max|dev|; a constant sample stays NaN.
            quartic = _quartic_ratio(dev / peak)
    adjust = 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * quartic - adjust


def _quartic_ratio(dev: np.ndarray) -> float:
    s2 = (dev**2).sum() / (dev.size - 1)
    return float((dev**4).sum() / (s2 * s2))


def summarize(values) -> StatsSummary:
    """Mean, sample SD, coefficient of variation, and excess kurtosis."""
    arr = _as_finite_array(values, min_n=2)
    mean, sd = arr.mean(), arr.std(ddof=1)
    cv = sd / mean if abs(mean) >= _CV_MEAN_FLOOR else np.nan
    kurt = _excess_kurtosis(arr)
    return StatsSummary(
        n=int(arr.size),
        mean=float(mean),
        std_dev=float(sd),
        coeff_variation=None if np.isnan(cv) else float(cv),
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
        _freeze(self, values=np.float64)
        if len(self.dates) != self.values.size:
            raise InvalidParameterError("dates and values must have equal length")

    def __len__(self) -> int:
        return len(self.dates)


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
    1e-12 of zero) yield NaN so point count stays n - window + 1. SD and CV
    reduce blocks of windows over a sliding-window view, and ApEn counts the
    matches of a chunk of windows at once (see ``apen._rolling_apen``); every
    value is bit-identical to the statistic of its window alone.
    """
    arr = _as_float64(values)
    stat = RollingStatistic(statistic)
    n = arr.size
    window = _as_int(window, "window must be an integer")
    params = apen_params if apen_params is not None else ApenParams()
    minimum = params.min_length if stat is RollingStatistic.APEN else 2
    if window < minimum:
        raise WindowTooSmallError(
            f"window {window} is below the minimum {minimum} for {stat.value}"
        )
    if window > n and arr.ndim == 1:  # other shapes fail the dimension rule below
        raise WindowTooLargeError(f"window {window} exceeds series length {n}")
    _as_finite_array(arr)
    if dates is not None:
        labels = tuple(dates)
        if len(labels) != n:
            raise InvalidParameterError("dates and values must have equal length")
        labels = labels[window - 1 :]
    else:
        labels = tuple(range(window - 1, n))
    if stat is RollingStatistic.APEN:
        r = params.tolerances(n - window + 1, lambda: _rolling_sd(arr, window))
        out = _rolling_apen(arr, window, params.m, r)
    else:
        out = _rolling_sd(arr, window)
        if stat is RollingStatistic.COEFF_VARIATION:
            mean = sliding_window_view(arr, window).mean(axis=1)
            defined = np.abs(mean) >= _CV_MEAN_FLOOR
            out = np.divide(out, mean, out=np.full_like(out, np.nan), where=defined)
    return RollingSeries(stat, window, labels, out)


def _rolling_sd(arr: np.ndarray, window: int) -> np.ndarray:
    """Sample SD of every window of ``arr``.

    Each window is reduced on its own row with the same pairwise sums as
    ``summarize``'s SD, so the values match its values to the bit.
    """
    windows = sliding_window_view(arr, window)
    sd = np.empty(windows.shape[0])
    step = max(1, _ROLLING_BLOCK_CELLS // window)
    for start in range(0, sd.size, step):
        sd[start : start + step] = windows[start : start + step].std(axis=1, ddof=1)
    return sd
