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
    _from_unit_scale,
    _unit_scale,
)

# Below this |mean| on the unit scale (errors._unit_scale) CV is undefined.
_CV_MEAN_FLOOR = 1e-12
# Rolling SD reduces blocks of windows of at most this many cells, so its
# temporaries stay near 512 KB whatever the series length.
_ROLLING_BLOCK_CELLS = 65_536
# A window all of whose values lie below 2**-_SD_SHIFT on the series' unit
# scale takes its SD on a lower scale: a value below 2**-s has an ulp down to
# 2**-(s + 53), whose square is normal (2**-1022 and up) only while s <= 458.
_SD_SHIFT = 400


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
    coeff_variation: float | None  # None when |mean| < 1e-12 * 2**e, max|x| < 2**e <= 2 max|x|
    excess_kurtosis: float | None  # None when n < 4 or the sample is constant


def _excess_kurtosis(arr: np.ndarray) -> float:
    # Sample-adjusted Fisher-Pearson estimator; 0 for a normal population.
    # Scale-free, so taken on the deviations' own unit scale.
    n = arr.size
    dev = _unit_scale(arr - arr.mean())[0]
    if n < 4 or not dev.any():
        return float("nan")
    s2 = (dev**2).sum() / (n - 1)
    quartic = float((dev**4).sum() / (s2 * s2))
    adjust = 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    return n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * quartic - adjust


def summarize(values) -> StatsSummary:
    """Mean, sample SD, coefficient of variation, and excess kurtosis."""
    unit, e = _unit_scale(_as_finite_array(values, min_n=2))
    mean, sd = unit.mean(), unit.std(ddof=1)
    cv = sd / mean if abs(mean) >= _CV_MEAN_FLOOR else np.nan
    kurt = _excess_kurtosis(unit)
    return StatsSummary(
        n=int(unit.size),
        mean=float(_from_unit_scale(mean, e, "the mean")),
        std_dev=float(_from_unit_scale(sd, e, "the standard deviation")),
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
        _freeze(self, ("dates", "values"), statistic=RollingStatistic, dates=tuple,
                values=np.float64)

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

    Every statistic is taken on the series' one unit scale 2**e
    (``errors._unit_scale``). Windows that leave a coefficient of variation
    undefined (mean within 1e-12 * 2**e of zero) yield NaN so point count
    stays n - window + 1. SD and CV reduce blocks of windows over a
    sliding-window view. ApEn computes the distances of a chunk of windows
    once, counts the ones within the chunk's smallest tolerance for all its
    windows at once, and compares only those between its smallest and largest
    tolerance window by window (see ``apen._rolling_apen``). Every value is
    bit-identical to the statistic of its window alone on that scale, or, for
    an SD window all below 2**(e - 400), on the scale of its run of such
    values (``_rolling_sd_by_runs``), which gives its ``summarize`` SD.
    """
    arr = _as_float64(values)
    stat = RollingStatistic(statistic)
    n = arr.size
    window = _as_int(window, "window must be an integer")
    params = apen_params if apen_params is not None else ApenParams()
    minimum = _min_window(stat, params)
    if window < minimum:
        message = f"window {window} is below the minimum {minimum} for {stat.value}"
        raise WindowTooSmallError(message)
    if window > n and arr.ndim == 1:  # other shapes fail the dimension rule below
        raise WindowTooLargeError(f"window {window} exceeds series length {n}")
    unit, e = _unit_scale(_as_finite_array(arr))
    if dates is not None:
        labels = tuple(dates)
        if len(labels) != n:
            raise InvalidParameterError("dates and values must have equal length")
        labels = labels[window - 1 :]
    else:
        labels = tuple(range(window - 1, n))
    if stat is RollingStatistic.APEN:
        r = params.tolerances(n - window + 1, e, lambda: _rolling_sd(unit, window))
        out = _rolling_apen(unit, window, params.m, r)
    elif stat is RollingStatistic.STD_DEV:
        out = _rolling_sd_by_runs(arr, unit, e, window)
    else:
        mean = sliding_window_view(unit, window).mean(axis=1)
        out = np.divide(_rolling_sd(unit, window), mean, out=np.full_like(mean, np.nan),
                        where=np.abs(mean) >= _CV_MEAN_FLOOR)
    return RollingSeries(stat, window, labels, out)


def _min_window(stat: RollingStatistic, params: ApenParams) -> int:
    """Fewest observations a window of ``stat`` takes: m + 2 for ApEn, else 2."""
    return params.min_length if stat is RollingStatistic.APEN else 2


def _rolling_sd_by_runs(arr: np.ndarray, unit: np.ndarray, e: int, window: int) -> np.ndarray:
    """Sample SD of every window of ``arr`` (``unit`` on its scale 2**e), in data
    units. Each run of values below 2**(e - _SD_SHIFT), a window long or more,
    is taken again on its own scale, where none go subnormal, and so on down."""
    out = _from_unit_scale(_rolling_sd(unit, window), e, "the standard deviation")
    small = np.abs(arr) < np.ldexp(1.0, e - _SD_SHIFT)
    if np.any(small & (arr != 0)):  # else every such window is zeros: SD 0 either way
        bounds = np.flatnonzero(np.diff(small, prepend=False, append=False)).reshape(-1, 2)
        for start, stop in bounds[bounds[:, 1] - bounds[:, 0] >= window]:
            run = arr[start:stop]
            out[start : stop - window + 1] = _rolling_sd_by_runs(run, *_unit_scale(run), window)
    return out


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
