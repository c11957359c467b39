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
# Rolling SD, and rolling CV's look-up of its floor, reduce blocks of windows
# of at most this many cells, so their temporaries stay near 512 KB whatever
# the series length.
_ROLLING_BLOCK_CELLS = 65_536
# Rolling windows all of whose values lie below 2**-_SD_SHIFT on the series'
# unit scale are taken on a lower scale (_by_scale): a value below 2**-s has
# an ulp down to 2**-(s + 53), whose square is normal (2**-1022 and up) only
# while s <= 458.
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

    Every value equals, to the bit, the statistic of its window alone:
    ``summarize``'s ``std_dev`` or ``coeff_variation`` (NaN where that is
    None, so the point count stays n - window + 1), or ``apen`` under
    ``apen_params``, wherever the window's nonzero values stay normal on the
    scale it is taken on. One rule picks that scale (``_by_scale``): the
    series' unit scale 2**e (``errors._unit_scale``), except that the
    windows wholly in a run of values below 2**(e - 400), a window long or
    more and not all zero, are taken on the run's own unit scale, and so on
    down. So no such window reads as constant or goes subnormal, and ApEn's
    zero-tolerance check sees each window on the scale where its matches
    are counted. SD and CV reduce blocks of windows over a sliding-window
    view; CV's undefined-mean floor, 1e-12 on the window's own unit scale as
    in ``summarize``, is looked up only for the windows whose mean lies
    below 1e-12 on the scale they are taken on. ApEn computes the distance
    of each pair of templates less than a window apart once per block of
    windows, counts the pairs within the smallest tolerance of the windows
    that hold them for all those windows at once, and compares a pair with
    each window's own tolerance only where it lies between its windows'
    smallest and largest tolerance (see ``apen._rolling_apen``).
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
    arr = _as_finite_array(arr)
    if dates is not None:
        labels = tuple(dates)
        if len(labels) != n:
            raise InvalidParameterError("dates and values must have equal length")
        labels = labels[window - 1 :]
    else:
        labels = tuple(range(window - 1, n))

    def body(unit, e):
        if stat is RollingStatistic.STD_DEV:
            return _from_unit_scale(_rolling_sd(unit, window), e, "the standard deviation")
        if stat is RollingStatistic.COEFF_VARIATION:
            return _rolling_cv(unit, window)
        r = params.tolerances(unit.size - window + 1, e, lambda: _rolling_sd(unit, window))
        return _rolling_apen(unit, window, params.m, r)

    return RollingSeries(stat, window, labels, _by_scale(arr, window, body))


def _min_window(stat: RollingStatistic, params: ApenParams) -> int:
    """Fewest observations a window of ``stat`` takes: m + 2 for ApEn, else 2."""
    return params.min_length if stat is RollingStatistic.APEN else 2


def _by_scale(arr: np.ndarray, window: int, body) -> np.ndarray:
    """The values of every window of ``arr``, from ``body(unit, e)``, which
    returns those of every window of ``unit`` on the unit scale 2**e.

    The windows lying wholly in a run of values below 2**(e - _SD_SHIFT)
    that is a window long or more and not all zero are taken on the run's
    own unit scale, and so on down; the rest are taken on the series' unit
    scale 2**e, one call for each stretch of consecutive windows. A series
    with no such run is one call.
    """
    unit, e = _unit_scale(arr)
    small = np.abs(arr) < np.ldexp(1.0, e - _SD_SHIFT)
    if not np.any(small & (arr != 0)):  # every such run is zeros, exact on this scale
        return body(unit, e)
    bounds = np.flatnonzero(np.diff(small, prepend=False, append=False)).reshape(-1, 2)
    runs = [(a, b) for a, b in bounds.tolist() if b - a >= window and arr[a:b].any()]
    # Windows [lo, hi) hold the values [lo, hi + window - 1): stretches of the
    # rest at even k, alternating with runs, whose windows are [a, b - window + 1).
    edges = [0, *(i for a, b in runs for i in (a, b - window + 1)), arr.size - window + 1]
    return np.concatenate([
        _by_scale(arr[lo : hi + window - 1], window, body) if k % 2
        else body(unit[lo : hi + window - 1], e)
        for k, (lo, hi) in enumerate(zip(edges, edges[1:])) if hi > lo
    ])


def _rolling_cv(unit: np.ndarray, window: int) -> np.ndarray:
    """Coefficient of variation of every window of ``unit``, NaN where the
    window's |mean| is below _CV_MEAN_FLOOR on the window's own unit scale.

    That floor is _CV_MEAN_FLOOR * 2**d, with 2**d the window's scale on this
    one (d <= 0), so only a window below _CV_MEAN_FLOOR here needs its d.
    """
    windows = sliding_window_view(unit, window)
    mean = windows.mean(axis=1)
    defined = np.abs(mean) >= _CV_MEAN_FLOOR
    low = np.flatnonzero(~defined)
    for part in np.array_split(low, 1 + low.size * window // _ROLLING_BLOCK_CELLS):
        d = np.frexp(np.abs(windows[part]).max(axis=1))[1]
        defined[part] = np.abs(mean[part]) >= np.ldexp(_CV_MEAN_FLOOR, d)
    return np.divide(_rolling_sd(unit, window), mean, out=np.full_like(mean, np.nan),
                     where=defined)


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
