"""Extreme-value diagnostics for non-negative samples.

Two tools: empirical mean-excess curves with a tail-shape label, and
maximum-to-sum traces that diagnose whether the p-th moment of a sample
can be trusted.

The mean excess at threshold ``a`` is the average overshoot of the values
strictly above ``a``. Its shape over ascending thresholds separates thin
tails (decreasing), memoryless exponential-like tails (constant), and
scalable heavy tails (increasing: linear growth points to the generalized
Pareto family, convex growth to lognormality). The highest order
statistics are trimmed before the curve is built because they average too
few observations to be stable.

The maximum-to-sum trace max(x_1^p..x_n^p) / sum(x_i^p) converges to zero
with n exactly when the p-th moment is finite; a trace stuck away from
zero means empirical moments of that order are dominated by extremes. The
verdict attached to a trace is advisory; the full trace is the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AllZeroError,
    InvalidParameterError,
    TooFewPointsError,
    _as_finite_array,
    _as_int,
    _freeze,
)

# Shape classifier: normalized-slope band and convexity vote share.
SLOPE_THRESHOLD = 0.10
CONVEX_VOTE = 0.70
# Convexity is voted on the data-dense lower part of the curve, averaged
# into rank blocks; high thresholds are too noisy to carry curvature signs.
_CONVEXITY_RANK_FRACTION = 0.45
_CONVEXITY_BLOCKS = 13

# Verdict thresholds for maximum-to-sum traces.
FINAL_CONVERGING = 0.02
DECILE_CONVERGING = 0.05
FINAL_NOT_CONVERGING = 0.10


class MefShape(str, Enum):
    DECREASING = "decreasing"
    CONSTANT = "constant"
    INCREASING_LINEAR = "increasing_linear"
    INCREASING_CONVEX = "increasing_convex"
    UNCLASSIFIED = "unclassified"


class Verdict(str, Enum):
    CONVERGING = "converging"
    NOT_CONVERGING = "not_converging"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class MefCurve:
    """Mean-excess values over ascending distinct thresholds."""

    thresholds: np.ndarray
    mean_excess: np.ndarray
    exceedances: np.ndarray
    trimmed: int  # top order statistics discarded before building the curve
    shape: MefShape

    def __post_init__(self):
        object.__setattr__(self, "shape", MefShape(self.shape))
        _freeze(self, thresholds=np.float64, mean_excess=np.float64, exceedances=np.int64)

    def __len__(self) -> int:
        return int(self.thresholds.size)


@dataclass(frozen=True, eq=False)
class MaxSumTrace:
    """Running max-to-sum ratio of order p; ratios[k] is the ratio at n = k+1."""

    p: int
    ratios: np.ndarray
    verdict: Verdict

    def __post_init__(self):
        object.__setattr__(self, "verdict", Verdict(self.verdict))
        _freeze(self, ratios=np.float64)

    def __len__(self) -> int:
        return int(self.ratios.size)


def fitted_slope(curve: MefCurve) -> float:
    """Exceedance-weighted least-squares slope of a mean-excess curve.

    Weighting each point by its exceedance count suppresses the noisy
    high-threshold end. For a generalized Pareto tail with shape xi the
    slope estimates xi / (1 - xi).
    """
    if len(curve) < 2:
        raise TooFewPointsError("slope fit needs at least 2 points")
    weights = curve.exceedances.astype(np.float64)
    return _slope(curve.thresholds, curve.mean_excess, weights)


def _slope(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> float:
    """Least-squares slope of y on x, weighted by w.

    np.polyfit scales the columns of its design matrix by their norms, which
    overflow for values beyond about 1e154 and underflow to zero below about
    1e-154, leaving a meaningless fit or a LAPACK error. Only then are x and y
    divided by their own powers of two and the slope multiplied back by the
    exact ratio, so every fit that succeeds directly keeps its bits.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return float(np.polyfit(x, y, 1, w=w)[0])
    except FloatingPointError:
        ex = np.frexp(np.abs(x).max())[1]
        ey = np.frexp(np.abs(y).max())[1]
        slope = np.polyfit(np.ldexp(x, -ex), np.ldexp(y, -ey), 1, w=w)[0]
        return float(np.ldexp(slope, ey - ex))


def mean_excess_at(values, threshold: float) -> float:
    """Average overshoot above a finite ``threshold`` in finite ``values``:
    sum(x - a for x > a) / count."""
    arr = _as_finite_array(values)
    a = _as_finite_array(threshold, name="threshold", ndim=0)
    over = arr[arr > a]
    if over.size == 0:
        raise InvalidParameterError(f"no observations above threshold {threshold!r}")
    return float((over - a).sum() / over.size)


def mean_excess(values, trim_fraction: float = 0.02) -> MefCurve:
    """Empirical mean-excess curve of a non-negative sample.

    Thresholds are the ascending distinct order statistics after discarding
    the top k = max(3, ceil(trim_fraction * n)) order statistics, so every
    retained threshold sits strictly below the sample maximum and has at
    least one exceedance. Callers pass closing prices or absolute returns;
    signed values are rejected.
    """
    if not 0.0 <= trim_fraction < 0.5:
        raise InvalidParameterError("trim_fraction must lie in [0, 0.5)")
    arr = _as_finite_array(values, min_n=10, non_negative=True)
    n = arr.size
    k = max(3, math.ceil(trim_fraction * n))
    sorted_vals = np.sort(arr)
    candidates = sorted_vals[: n - k - 1]
    thresholds = np.unique(candidates)
    thresholds = thresholds[thresholds < sorted_vals[-1]]
    if thresholds.size == 0:
        raise TooFewPointsError("no thresholds strictly below the sample maximum")
    # Suffix sums over the sorted sample give every threshold in O(n log n).
    first_above = np.searchsorted(sorted_vals, thresholds, side="right")
    counts = n - first_above
    with np.errstate(over="ignore", invalid="ignore"):
        suffix = np.cumsum(sorted_vals[::-1])[::-1]
        excess = suffix[first_above] - thresholds * counts
        me = excess / counts
    if not np.isfinite(me).all():
        raise InvalidParameterError("suffix sums overflow float64; mean excess is not finite")
    try:
        shape = classify_shape(thresholds, me)
    except TooFewPointsError:
        shape = MefShape.UNCLASSIFIED
    return MefCurve(thresholds, me, counts, trimmed=k, shape=shape)


def classify_shape(thresholds, mean_excess_values) -> MefShape:
    """Label a mean-excess curve as decreasing, constant, or increasing,
    sub-classifying increases as linear or convex.

    The least-squares slope s of me against threshold is normalized to
    sigma = s * (a_max - a_min) / mean(me); |sigma| < SLOPE_THRESHOLD maps
    to constant, the sign decides between decreasing and increasing. An
    increasing curve is convex when at least CONVEX_VOTE of its second
    differences are positive. Second differences are divided differences
    (slope changes), so uneven threshold spacing carries no bias, and they
    are taken on rank-block averages of the lower portion of the curve:
    order-statistic thresholds cluster at low values where the curve is
    stable, while the sparse top would contribute only noise.
    """
    a = np.asarray(thresholds, dtype=np.float64)
    me = np.asarray(mean_excess_values, dtype=np.float64)
    if a.size != me.size:
        raise InvalidParameterError("thresholds and mean-excess lengths differ")
    if a.size < 5:
        raise TooFewPointsError(f"shape classification needs >= 5 points, got {a.size}")
    _as_finite_array(a, name="thresholds")
    _as_finite_array(me, name="mean-excess values")
    if (np.diff(a) <= 0).any():
        raise InvalidParameterError("thresholds must be strictly increasing")
    slope = _slope(a, me)
    scale = float(me.mean())
    span = float(a[-1] - a[0])
    sigma = slope * span / scale if scale != 0.0 else float("nan")
    if not np.isfinite(sigma):
        return MefShape.UNCLASSIFIED
    if abs(sigma) < SLOPE_THRESHOLD:
        return MefShape.CONSTANT
    if sigma <= -SLOPE_THRESHOLD:
        return MefShape.DECREASING
    vote = _convexity_vote(a, me)
    if vote >= CONVEX_VOTE:
        return MefShape.INCREASING_CONVEX
    return MefShape.INCREASING_LINEAR


def _convexity_vote(a: np.ndarray, me: np.ndarray) -> float:
    """Share of positive second differences over the lower-rank block means."""
    half = max(3, math.ceil(a.size * _CONVEXITY_RANK_FRACTION))
    blocks = min(_CONVEXITY_BLOCKS, half)
    edges = np.unique(np.round(np.linspace(0, half, blocks + 1)).astype(int))
    a_mean = np.array([a[s:e].mean() for s, e in zip(edges[:-1], edges[1:])])
    me_mean = np.array([me[s:e].mean() for s, e in zip(edges[:-1], edges[1:])])
    left = (me_mean[1:-1] - me_mean[:-2]) / (a_mean[1:-1] - a_mean[:-2])
    right = (me_mean[2:] - me_mean[1:-1]) / (a_mean[2:] - a_mean[1:-1])
    # Positive beyond rounding noise: an exact line must vote zero.
    tol = 1e-12 * max(float(np.abs(left).max()), float(np.abs(right).max()))
    return float((right - left > tol).mean())


def max_to_sum(values, p: int) -> MaxSumTrace:
    """Running ratio of the maximum of x^p to the sum of x^p over prefixes
    of the series in its given (chronological) order.

    All-zero prefixes get ratio 1.0 (the maximum is the entire sum). The
    verdict is converging when the final ratio is below FINAL_CONVERGING and
    the last-decile mean is below DECILE_CONVERGING; not_converging when the
    final ratio exceeds FINAL_NOT_CONVERGING; else inconclusive.
    """
    p = _as_int(p, "order p must be an integer in 1..4", low=1, high=4)
    arr = _as_finite_array(values, min_n=2, non_negative=True)
    if not (arr > 0.0).any():
        raise AllZeroError("all values are zero")
    with np.errstate(over="ignore"):
        powered = arr**p
        running_sum = np.cumsum(powered)
    if not np.isfinite(running_sum[-1]):
        raise InvalidParameterError(
            f"order p={p} overflows float64: the running sum of x**{p} is not finite"
        )
    running_max = np.maximum.accumulate(powered)
    ratios = np.divide(
        running_max,
        running_sum,
        out=np.ones_like(running_sum),
        where=running_sum > 0.0,
    )
    final = float(ratios[-1])
    decile = float(ratios[-max(1, arr.size // 10) :].mean())
    if final < FINAL_CONVERGING and decile < DECILE_CONVERGING:
        verdict = Verdict.CONVERGING
    elif final > FINAL_NOT_CONVERGING:
        verdict = Verdict.NOT_CONVERGING
    else:
        verdict = Verdict.INCONCLUSIVE
    return MaxSumTrace(p=p, ratios=ratios, verdict=verdict)
