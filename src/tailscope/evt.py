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

import numpy as np

from .errors import (
    AllZeroError,
    InvalidParameterError,
    TooFewPointsError,
    _as_finite_array,
    _as_float64,
    _as_int,
    _Choice,
    _freeze,
    _from_unit_scale,
    _unit_scale,
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


class MefShape(_Choice):
    DECREASING = "decreasing"
    CONSTANT = "constant"
    INCREASING_LINEAR = "increasing_linear"
    INCREASING_CONVEX = "increasing_convex"
    UNCLASSIFIED = "unclassified"


class Verdict(_Choice):
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
        _freeze(self, ("thresholds", "mean_excess", "exceedances"), shape=MefShape,
                thresholds=np.float64, mean_excess=np.float64, exceedances=np.int64)

    def __len__(self) -> int:
        return int(self.thresholds.size)


@dataclass(frozen=True, eq=False)
class MaxSumTrace:
    """Running max-to-sum ratio of order p; ratios[k] is the ratio at n = k+1."""

    p: int
    ratios: np.ndarray
    verdict: Verdict

    def __post_init__(self):
        _freeze(self, verdict=Verdict, ratios=np.float64)

    def __len__(self) -> int:
        return int(self.ratios.size)


def fitted_slope(curve: MefCurve) -> float:
    """Exceedance-weighted least-squares slope of a mean-excess curve.

    Weighting each point by its exceedance count suppresses the noisy
    high-threshold end. For a generalized Pareto tail with shape xi the
    slope estimates xi / (1 - xi). A curve of fewer than 2 points, or whose
    thresholds are equal to within rounding, raises TooFewPointsError.
    """
    if len(curve) < 2:
        raise TooFewPointsError("slope fit needs at least 2 points")
    return _slope(curve.thresholds, curve.mean_excess, curve.exceedances.astype(np.float64))


def _slope(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> float:
    """Least-squares slope of y on x, weighted by w. The fit runs on the unit
    scales of x and y, where np.polyfit's column norms cannot overflow or
    vanish, and the slope is multiplied back by 2**(ey - ex). A fit of rank
    below 2, from x equal to within rounding, raises TooFewPointsError."""
    (unit_x, ex), (unit_y, ey) = _unit_scale(x), _unit_scale(y)
    coef, _, rank, _, _ = np.polyfit(unit_x, unit_y, 1, w=w, full=True)
    if rank < 2:
        raise TooFewPointsError("slope fit needs thresholds that differ beyond rounding")
    return float(_from_unit_scale(coef[0], ey - ex, "the slope"))


def mean_excess_at(values, threshold: float) -> float:
    """Average overshoot above a finite ``threshold`` in finite ``values``:
    sum(x - a for x > a) / count, on the unit scale of those x and a."""
    arr = _as_finite_array(values)
    a = _as_finite_array(threshold, name="threshold", ndim=0)
    over = arr[arr > a]
    if over.size == 0:
        raise InvalidParameterError(f"no observations above threshold {threshold!r}")
    unit, e = _unit_scale(np.append(over, a))
    return float(_from_unit_scale((unit[:-1] - unit[-1]).sum() / over.size, e, "the mean excess"))


def mean_excess(values, trim_fraction: float = 0.02) -> MefCurve:
    """Empirical mean-excess curve of a non-negative sample.

    Thresholds are the ascending distinct order statistics after discarding
    the top k = max(3, ceil(trim_fraction * n)) order statistics, so every
    retained threshold sits strictly below the sample maximum and has at
    least one exceedance. Callers pass closing prices or absolute returns;
    signed values are rejected.
    """
    trim_fraction = float(_as_finite_array(trim_fraction, name="trim_fraction", ndim=0))
    if not 0.0 <= trim_fraction < 0.5:
        raise InvalidParameterError("trim_fraction must lie in [0, 0.5)")
    arr = _as_finite_array(values, min_n=10, non_negative=True)
    n = arr.size
    k = max(3, math.ceil(trim_fraction * n))
    sorted_vals = np.sort(arr)
    # Each run of equal values below the maximum ends where the sorted sample changes;
    # a run that starts among the lowest n - k - 1 values gives one threshold.
    first_above = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    first_above = first_above[: np.count_nonzero(first_above < n - k - 1) + 1]
    if first_above.size == 0:
        raise TooFewPointsError("no thresholds strictly below the sample maximum")
    thresholds = sorted_vals[first_above - 1]
    counts = n - first_above
    # Suffix sums over the sorted sample, on its unit scale so that they cannot
    # overflow, give every threshold in O(n log n).
    unit, e = _unit_scale(sorted_vals)
    suffix = np.cumsum(unit[::-1])[::-1]
    excess = (suffix[first_above] - unit[first_above - 1] * counts) / counts
    me = _from_unit_scale(excess, e, "the mean excess")
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
    a = _as_float64(thresholds, "thresholds")
    me = _as_float64(mean_excess_values, "mean-excess values")
    if a.size != me.size:
        raise InvalidParameterError("thresholds and mean-excess lengths differ")
    if a.size < 5:
        raise TooFewPointsError(f"shape classification needs >= 5 points, got {a.size}")
    _as_finite_array(a, name="thresholds")
    _as_finite_array(me, name="mean-excess values")
    if (a[1:] <= a[:-1]).any():
        raise InvalidParameterError("thresholds must be strictly increasing")
    a, me = _unit_scale(a)[0], _unit_scale(me)[0]  # sigma and the vote are scale-free
    try:
        slope = _slope(a, me)
    except TooFewPointsError:
        return MefShape.UNCLASSIFIED
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
    # Edges half / blocks >= 1 apart, integers where it is 1, round strictly increasing.
    edges = np.round(np.linspace(0, half, blocks + 1)).astype(int)
    means = np.array([(a[s:e].mean(), me[s:e].mean()) for s, e in zip(edges, edges[1:])])
    a_mean, me_mean = means.T
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
    powered = _unit_scale(arr)[0] ** p  # the ratios are scale-free; this cannot overflow
    running_sum = np.cumsum(powered)
    ratios = np.divide(np.maximum.accumulate(powered), running_sum,
                       out=np.ones_like(running_sum), where=running_sum > 0.0)
    final = float(ratios[-1])
    decile = float(ratios[-max(1, arr.size // 10) :].mean())
    if final < FINAL_CONVERGING and decile < DECILE_CONVERGING:
        verdict = Verdict.CONVERGING
    elif final > FINAL_NOT_CONVERGING:
        verdict = Verdict.NOT_CONVERGING
    else:
        verdict = Verdict.INCONCLUSIVE
    return MaxSumTrace(p=p, ratios=ratios, verdict=verdict)
