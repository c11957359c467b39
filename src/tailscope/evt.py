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
    NegativeValueError,
    TooFewPointsError,
    TooShortError,
)

# Shape-classifier defaults: normalized-slope band and convexity vote share.
SLOPE_THRESHOLD = 0.10
CONVEX_VOTE = 0.70
# Convexity is voted on the data-dense lower part of the curve, averaged
# into rank blocks; high thresholds are too noisy to carry curvature signs.
_CONVEXITY_RANK_FRACTION = 0.45
_CONVEXITY_BLOCKS = 13

# Verdict defaults for maximum-to-sum traces.
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
        thresholds = np.array(self.thresholds, dtype=np.float64)
        mean_excess = np.array(self.mean_excess, dtype=np.float64)
        exceedances = np.array(self.exceedances, dtype=np.int64)
        for arr in (thresholds, mean_excess, exceedances):
            arr.setflags(write=False)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "mean_excess", mean_excess)
        object.__setattr__(self, "exceedances", exceedances)

    def __len__(self) -> int:
        return int(self.thresholds.size)

    @property
    def points(self) -> list[tuple[float, float, int]]:
        return [
            (float(a), float(me), int(k))
            for a, me, k in zip(self.thresholds, self.mean_excess, self.exceedances)
        ]

    def to_rows(self) -> list[dict]:
        return [
            {"threshold": float(a), "mean_excess": float(me), "exceedances": int(k)}
            for a, me, k in zip(self.thresholds, self.mean_excess, self.exceedances)
        ]

    def to_json_dict(self) -> dict:
        return {
            "trimmed": self.trimmed,
            "shape": self.shape.value,
            "fitted_slope": fitted_slope(self) if len(self) >= 2 else None,
            "points": self.to_rows(),
        }


@dataclass(frozen=True, eq=False)
class MaxSumTrace:
    """Running max-to-sum ratio of order p; ratios[k] is the ratio at n = k+1."""

    p: int
    ratios: np.ndarray
    verdict: Verdict

    def __post_init__(self):
        object.__setattr__(self, "verdict", Verdict(self.verdict))
        ratios = np.array(self.ratios, dtype=np.float64)
        ratios.setflags(write=False)
        object.__setattr__(self, "ratios", ratios)

    def __len__(self) -> int:
        return int(self.ratios.size)

    @property
    def points(self) -> list[tuple[int, float]]:
        return [(n + 1, float(r)) for n, r in enumerate(self.ratios)]

    def to_rows(self) -> list[dict]:
        return [
            {"p": self.p, "n": n + 1, "ratio": float(r)}
            for n, r in enumerate(self.ratios)
        ]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "verdict": self.verdict.value,
            "ratios": [float(r) for r in self.ratios],
        }


def fitted_slope(curve: MefCurve) -> float:
    """Exceedance-weighted least-squares slope of a mean-excess curve.

    Weighting each point by its exceedance count suppresses the noisy
    high-threshold end. For a generalized Pareto tail with shape xi the
    slope estimates xi / (1 - xi).
    """
    if len(curve) < 2:
        raise TooFewPointsError("slope fit needs at least 2 points")
    weights = curve.exceedances.astype(np.float64)
    return float(np.polyfit(curve.thresholds, curve.mean_excess, 1, w=weights)[0])


def mean_excess_at(values, threshold: float) -> float:
    """Average overshoot above ``threshold``: sum(x - a for x > a) / count."""
    arr = np.asarray(values, dtype=np.float64)
    over = arr[arr > threshold]
    if over.size == 0:
        raise InvalidParameterError(f"no observations above threshold {threshold!r}")
    return float((over - threshold).sum() / over.size)


def mean_excess(values, trim_fraction: float = 0.02) -> MefCurve:
    """Empirical mean-excess curve of a non-negative sample.

    Thresholds are the ascending distinct order statistics after discarding
    the top k = max(3, ceil(trim_fraction * n)) order statistics, so every
    retained threshold sits strictly below the sample maximum and has at
    least one exceedance. Callers pass closing prices or absolute returns;
    signed values are rejected.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if not 0.0 <= trim_fraction < 0.5:
        raise InvalidParameterError("trim_fraction must lie in [0, 0.5)")
    if n < 10:
        raise TooShortError(f"mean-excess curve needs at least 10 values, got {n}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("values must be finite")
    if (arr < 0.0).any():
        raise NegativeValueError("values must be non-negative")
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


def classify_shape(
    thresholds,
    mean_excess_values,
    *,
    slope_threshold: float = SLOPE_THRESHOLD,
    convex_vote: float = CONVEX_VOTE,
) -> MefShape:
    """Label a mean-excess curve as decreasing, constant, or increasing,
    sub-classifying increases as linear or convex.

    The least-squares slope s of me against threshold is normalized to
    sigma = s * (a_max - a_min) / mean(me); |sigma| < slope_threshold maps
    to constant, the sign decides between decreasing and increasing. An
    increasing curve is convex when at least ``convex_vote`` of its second
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
    if (np.diff(a) <= 0).any():
        raise InvalidParameterError("thresholds must be strictly increasing")
    slope = float(np.polyfit(a, me, 1)[0])
    scale = float(me.mean())
    span = float(a[-1] - a[0])
    sigma = slope * span / scale if scale != 0.0 else float("nan")
    if not np.isfinite(sigma):
        return MefShape.UNCLASSIFIED
    if abs(sigma) < slope_threshold:
        return MefShape.CONSTANT
    if sigma <= -slope_threshold:
        return MefShape.DECREASING
    vote = _convexity_vote(a, me)
    if vote >= convex_vote:
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


def max_to_sum(
    values,
    p: int,
    *,
    final_converging: float = FINAL_CONVERGING,
    decile_converging: float = DECILE_CONVERGING,
    final_not_converging: float = FINAL_NOT_CONVERGING,
) -> MaxSumTrace:
    """Running ratio of the maximum of x^p to the sum of x^p over prefixes
    of the series in its given (chronological) order.

    All-zero prefixes get ratio 1.0 (the maximum is the entire sum). The
    verdict is converging when the final ratio is below ``final_converging``
    and the last-decile mean is below ``decile_converging``; not_converging
    when the final ratio exceeds ``final_not_converging``; else inconclusive.
    """
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or not 1 <= p <= 4:
        raise InvalidParameterError("order p must be an integer in 1..4")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise TooShortError("max-to-sum trace needs at least two values")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("values must be finite")
    if (arr < 0.0).any():
        raise NegativeValueError("values must be non-negative")
    if not (arr > 0.0).any():
        raise AllZeroError("all values are zero")
    with np.errstate(over="ignore"):
        powered = arr ** int(p)
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
    if final < final_converging and decile < decile_converging:
        verdict = Verdict.CONVERGING
    elif final > final_not_converging:
        verdict = Verdict.NOT_CONVERGING
    else:
        verdict = Verdict.INCONCLUSIVE
    return MaxSumTrace(p=int(p), ratios=ratios, verdict=verdict)
