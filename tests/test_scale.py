"""The unit-scale rule: every diagnostic works on its input divided by the
power of two 2**e that brings max|x| into [0.5, 1), and multiplies back by
2**e only the results that carry units.

A power-of-two scale is exact while nothing goes subnormal. So at every k for
which 2**k * x stays finite and normal, f(2**k * x) equals f(x) bit for bit,
or 2**k * f(x) for a quantity with units. The regression pins below are the
samples on which special cases for overflow and underflow gave wrong answers;
each is checked against the same sample on its unit scale.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailscope import (
    AllZeroError,
    ApenParams,
    InvalidParameterError,
    MefCurve,
    MefShape,
    RMode,
    TailscopeError,
    apen,
    classify_shape,
    fitted_slope,
    max_to_sum,
    mean_excess,
    mean_excess_at,
    rolling,
    summarize,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

MAGNITUDES = st.floats(min_value=2.0**-30, max_value=2.0**30)


def _strict(test):
    """``test`` run with every warning an error, inside the test body only:
    around it, hypothesis and pytest may warn while reporting a failure."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return test(*args, **kwargs)

    return run


def _unit(values):
    """``values`` on their unit scale, with its exponent."""
    e = int(np.frexp(np.abs(values).max())[1])
    return np.ldexp(values, -e), e


@st.composite
def scaled(draw, min_size, max_size=40, non_negative=False):
    """A sample of ``min_size`` to ``max_size`` values and a k at which 2**k
    times it stays finite and normal, with at least two bits of headroom
    below float64's maximum so that an SD or a mean excess does not overflow."""
    value = MAGNITUDES if non_negative else st.one_of(MAGNITUDES, MAGNITUDES.map(lambda v: -v))
    values = np.array(draw(st.lists(st.one_of(st.just(0.0), value), min_size=min_size,
                                    max_size=max_size)))
    nonzero = np.abs(values[values != 0.0])
    if nonzero.size == 0:
        return values, draw(st.integers(-1000, 1000))
    low = -1021 - int(np.frexp(nonzero.min())[1])
    high = 1022 - int(np.frexp(nonzero.max())[1])
    return values, draw(st.integers(low, high))


def _outcome(call):
    """What ``call()`` returns, or the type of the TailscopeError it raises."""
    try:
        return call()
    except TailscopeError as exc:
        return type(exc)


def _assert_scales(got, base, k):
    """``got`` is 2**k * ``base``, or raises InvalidParameterError where that
    product is beyond float64; an error of ``base`` is also that of ``got``."""
    if isinstance(base, type):
        assert got is base
        return
    try:
        want = np.array([math.ldexp(float(v), k) for v in np.ravel(base)])
    except OverflowError:
        assert got is InvalidParameterError
        return
    assert not isinstance(got, type)
    assert np.array_equal(np.ravel(got), want, equal_nan=True)


def _assert_same(got, base):
    if isinstance(base, type) or isinstance(got, type):
        assert got is base
    else:
        assert np.array_equal(got, base, equal_nan=True)


@PROPERTY
@given(scaled(min_size=2))
@_strict
def test_summarize(sample):
    x, k = sample
    base, got = summarize(x), summarize(np.ldexp(x, k))
    assert got.n == base.n
    assert got.mean == math.ldexp(base.mean, k)
    assert got.std_dev == math.ldexp(base.std_dev, k)
    assert got.coeff_variation == base.coeff_variation
    assert got.excess_kurtosis == base.excess_kurtosis


@PROPERTY
@given(scaled(min_size=4), st.data())
@_strict
def test_rolling(sample, data):
    x, k = sample
    window = data.draw(st.integers(4, x.size))
    for statistic in ("std_dev", "coeff_variation", "apen"):
        base = _outcome(lambda: rolling(x, window, statistic).values)
        got = _outcome(lambda: rolling(np.ldexp(x, k), window, statistic).values)
        if statistic == "std_dev":
            _assert_scales(got, base, k)
        else:
            _assert_same(got, base)


@PROPERTY
@given(scaled(min_size=4), st.floats(2.0**-10, 4.0))
@_strict
def test_apen_and_resolve_r(sample, ratio):
    x, k = sample
    scaled_x = np.ldexp(x, k)
    _assert_same(_outcome(lambda: apen(scaled_x)), _outcome(lambda: apen(x)))
    relative = ApenParams()
    _assert_scales(
        _outcome(lambda: relative.resolve_r(scaled_x)), _outcome(lambda: relative.resolve_r(x)), k
    )
    # In absolute mode r is scaled with the values.
    r = ratio * max(float(np.abs(x).max()), 1.0)
    assume(abs(math.ldexp(r, k)) >= 2.0**-1022)
    base = ApenParams(r_mode=RMode.ABSOLUTE, r_value=r)
    moved = ApenParams(r_mode=RMode.ABSOLUTE, r_value=math.ldexp(r, k))
    _assert_same(_outcome(lambda: apen(scaled_x, moved)), _outcome(lambda: apen(x, base)))
    assert moved.resolve_r(scaled_x) == math.ldexp(base.resolve_r(x), k)


@PROPERTY
@given(scaled(min_size=10, non_negative=True))
@_strict
def test_mean_excess_and_fitted_slope(sample):
    x, k = sample
    base = _outcome(lambda: mean_excess(x))
    got = _outcome(lambda: mean_excess(np.ldexp(x, k)))
    if isinstance(base, type):
        assert got is base
        return
    _assert_scales(got.thresholds, base.thresholds, k)
    _assert_scales(got.mean_excess, base.mean_excess, k)
    assert np.array_equal(got.exceedances, base.exceedances)
    assert (got.trimmed, got.shape) == (base.trimmed, base.shape)
    _assert_same(_outcome(lambda: fitted_slope(got)), _outcome(lambda: fitted_slope(base)))


@PROPERTY
@given(scaled(min_size=1), st.integers(0, 39))
@_strict
def test_mean_excess_at(sample, index):
    x, k = sample
    a = float(np.sort(x)[index % x.size])
    base = _outcome(lambda: mean_excess_at(x, a))
    _assert_scales(_outcome(lambda: mean_excess_at(np.ldexp(x, k), math.ldexp(a, k))), base, k)


@PROPERTY
@given(scaled(min_size=5), st.data())
@_strict
def test_classify_shape_and_slope_scale_apart(thresholds, data):
    a, j = thresholds
    a = np.unique(a)
    assume(a.size >= 5)
    me, k = data.draw(scaled(min_size=a.size, max_size=a.size))
    shape = _outcome(lambda: classify_shape(a, me))
    assert _outcome(lambda: classify_shape(np.ldexp(a, j), np.ldexp(me, k))) == shape
    # fitted_slope reads only the curve's arrays, so any curve will do.
    exceedances = np.arange(a.size, 0, -1)
    base = MefCurve(a, me, exceedances, trimmed=3, shape=MefShape.UNCLASSIFIED)
    moved = MefCurve(np.ldexp(a, j), np.ldexp(me, k), exceedances, 3, MefShape.UNCLASSIFIED)
    _assert_scales(_outcome(lambda: fitted_slope(moved)), _outcome(lambda: fitted_slope(base)),
                   k - j)


@PROPERTY
@given(scaled(min_size=2, non_negative=True), st.integers(1, 4))
@_strict
def test_max_to_sum(sample, p):
    x, k = sample
    base = _outcome(lambda: max_to_sum(x, p))
    got = _outcome(lambda: max_to_sum(np.ldexp(x, k), p))
    if base is AllZeroError:
        assert got is AllZeroError
        return
    assert np.array_equal(got.ratios, base.ratios)
    assert got.verdict is base.verdict


class TestRegressions:
    """Samples that special cases for overflow and underflow got wrong; each
    now gives what the same sample gives on its unit scale."""

    @_strict
    def test_sd_of_tiny_values_is_not_zero(self):
        x = 1e-300 * np.random.default_rng(1).normal(size=8)
        unit, e = _unit(x)
        got, want = summarize(x), summarize(unit)
        assert got.std_dev == math.ldexp(want.std_dev, e)
        assert got.excess_kurtosis == want.excess_kurtosis

    @_strict
    def test_apen_of_tiny_values_is_not_a_constant_window(self):
        x = 1e-300 * np.random.default_rng(2).normal(size=50)
        assert apen(x) == apen(_unit(x)[0])

    @_strict
    def test_max_to_sum_of_tiny_values_does_not_underflow(self):
        x = 1e-100 * (np.random.default_rng(3).pareto(1.5, 200) + 1.0)
        got, want = max_to_sum(x, 4), max_to_sum(_unit(x)[0], 4)
        np.testing.assert_array_equal(got.ratios, want.ratios)
        assert got.verdict is want.verdict
        assert (got.ratios < 1.0).any()

    @_strict
    def test_decreasing_curve_near_float_max(self):
        a = 1e307 * np.linspace(10.0, 17.0, 20)
        me = 1e307 * np.linspace(17.0, 10.0, 20)
        shape = classify_shape(a, me)
        assert shape is classify_shape(np.ldexp(a, -1000), np.ldexp(me, -1000))
        assert shape is MefShape.DECREASING

    @_strict
    def test_sd_whose_squares_overflow(self):
        x = 1e160 * np.random.default_rng(4).normal(size=50)
        unit, e = _unit(x)
        got, want = summarize(x), summarize(unit)
        assert got.std_dev == math.ldexp(want.std_dev, e)
        assert got.coeff_variation == want.coeff_variation

    @_strict
    def test_mean_excess_whose_overshoots_overflow(self):
        x = np.array([1e308, 1.5e308, 1.7e308])
        # The overshoots above 0 sum beyond float64, their mean does not.
        assert mean_excess_at(x, 0.0) == math.ldexp(mean_excess_at(np.ldexp(x, -1024), 0.0), 1024)
        # Above -1e308 the mean overshoot itself, 2.4e308, is beyond float64.
        with pytest.raises(InvalidParameterError, match="exceeds the float64 range"):
            mean_excess_at(x, -1e308)

    @_strict
    def test_cv_floor_is_relative(self):
        x = np.array([1.0, 2.0, 4.0, 3.0])
        assert summarize(2.0**-45 * x).coeff_variation == summarize(x).coeff_variation


@_strict
def test_values_a_few_ulps_apart_fit_without_a_rank_warning():
    # Thresholds equal to within rounding give the fit rank 1: the curve is
    # unclassified, and np.polyfit's RankWarning (a UserWarning on numpy
    # 1.24) is not raised; every warning is an error in these tests.
    curve = mean_excess(1.7 - np.arange(60) * 2.2e-16)
    assert curve.shape is MefShape.UNCLASSIFIED
    assert math.isfinite(fitted_slope(curve))
