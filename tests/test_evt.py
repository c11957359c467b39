import math
import warnings

import numpy as np
import pytest

from tailscope.errors import (
    AllZeroError,
    InvalidParameterError,
    NegativeValueError,
    TooFewPointsError,
    TooShortError,
    _unit_scale,
)
from tailscope.evt import (
    MaxSumTrace,
    MefCurve,
    MefShape,
    Verdict,
    classify_shape,
    fitted_slope,
    max_to_sum,
    mean_excess,
    mean_excess_at,
)
from tailscope.synth import Family, GeneratorSpec, generate


class TestMeanExcessAt:
    def test_hand_counted_example(self):
        # exceedances of 2 are 3, 4, 5 -> mean excess (1 + 2 + 3) / 3
        assert mean_excess_at([1.0, 2.0, 3.0, 4.0, 5.0], 2.0) == 2.0

    def test_no_exceedances(self):
        with pytest.raises(InvalidParameterError):
            mean_excess_at([1.0, 2.0], 5.0)


class TestMeanExcess:
    def test_too_short(self):
        with pytest.raises(TooShortError):
            mean_excess(np.arange(9.0))

    def test_rejects_negative_values(self):
        with pytest.raises(NegativeValueError):
            mean_excess(np.array([1.0] * 10 + [-0.5]))

    def test_rejects_bad_trim(self):
        with pytest.raises(InvalidParameterError):
            mean_excess(np.arange(10.0), trim_fraction=0.5)

    def test_trim_floor_is_three(self):
        values = np.arange(1.0, 21.0)  # n=20, ceil(0.02*20)=1 -> floor 3 applies
        curve = mean_excess(values)
        assert curve.trimmed == 3
        # thresholds are the first n-k-1 = 16 order statistics
        np.testing.assert_array_equal(curve.thresholds, values[:16])

    def test_trim_fraction_scales(self):
        values = np.arange(1.0, 501.0)
        assert mean_excess(values, trim_fraction=0.1).trimmed == 50

    def test_final_threshold_below_maximum(self):
        rng = np.random.default_rng(0)
        values = rng.random(50)
        curve = mean_excess(values)
        assert curve.thresholds[-1] < values.max()
        assert (curve.exceedances >= 1).all()
        assert (curve.mean_excess >= 0).all()

    def test_ties_collapse_to_distinct_thresholds(self):
        values = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        curve = mean_excess(values)
        assert (np.diff(curve.thresholds) > 0).all()

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = int(rng.integers(10, 40))
            values = np.round(rng.random(n) * 8, 3)
            curve = mean_excess(values)
            for a, me, count in zip(curve.thresholds, curve.mean_excess, curve.exceedances):
                over = [v for v in values if v > a]
                assert count == len(over)
                assert me == pytest.approx(sum(over) / len(over) - a, rel=1e-12, abs=1e-12)

    def test_exponential_oracle(self):
        values = generate(GeneratorSpec(Family.EXPONENTIAL, n=100_000, seed=1234, lam=2.0))
        curve = mean_excess(values)
        assert curve.shape is MefShape.CONSTANT
        above = curve.thresholds > np.quantile(values, 0.10)
        assert np.abs(curve.mean_excess[above] - 0.5).max() <= 0.05

    def test_gpd_oracle(self):
        values = generate(GeneratorSpec(Family.GPD, n=100_000, seed=1234, xi=0.5, beta=1.0))
        curve = mean_excess(values)
        assert curve.shape is MefShape.INCREASING_LINEAR
        assert fitted_slope(curve) == pytest.approx(1.0, abs=0.10)

    def test_half_normal_oracle(self):
        values = np.abs(generate(GeneratorSpec(Family.GAUSSIAN, n=100_000, seed=1234)))
        curve = mean_excess(values)
        assert curve.shape is MefShape.DECREASING
        upper = curve.thresholds.size // 2
        assert classify_shape(curve.thresholds[upper:], curve.mean_excess[upper:]) is (
            MefShape.DECREASING
        )

    def test_lognormal_oracle(self):
        values = generate(GeneratorSpec(Family.LOGNORMAL, n=100_000, seed=1234))
        assert mean_excess(values).shape is MefShape.INCREASING_CONVEX

    def test_translation_equivariance_exact(self):
        rng = np.random.default_rng(31)
        values = rng.integers(1, 2**20, 50) / 2**8
        shift = 1337.0 / 2**4
        base = mean_excess(values)
        moved = mean_excess(values + shift)
        np.testing.assert_array_equal(moved.thresholds, base.thresholds + shift)
        np.testing.assert_array_equal(moved.mean_excess, base.mean_excess)
        np.testing.assert_array_equal(moved.exceedances, base.exceedances)

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(32)
        values = rng.integers(1, 2**20, 50) / 2**8
        base = mean_excess(values)
        scaled = mean_excess(8.0 * values)
        np.testing.assert_array_equal(scaled.thresholds, 8.0 * base.thresholds)
        np.testing.assert_array_equal(scaled.mean_excess, 8.0 * base.mean_excess)

    def test_overflowing_suffix_sums_scale_back(self):
        # The suffix sums of these values overflow float64; on the unit scale
        # 2**1024 they do not, and the curve is that of values / 2**1024.
        values = np.random.default_rng(308).uniform(1e307, 1.7e308, 50)
        curve, unit = mean_excess(values), mean_excess(np.ldexp(values, -1024))
        np.testing.assert_array_equal(curve.thresholds, np.ldexp(unit.thresholds, 1024))
        np.testing.assert_array_equal(curve.mean_excess, np.ldexp(unit.mean_excess, 1024))
        np.testing.assert_array_equal(curve.exceedances, unit.exceedances)
        assert curve.shape is unit.shape


def reference_mean_excess(values: np.ndarray, trim_fraction: float) -> MefCurve:
    """The curve of ``mean_excess`` with its thresholds from ``np.unique`` of the
    lowest n - k - 1 order statistics, filtered below the maximum, and their
    exceedances counted by ``np.searchsorted``."""
    n = values.size
    k = max(3, math.ceil(trim_fraction * n))
    sorted_vals = np.sort(values)
    thresholds = np.unique(sorted_vals[: n - k - 1])
    thresholds = thresholds[thresholds < sorted_vals[-1]]
    if thresholds.size == 0:
        raise TooFewPointsError("no thresholds strictly below the sample maximum")
    first_above = np.searchsorted(sorted_vals, thresholds, side="right")
    counts = n - first_above
    unit, e = _unit_scale(sorted_vals)
    suffix = np.cumsum(unit[::-1])[::-1]
    me = np.ldexp((suffix[first_above] - np.ldexp(thresholds, -e) * counts) / counts, e)
    try:
        shape = classify_shape(thresholds, me)
    except TooFewPointsError:
        shape = MefShape.UNCLASSIFIED
    return MefCurve(thresholds, me, counts, trimmed=k, shape=shape)


def fuzz_sample(rng: np.random.Generator) -> np.ndarray:
    """A non-negative sample of 10 to 2,000 values: continuous, rounded to ties,
    on an integer lattice, on a plateau of one repeated value, or holding
    zeros of both signs."""
    n = int(rng.integers(10, 2_001))
    kind = int(rng.integers(5))
    if kind == 0:
        return rng.pareto(1.5, n)
    if kind == 1:
        return np.round(rng.exponential(1.0, n), int(rng.integers(0, 3)))
    if kind == 2:
        return rng.integers(0, int(rng.integers(1, 30)), n).astype(np.float64)
    if kind == 3:
        values = np.full(n, rng.exponential())
        spread = rng.random(n) < rng.random()
        values[spread] = rng.exponential(1.0, int(spread.sum()))
        return values
    values = rng.exponential(1.0, n)
    values[rng.random(n) < 0.4] = 0.0
    values[rng.random(n) < 0.3] = -0.0
    return values


class TestMeanExcessFuzz:
    def test_matches_unique_and_searchsorted_reference(self):
        rng = np.random.default_rng(2026)
        signed_zeros = 0
        for _ in range(600):
            values = fuzz_sample(rng)
            trim = float(rng.choice([0.0, 0.02, rng.uniform(0.0, 0.49), 0.49]))
            try:
                expected = reference_mean_excess(values, trim)
            except TooFewPointsError:
                with pytest.raises(TooFewPointsError):
                    mean_excess(values, trim)
                continue
            curve = mean_excess(values, trim)
            assert (curve.trimmed, curve.shape) == (expected.trimmed, expected.shape)
            np.testing.assert_array_equal(curve.exceedances, expected.exceedances)
            zeros = values[values == 0.0]
            if np.signbit(zeros).any() and not np.signbit(zeros).all():
                # The zero threshold's sign follows np.sort; -0.0 == 0.0.
                signed_zeros += 1
                np.testing.assert_array_equal(curve.thresholds, expected.thresholds)
                np.testing.assert_array_equal(curve.mean_excess, expected.mean_excess)
            else:
                np.testing.assert_array_equal(
                    curve.thresholds.view(np.int64), expected.thresholds.view(np.int64)
                )
                np.testing.assert_array_equal(
                    curve.mean_excess.view(np.int64), expected.mean_excess.view(np.int64)
                )
        assert signed_zeros > 0


class TestClassifyShape:
    def test_exact_line(self):
        a = np.linspace(0.5, 4.5, 20)
        assert classify_shape(a, 2.0 * a + 1.0) is MefShape.INCREASING_LINEAR

    def test_constant(self):
        a = np.linspace(0.5, 4.5, 20)
        assert classify_shape(a, np.full(20, 3.0)) is MefShape.CONSTANT

    def test_parabola_is_convex(self):
        a = np.linspace(1.0, 2.0, 20)
        assert classify_shape(a, a**2) is MefShape.INCREASING_CONVEX

    def test_decreasing_line(self):
        a = np.linspace(1.0, 2.0, 20)
        assert classify_shape(a, 5.0 - a) is MefShape.DECREASING

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            classify_shape([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def test_requires_increasing_thresholds(self):
        with pytest.raises(InvalidParameterError):
            classify_shape([1.0, 1.0, 2.0, 3.0, 4.0], [1.0] * 5)

    def test_thresholds_meeting_on_the_unit_scale_leave_a_rise_unclassified(self):
        # On the scale of 1e200 the 1e-150 thresholds all flush to zero, so
        # the convexity vote has no slope change to take between them.
        a = np.concatenate((1e-150 * np.arange(1.0, 11.0), 1e200 * np.arange(1.0, 11.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify_shape(a, a) is MefShape.UNCLASSIFIED
            mean_excess(a)  # classifies its own curve without a warning

    def test_affine_threshold_invariance(self):
        rng = np.random.default_rng(40)
        a = np.sort(rng.integers(1, 2**16, 40)) / 2**6
        a = np.unique(a)
        curves = [2.0 * a + 1.0 + 0.01 * rng.standard_normal(a.size), a**2, np.full(a.size, 3.0)]
        for me in curves:
            base = classify_shape(a, me)
            assert classify_shape(4.0 * a + 17.25, me) is base
            # squares of thresholds near 1e303 overflow inside np.polyfit
            assert classify_shape(1e300 * a, me) is base

    def test_fit_near_float_max(self):
        values = np.random.default_rng(41).uniform(1.0, 2.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.polyfit's RankWarning included
            small, huge = mean_excess(values), mean_excess(values * 1e305)
            slopes = fitted_slope(small), fitted_slope(huge)
        assert huge.shape is small.shape is MefShape.DECREASING
        assert slopes[1] == pytest.approx(slopes[0], rel=1e-12)

    def test_fit_near_float_min(self, capfd):
        # The column norms inside np.polyfit underflow to zero near 1e-300.
        values = np.random.default_rng(41).uniform(1.0, 2.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small, tiny = mean_excess(values), mean_excess(values * 1e-300)
            slopes = fitted_slope(small), fitted_slope(tiny)
        assert tiny.shape is small.shape is MefShape.DECREASING
        assert slopes[1] == pytest.approx(slopes[0], rel=1e-12)
        assert "DLASCL" not in "".join(capfd.readouterr())


class TestMaxToSum:
    def test_constant_series_ratios(self):
        n = 120
        trace = max_to_sum(np.full(n, 2.5), 3)
        expected = 1.0 / np.arange(1, n + 1)
        np.testing.assert_array_equal(trace.ratios, expected)
        assert trace.verdict is Verdict.CONVERGING

    def test_ratio_one_at_first_point(self):
        trace = max_to_sum([3.0, 1.0, 2.0], 1)
        assert trace.ratios[0] == 1.0

    def test_leading_zeros_get_ratio_one(self):
        trace = max_to_sum([0.0, 0.0, 5.0, 5.0], 2)
        np.testing.assert_array_equal(trace.ratios, [1.0, 1.0, 1.0, 0.5])

    def test_finite_fourth_moment_converges(self):
        values = np.abs(generate(GeneratorSpec(Family.GAUSSIAN, n=1_000_000, seed=4242)))
        trace = max_to_sum(values, 4)
        assert trace.ratios[-1] < 0.01
        assert trace.verdict is Verdict.CONVERGING

    def test_infinite_variance_does_not_converge(self):
        values = generate(GeneratorSpec(Family.PARETO, n=1_000_000, seed=20_000, alpha=1.5))
        trace = max_to_sum(values, 2)
        assert trace.ratios[-1] > 0.1
        assert trace.verdict is Verdict.NOT_CONVERGING

    def test_ratios_in_unit_interval_and_nondecreasing_in_p(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            values = rng.random(int(rng.integers(2, 400))) * 10.0
            traces = [max_to_sum(values, p).ratios for p in (1, 2, 3, 4)]
            for ratios in traces:
                assert (ratios > 0).all() and (ratios <= 1.0).all()
            for lower, higher in zip(traces, traces[1:]):
                assert (higher >= lower - 1e-12).all()

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameterError):
            max_to_sum([1.0, 2.0], 5)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            max_to_sum([1.0], 1)

    def test_all_zero(self):
        with pytest.raises(AllZeroError):
            max_to_sum([0.0, 0.0, 0.0], 2)

    def test_rejects_negative(self):
        with pytest.raises(NegativeValueError):
            max_to_sum([1.0, -2.0], 2)

    def test_overflowing_order_is_scale_free(self):
        # x**4 overflows float64 here; the ratios are those of the values on
        # their unit scale, at every order.
        values = np.random.default_rng(80).uniform(1e80, 2e80, 50)
        unit = np.ldexp(values, -np.frexp(values.max())[1])
        for p in (3, 4):
            trace, want = max_to_sum(values, p), max_to_sum(unit, p)
            np.testing.assert_array_equal(trace.ratios, want.ratios)
            assert trace.verdict is want.verdict

    def test_inconclusive_band(self):
        # final ratio between 0.02 and 0.10 with a quiet last decile
        values = np.ones(20)
        values[0] = 5.0  # max^1 = 5, sum grows to 24 -> final 5/24 ~ 0.21
        assert max_to_sum(values, 1).verdict is Verdict.NOT_CONVERGING
        values = np.ones(100)
        values[0] = 5.0  # final 5/104 ~ 0.048
        assert max_to_sum(values, 1).verdict is Verdict.INCONCLUSIVE



class TestConstruction:
    """A bad enum field is reported before a bad array field."""

    def test_mef_curve_reports_its_shape_first(self):
        with pytest.raises(InvalidParameterError, match="MefShape must be one of"):
            MefCurve(["x"], [1.0], [1], 3, "bogus")

    def test_max_sum_trace_reports_its_verdict_first(self):
        with pytest.raises(InvalidParameterError, match="Verdict must be one of"):
            MaxSumTrace(2, ["x"], "bogus")

    def test_mef_curve_rejects_unequal_lengths(self):
        with pytest.raises(InvalidParameterError, match="must have equal length"):
            MefCurve([1.0, 2.0, 3.0], [1.0, 2.0], [1, 1, 1], 0, "constant")

    def test_mef_curve_rejects_a_2d_array(self):
        with pytest.raises(InvalidParameterError, match="thresholds must be 1-D"):
            MefCurve([[1.0, 2.0]], [1.0, 2.0], [1, 1], 0, "constant")

    def test_max_sum_trace_rejects_2d_ratios(self):
        with pytest.raises(InvalidParameterError, match="ratios must be 1-D"):
            MaxSumTrace(2, [[1.0, 0.5]], "converging")

    def test_enum_fields_are_converted(self):
        curve = MefCurve([1.0], [1.0], [1], 0, "constant")
        trace = MaxSumTrace(2, [1.0], "converging")
        assert curve.shape is MefShape.CONSTANT and trace.verdict is Verdict.CONVERGING
