import importlib
import math

import numpy as np
import pytest
import scipy.stats

from tailscope.errors import (
    InvalidParameterError,
    TooShortError,
    WindowTooLargeError,
    WindowTooSmallError,
    _unit_scale,
)
from tailscope.stats import RollingStatistic, rolling, summarize

TOY = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, -1.0, 0.0, 10000.0]


class TestSummarize:
    def test_outlier_toy_series_sample_sd(self):
        # forces the n-1 denominator: the population denominator gives 3142.7
        assert summarize(TOY).std_dev == pytest.approx(3333.33, abs=0.01)

    def test_constant_series(self):
        summary = summarize([5.0, 5.0, 5.0, 5.0])
        assert summary.mean == 5.0
        assert summary.std_dev == 0.0
        assert summary.coeff_variation == 0.0
        assert summary.excess_kurtosis is None  # zero variance

    def test_kurtosis_of_seeded_normal_sample(self):
        draws = np.random.default_rng(314159).standard_normal(1_000_000)
        assert abs(summarize(draws).excess_kurtosis) <= 0.05

    def test_kurtosis_matches_scipy_unbiased_estimator(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            data = rng.normal(3.0, 2.0, int(rng.integers(5, 200)))
            expected = scipy.stats.kurtosis(data, fisher=True, bias=False)
            assert summarize(data).excess_kurtosis == pytest.approx(expected, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            summarize([1.0])

    def test_kurtosis_flagged_below_four_points(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.excess_kurtosis is None
        assert summary.std_dev == pytest.approx(1.0)

    def test_cv_flagged_for_zero_mean(self):
        summary = summarize([-1.0, 1.0, -1.0, 1.0])
        assert summary.coeff_variation is None
        assert summary.std_dev > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        data = rng.normal(5.0, 2.0, 101)
        base = summarize(data)
        for _ in range(20):
            shuffled = summarize(rng.permutation(data))
            assert shuffled.mean == pytest.approx(base.mean, rel=1e-12)
            assert shuffled.std_dev == pytest.approx(base.std_dev, rel=1e-12)
            assert shuffled.excess_kurtosis == pytest.approx(base.excess_kurtosis, rel=1e-9)

    def test_zero_sd_iff_constant(self):
        assert summarize([2.0] * 10).std_dev == 0.0
        assert summarize([2.0] * 9 + [2.0 + 1e-9]).std_dev > 0.0

    def test_short_toy_series_sample_sd(self):
        # 12-point alternating series: sample SD is sqrt(6/11) ~ 0.7385
        x = [0, 1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1]
        assert summarize(x).std_dev == pytest.approx(math.sqrt(6 / 11), rel=1e-12)


class TestRolling:
    def test_pairwise_sd_of_consecutive_integers(self):
        series = rolling([1.0, 2.0, 3.0, 4.0], 2, "std_dev")
        assert len(series) == 3
        np.testing.assert_allclose(series.values, math.sqrt(0.5), rtol=1e-15)

    def test_full_window_equals_summarize(self):
        rng = np.random.default_rng(5)
        data = rng.normal(10.0, 3.0, 60)
        summary = summarize(data)
        assert rolling(data, 60, "std_dev").values[0] == summary.std_dev
        assert rolling(data, 60, "coeff_variation").values[0] == summary.coeff_variation

    def test_window_count_identity(self):
        data = np.random.default_rng(1).normal(size=2314)
        assert len(rolling(data, 100, "std_dev")) == 2215

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmallError):
            rolling([1.0, 2.0, 3.0], 1, "std_dev")

    def test_window_too_large(self):
        with pytest.raises(WindowTooLargeError):
            rolling([1.0, 2.0, 3.0], 4, "std_dev")

    def test_points_dated_at_window_end(self):
        series = rolling([1.0, 2.0, 3.0, 4.0], 2, "std_dev", dates=("a", "b", "c", "d"))
        assert series.dates == ("b", "c", "d")

    def test_default_labels_are_end_indices(self):
        series = rolling([1.0, 2.0, 3.0, 4.0], 3, "std_dev")
        assert series.dates == (2, 3)

    def test_cv_window_with_zero_mean_is_nan(self):
        values = [1.0, -1.0, 1.0, -1.0, 5.0]
        series = rolling(values, 4, "coeff_variation")
        assert math.isnan(series.values[0])
        assert math.isfinite(series.values[1])

    def test_rolling_apen_statistic_dispatch(self):
        from tailscope.apen import ApenParams, apen

        rng = np.random.default_rng(3)
        data = rng.normal(size=40)
        series = rolling(data, 20, RollingStatistic.APEN, apen_params=ApenParams())
        assert len(series) == 21
        assert series.values[0] == apen(data[:20])

    def test_affine_equivariance(self):
        rng = np.random.default_rng(17)
        data = rng.normal(4.0, 1.5, 80)
        base = summarize(data)
        scaled = summarize(2.5 * data + 1.75)
        assert scaled.mean == pytest.approx(2.5 * base.mean + 1.75, rel=1e-9)
        assert scaled.std_dev == pytest.approx(2.5 * base.std_dev, rel=1e-9)
        assert scaled.excess_kurtosis == pytest.approx(base.excess_kurtosis, rel=1e-9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_summarize_rejects_non_finite(bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        summarize([1.0, bad, 2.0, 3.0])


@pytest.mark.parametrize("statistic", ["std_dev", "coeff_variation", "apen"])
def test_rolling_rejects_non_finite(statistic):
    values = np.linspace(1.0, 2.0, 12)
    values[7] = float("nan")
    with pytest.raises(InvalidParameterError, match="finite"):
        rolling(values, 5, statistic)


def _window_loop(values, window, statistic):
    """Per-window reference: the summary statistics of each window alone, on
    the unit scale of the whole series, with the SD scaled back."""
    unit, e = _unit_scale(values)
    out = []
    for i in range(len(values) - window + 1):
        segment = unit[i : i + window]
        sd = float(segment.std(ddof=1))
        if statistic == "std_dev":
            out.append(math.ldexp(sd, e))
        else:
            mean = segment.mean()
            out.append(float("nan") if abs(mean) < 1e-12 else float(sd / mean))
    return np.array(out)


@pytest.mark.parametrize("statistic", ["std_dev", "coeff_variation"])
@pytest.mark.parametrize("block_cells", [65_536, 300])
def test_rolling_sd_cv_bit_identical_to_window_loop(monkeypatch, statistic, block_cells):
    stats_module = importlib.import_module("tailscope.stats")
    monkeypatch.setattr(stats_module, "_ROLLING_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(2718)
    n = 1_200
    inputs = {
        "gauss": rng.normal(size=n),
        "offset_t3_walk": 1e6 + np.cumsum(rng.standard_t(3, n)),
        "pareto": rng.pareto(1.1, n),
        "constant_runs": np.repeat(rng.normal(size=n // 40), 40),
        "tiny": 1e-300 * rng.normal(size=n),
        "coin": rng.integers(0, 2, n) - 0.5,
    }
    for name, values in inputs.items():
        for window in (2, 3, 7, 127, 128, 129, 300, 1_000):
            got = rolling(values, window, statistic).values
            want = _window_loop(values, window, statistic)
            assert np.array_equal(got, want, equal_nan=True), (name, window)


@pytest.mark.parametrize("scale", [1e80, 1e-85])
def test_kurtosis_where_moments_overflow_or_vanish(scale):
    # At 1e80 the fourth powers overflow; at 1e-85 the squared variance
    # vanishes. Either way the kurtosis is that of the sample over its scale.
    values = np.random.default_rng(80).uniform(1.0, 2.0, 50) * scale
    got = summarize(values).excess_kurtosis
    assert got == pytest.approx(summarize(values / scale).excess_kurtosis, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-80, 1e-77])
def test_kurtosis_where_fourth_powers_go_subnormal(scale):
    # Below about 1e-77 the fourth powers of the deviations are subnormal and
    # lose digits, though their quotient stays finite.
    values = np.random.default_rng(0).uniform(1.0, 2.0, 50)
    got = summarize(values * scale).excess_kurtosis
    assert got == pytest.approx(summarize(values).excess_kurtosis, rel=1e-12)


def _summarize_each_window(values, window):
    return np.array([summarize(values[i : i + window]).std_dev
                     for i in range(len(values) - window + 1)])


def test_rolling_sd_of_windows_far_below_the_series_scale():
    # On the series' unit scale the 1e-150 draws go subnormal or to zero, so
    # those windows once read 0.0; each now takes its own scale.
    rng = np.random.default_rng(46)
    values = np.concatenate((1e200 * rng.normal(size=30), 1e-150 * rng.normal(size=30)))
    got = rolling(values, 10, "std_dev").values
    want = _summarize_each_window(values, 10)
    assert (got[30:] > 7e-151).all()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rolling_sd_bit_identical_to_summarize_over_mixed_magnitudes():
    # Runs of draws, or of zeros, at magnitudes 2**-1000 to 2**1000 in one
    # series: every window's SD has summarize's bits, however far below the
    # series' largest value the window lies.
    rng = np.random.default_rng(4600)
    for case in range(300):
        runs = []
        for _ in range(rng.integers(1, 6)):
            size, scale = int(rng.integers(1, 30)), int(rng.integers(-1000, 1001))
            runs.append(np.ldexp(rng.normal(size=size), scale) * (rng.random() > 0.1))
        values = np.concatenate(runs)
        if values.size < 2:
            continue
        window = int(rng.integers(2, min(values.size, 25) + 1))
        got = rolling(values, window, "std_dev").values
        want = _summarize_each_window(values, window)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), case


def _count_rolling_sd_passes(monkeypatch):
    stats_module = importlib.import_module("tailscope.stats")
    passes = []
    inner = stats_module._rolling_sd

    def counted(arr, window):
        passes.append(arr.size)
        return inner(arr, window)

    monkeypatch.setattr(stats_module, "_rolling_sd", counted)
    return passes


def test_rolling_sd_of_returns_and_prices_takes_one_pass(monkeypatch):
    # Only a series with a nonzero value 2**400 below its largest looks for
    # runs to take again on their own scale; daily returns and prices have none.
    passes = _count_rolling_sd_passes(monkeypatch)
    rng = np.random.default_rng(100)
    returns = 0.01 * rng.standard_t(4, 7_300)
    returns[::50] = 0.0
    prices = 100.0 * np.exp(np.cumsum(returns))
    for values in (returns, prices):
        for window in (2, 20, 100):
            rolling(values, window, "std_dev")
    assert passes == [7_300] * 6


def test_rolling_sd_takes_one_pass_per_run_far_below_the_series_scale(monkeypatch):
    # One spike above 10**5 tiny draws: the draws are one run, reduced in one
    # vectorized pass on their own scale, not one window at a time; the one
    # window that holds the spike is reduced alone, on the series' scale.
    passes = _count_rolling_sd_passes(monkeypatch)
    rng = np.random.default_rng(47)
    values = np.concatenate(([1e200], 1e-150 * rng.normal(size=100_000)))
    got = rolling(values, 20, "std_dev").values
    assert passes == [20, 100_000]
    assert np.array_equal(got[1:], rolling(values[1:], 20, "std_dev").values)
    assert (got[1:] > 1e-151).all()
