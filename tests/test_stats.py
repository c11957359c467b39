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
    """Per-window reference: the summary statistics of each window alone."""
    out = []
    for i in range(len(values) - window + 1):
        segment = values[i : i + window]
        sd = float(segment.std(ddof=1))
        if statistic == "std_dev":
            out.append(sd)
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
