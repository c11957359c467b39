import ast
import functools
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tailscope.apen import ApenParams, RMode, apen
from tailscope.errors import (
    InvalidParameterError,
    TooShortError,
    WindowTooLargeError,
    ZeroToleranceError,
)
from tailscope.stats import rolling

from reference_apen import apen_dense, apen_direct, rolling_apen_loop

pytestmark = pytest.mark.filterwarnings("error")

X = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0]
Y = [-1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, 1.0, 0.0]

# Hand-derived from the template match counts of X and Y at m=2, m=3 with
# r = 0.2 * SD (every coordinate difference is 0, 1, or 2, so only exact
# coordinate matches fall within r).
X_EXPECTED = (9 * math.log(3 / 11) + 2 * math.log(2 / 11)) / 11 - (
    6 * math.log(3 / 10) + 4 * math.log(2 / 10)
) / 10
Y_EXPECTED = (6 * math.log(2 / 11) + 3 * math.log(3 / 11) + 2 * math.log(1 / 11)) / 11 - (
    2 * math.log(2 / 10) + 8 * math.log(1 / 10)
) / 10


class TestApen:
    def test_regular_alternating_series(self):
        assert apen(X) == pytest.approx(X_EXPECTED, abs=1e-12)
        assert apen(X) == pytest.approx(-0.001, abs=0.01)

    def test_shuffled_series(self):
        assert apen(Y) == pytest.approx(Y_EXPECTED, abs=1e-12)
        assert apen(Y) == pytest.approx(0.471, abs=0.05)

    def test_regular_below_irregular(self):
        assert apen(X) < apen(Y)

    def test_constant_increment_ramp(self):
        # Every template matches only itself, but the two template counts
        # normalize by 49 and 48, leaving ln(48/49) rather than exactly 0.
        value = apen(np.arange(1.0, 51.0), ApenParams(m=2, r_mode=RMode.ABSOLUTE, r_value=0.5))
        assert value == pytest.approx(math.log(48 / 49), abs=1e-12)
        assert abs(value) < 0.025

    def test_constant_series_with_absolute_r(self):
        # all templates match everywhere at both lengths: phi terms cancel
        value = apen(np.full(30, 7.5), ApenParams(m=2, r_mode=RMode.ABSOLUTE, r_value=1.0))
        assert value == 0.0

    def test_matches_direct_count_oracle(self):
        rng = np.random.default_rng(424242)
        signs = rng.integers(0, 2, 200) * 2.0 - 1.0
        params = ApenParams()
        r = params.resolve_r(signs)
        assert apen(signs, params) == pytest.approx(apen_direct(signs, 2, r), abs=1e-12)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            apen([1.0, 2.0, 3.0], ApenParams(m=2))

    def test_relative_r_on_constant_series(self):
        with pytest.raises(ZeroToleranceError):
            apen([3.0] * 20)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            apen([1.0, float("nan"), 2.0, 3.0, 4.0])

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=120)
        assert apen(data) == apen(data)

    def test_self_matches_keep_result_finite(self):
        # widely spread values: most templates match only themselves
        data = np.array([1.0, 1e6, -1e6, 2.0, 1e5, -3e4, 7.0, 9e5, -8e5, 11.0])
        assert math.isfinite(apen(data))

    def test_scale_and_shift_invariance_with_relative_r(self):
        rng = np.random.default_rng(21)
        data = rng.random(60)
        base = apen(data)
        assert apen(4.0 * data) == base
        assert apen(data + 3.7) == base
        assert apen(0.5 * data - 11.25) == base

    @pytest.mark.parametrize("t", [255, 256])
    def test_match_counts_past_the_uint8_range_stay_exact(self, monkeypatch, t):
        # With r = 1e9 every template matches every template, so each phi is
        # ln(1) = 0 exactly; a count that wrapped at 256 would give -inf or NaN.
        # With blocks of one row, each count is the sum of one row's partial
        # count and of one column count from every block before it.
        _force_kernel(monkeypatch, "blocks")
        params = ApenParams(m=2, r_mode=RMode.ABSOLUTE, r_value=1e9)
        data = np.random.default_rng(t).normal(size=t + 40)
        assert apen(data[: t + 1], params) == 0.0
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("tailscope.apen"), "_BLOCK_ROWS", 1)
            assert apen(data[: t + 1], params) == 0.0
        got = rolling(data, t + 1, "apen", apen_params=params).values
        assert np.array_equal(got, np.zeros(40))

    def test_regular_vs_shuffled_ordering_across_seeds(self):
        base = apen(X)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(9000 + seed)
            shuffled = rng.permutation(X)
            try:
                if base < apen(shuffled):
                    wins += 1
            except ZeroToleranceError:  # pragma: no cover - permutation keeps SD
                pass
        assert wins >= 95


class TestApenParams:
    def test_rejects_bad_m(self):
        with pytest.raises(InvalidParameterError):
            ApenParams(m=0)

    def test_rejects_bad_r(self):
        with pytest.raises(InvalidParameterError):
            ApenParams(r_value=0.0)

    def test_relative_r_resolution(self):
        data = np.array([0.0, 2.0, 4.0, 6.0])
        params = ApenParams(m=1, r_mode=RMode.RELATIVE, r_value=0.5)
        assert params.resolve_r(data) == pytest.approx(0.5 * data.std(ddof=1), rel=1e-15)


class TestRollingApen:
    def test_full_window_equals_apen(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=50)
        series = rolling(data, 50, "apen")
        assert len(series) == 1
        assert series.values[0] == apen(data)

    def test_periodic_series_windows_all_equal(self):
        data = np.array([0.0, 1.0] * 30)
        series = rolling(data, 30, "apen")
        np.testing.assert_allclose(series.values, series.values[0], atol=1e-12)

    def test_white_noise_windows_above_periodic_floor(self):
        rng = np.random.default_rng(606)
        noise = rng.standard_normal(160)
        windows = rolling(noise, 100, "apen")
        periodic = apen(np.tile([0.0, 1.0, 0.0, -1.0], 25))
        assert windows.values.min() > periodic

    def test_window_too_large(self):
        with pytest.raises(WindowTooLargeError):
            rolling(np.zeros(10), 11, "apen")


def _absolute(m, r):
    return ApenParams(m=m, r_mode=RMode.ABSOLUTE, r_value=r)


# Bit rows need numpy's popcount (2.0 and later): below it, forcing them
# leaves sorted blocks, and the tests check those.
POPCOUNT = hasattr(np, "bitwise_count")


def _force_kernel(patch, kernel):
    """Send whole-series ApEn to one kernel through its byte budget: none
    leaves sorted blocks, and an unbounded one leaves bit rows (wherever
    numpy has popcount and m < 64)."""
    apen_module = importlib.import_module("tailscope.apen")
    patch.setattr(apen_module, "_BIT_BYTES", 0 if kernel == "blocks" else math.inf)


def _kernel_inputs():
    rng = np.random.default_rng(7171)
    gauss = rng.normal(size=800)
    walk = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(4, 800)))
    lattice = rng.integers(-3, 4, 800).astype(np.float64)
    return {"gauss": gauss, "walk": walk, "lattice": lattice}


def _plateau_growth(n, seed=2011):
    """Closes like Bitcoin's: a long plateau, then a hundredfold growth. At
    r = 0.2 SD nearly every plateau template matches every other."""
    rng = np.random.default_rng(seed)
    flat = int(0.7 * n)
    drift = np.concatenate((np.zeros(flat), np.full(n - flat, np.log(100.0) / (n - flat))))
    return 0.08 * np.exp(np.cumsum(drift + 0.01 * rng.standard_t(4, n)))


def _whole_block_inputs():
    """(data, absolute r) of series whose blocks hold columns that match
    every row of the block."""
    plateau = _plateau_growth(300)
    # r = 1 on four values: columns sit exactly at c - lo == r and hi - c == r.
    lattice = np.random.default_rng(2012).integers(0, 4, 300).astype(np.float64)
    # The series ends back on the plateau, so the last template, whose
    # (m+1)-th coordinate is NaN, sorts among close templates: it is a
    # candidate column of the blocks before it, and its own block is tight
    # in the first m coordinates.
    back = np.concatenate((plateau, plateau[:12]))
    return {
        "plateau": (plateau, 0.2 * float(plateau.std(ddof=1))),
        "lattice": (lattice, 1.0),
        "last_on_plateau": (back, 0.2 * float(back.std(ddof=1))),
    }


@functools.lru_cache(maxsize=None)
def _direct_whole_block(name, m):
    data, r = _whole_block_inputs()[name]
    return apen_direct(data, m, r)


@functools.lru_cache(maxsize=None)
def _direct_walk(m):
    return apen_direct(_kernel_inputs()["walk"], m, 1.0)


class TestBandKernel:
    """The sorted-band kernel against the direct count and the dense kernel."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_direct_count_oracle(self, m):
        data = np.random.default_rng(800 + m).normal(size=800)
        r = 0.2 * float(data.std(ddof=1))
        assert apen(data, _absolute(m, r)) == pytest.approx(apen_direct(data, m, r), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_integer_lattice_ties_on_band_edge(self, m):
        # With r = 1.0 many pairs sit exactly at |u_i - u_j| == r, which is
        # the edge of every band; they must all be counted as matches.
        data = np.random.default_rng(31 + m).integers(0, 6, 300).astype(np.float64)
        value = apen(data, _absolute(m, 1.0))
        assert value == pytest.approx(apen_direct(data, m, 1.0), abs=1e-12)
        assert value == apen_dense(data, m, 1.0)

    @pytest.mark.parametrize("r", [0.1, 0.2, 0.3, 0.7])
    def test_decimal_lattice_rounds_on_band_edge(self, r):
        # Tenths are inexact, so some differences of one band width round
        # to just above r and some to just below, whatever fl(u + r) says:
        # the ends of the runs must be stepped into place.
        data = np.random.default_rng(41).integers(0, 30, 400) * 0.1
        for m in (1, 2):
            value = apen(data, _absolute(m, r))
            assert value == apen_dense(data, m, r), m
            assert value == pytest.approx(apen_direct(data, m, r), abs=1e-12), m

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_minimum_length(self, m):
        data = np.array([0.3, -1.2, 0.9, 2.4, -0.5])[: m + 2]
        for r in (0.5, 1.5, 10.0):
            value = apen(data, _absolute(m, r))
            assert value == pytest.approx(apen_direct(data, m, r), abs=1e-12)
            assert value == apen_dense(data, m, r)

    def test_tolerance_near_float_max(self):
        # Every pair matches, and the band bound 8e307 + r overflows even
        # though r and its few-ulp slack are finite.
        data = np.concatenate(([8e307], np.arange(40.0)))
        r = math.nextafter(float(np.finfo(np.float64).max) - 8e307, 0.0)
        assert apen(data, _absolute(2, r)) == apen_dense(data, 2, r) == 0.0

    @pytest.mark.parametrize("cells", [1, 997, 20_000])
    def test_small_chunks_cross_many_blocks(self, monkeypatch, cells):
        _force_kernel(monkeypatch, "blocks")
        monkeypatch.setattr(importlib.import_module("tailscope.apen"), "_CHUNK_CELLS", cells)
        for name, data in _kernel_inputs().items():
            for m in (1, 2, 3):
                r = 1.0 if name == "lattice" else 0.2 * float(data.std(ddof=1))
                assert apen(data, _absolute(m, r)) == apen_dense(data, m, r), (name, m)

    # (rows per block, cells per block): every count is then summed from the
    # row and column counts of many blocks of a few rows.
    @pytest.mark.parametrize("rows, cells", [(1, None), (2, None), (3, None), (3, 1_600)])
    def test_small_blocks_count_each_pair_once(self, monkeypatch, rows, cells):
        _force_kernel(monkeypatch, "blocks")
        apen_module = importlib.import_module("tailscope.apen")
        monkeypatch.setattr(apen_module, "_BLOCK_ROWS", rows)
        if cells is not None:
            monkeypatch.setattr(apen_module, "_CHUNK_CELLS", cells)
        for name, data in _kernel_inputs().items():
            for m in (1, 2, 3):
                params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
                want = apen_dense(data, m, params.resolve_r(data))
                assert apen(data, params) == want, (name, m)

    # Blocks of 1, 2, 3 and the default number of rows.
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_columns_matching_whole_blocks(self, monkeypatch, m, rows):
        _force_kernel(monkeypatch, "blocks")
        apen_module = importlib.import_module("tailscope.apen")
        if rows is not None:
            monkeypatch.setattr(apen_module, "_BLOCK_ROWS", rows)
        for name, (data, r) in _whole_block_inputs().items():
            value = apen(data, _absolute(m, r))
            assert value == apen_dense(data, m, r), name
            assert value == pytest.approx(_direct_whole_block(name, m), abs=1e-12), name

    # On the walk at r = 1, some blocks of 3 rows hold a few columns that
    # match the whole block, and such a block compares the rest gathered.
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_walk_gathers_blocks_with_whole_columns(self, monkeypatch, m, rows):
        _force_kernel(monkeypatch, "blocks")
        apen_module = importlib.import_module("tailscope.apen")
        if rows is not None:
            monkeypatch.setattr(apen_module, "_BLOCK_ROWS", rows)
        unmatched, gathered = apen_module._unmatched, []

        def recording(*args):
            cols = unmatched(*args)
            gathered.append(cols is not None)
            return cols

        monkeypatch.setattr(apen_module, "_unmatched", recording)
        data = _kernel_inputs()["walk"]
        value = apen(data, _absolute(m, 1.0))
        assert value == apen_dense(data, m, 1.0)
        assert value == pytest.approx(_direct_walk(m), abs=1e-12)
        if rows == 3:
            assert any(gathered)

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_columns_past_a_block_lie_in_its_first_runs(self, monkeypatch, m, rows):
        # _unmatched tests coordinates 1..m only: each column it tests,
        # [stop, last), already lies in every row's coordinate-0 run.
        _force_kernel(monkeypatch, "blocks")
        apen_module = importlib.import_module("tailscope.apen")
        if rows is not None:
            monkeypatch.setattr(apen_module, "_BLOCK_ROWS", rows)
        runs, unmatched, by_rank, tested = apen_module._runs, apen_module._unmatched, [], []

        def recording(arr, r):
            sort, by_index = runs(arr, r)
            bounds = np.empty((2, arr.size + 1), np.int64)  # [lo, end) of each rank's run
            bounds[:, by_index[0]] = by_index[1], by_index[1] + by_index[2].astype(np.int64)
            by_rank[:] = [bounds]
            return sort, by_index

        def checking(ranks, floor, room, start, stop, end, last, counts):
            lo, top = by_rank[0][:, ranks[0, start:stop], None]
            cols = ranks[0, stop:last]
            assert np.all((lo <= cols) & (cols < top)), (start, stop)
            tested.append(cols.size)
            return unmatched(ranks, floor, room, start, stop, end, last, counts)

        monkeypatch.setattr(apen_module, "_runs", recording)
        monkeypatch.setattr(apen_module, "_unmatched", checking)
        series = {**_kernel_inputs(), "plateau": _plateau_growth(800)}
        for name, data in series.items():
            apen(data, _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m))
        assert sum(tested)

    def test_block_rows_are_contiguous(self, monkeypatch):
        # Every rank and run row that _matches compares has a unit inner
        # stride, gathered or sliced.
        _force_kernel(monkeypatch, "blocks")
        apen_module = importlib.import_module("tailscope.apen")
        matches, seen = apen_module._matches, []

        def checking(ranks, lo, width, *buffers):
            seen.extend(a.strides[1] == a.itemsize for a in (ranks, lo, width))
            return matches(ranks, lo, width, *buffers)

        monkeypatch.setattr(apen_module, "_matches", checking)
        data = np.random.default_rng(2_000).normal(size=2_000)
        for m in (1, 2, 3):
            apen(data, ApenParams(m=m))
        assert seen and all(seen)

    def test_plateau_compares_under_half_of_its_band(self, monkeypatch):
        # Most plateau columns match every row of their block: the kernel
        # counts them without asking _matches to compare their cells.
        _force_kernel(monkeypatch, "blocks")
        apen_module = importlib.import_module("tailscope.apen")
        matches, asked = apen_module._matches, []

        def counting(ranks, lo, width, *buffers):
            asked.append(lo.shape[1] * ranks.shape[1])
            return matches(ranks, lo, width, *buffers)

        monkeypatch.setattr(apen_module, "_matches", counting)
        data = _plateau_growth(3_650)
        value = apen(data)
        compared = sum(asked)
        asked.clear()
        monkeypatch.setattr(apen_module, "_unmatched", lambda *args: None)  # every cell compared
        assert apen(data) == value
        assert compared < sum(asked) / 2, (compared, sum(asked))

    # Ranks and runs are uint16 up to 65,535 values and uint32 past that.
    @pytest.mark.parametrize("n", [65_535, 65_536])
    def test_exact_on_both_sides_of_the_narrow_rank_type(self, n):
        # On a lattice with r = 0.5 templates match only when they are equal,
        # so each count is its template's multiplicity, and np.unique gives it.
        data = np.random.default_rng(n).integers(0, 256, n).astype(np.float64)

        def phi(mm):
            windows = np.lib.stride_tricks.sliding_window_view(data, mm)
            counts = np.unique(windows, axis=0, return_counts=True)[1]
            return float(np.sum(counts * np.log(counts / windows.shape[0]))) / windows.shape[0]

        assert apen(data, _absolute(2, 0.5)) == pytest.approx(phi(2) - phi(3), abs=1e-12)

    def test_plateau_peak_memory(self):
        # The traced peak before columns that match whole blocks were counted
        # without their cells was 3,523,974 bytes on this series (numpy 2.4).
        data = _plateau_growth(3_650)
        tracemalloc.start()
        try:
            apen(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 3_523_974, peak

    @pytest.mark.parametrize("name", ["gauss", "walk", "lattice"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_identical_to_dense_kernel(self, name, m):
        data = _kernel_inputs()[name]
        params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
        assert apen(data, params) == apen_dense(data, m, params.resolve_r(data))


def _bench_shaped(seed=1):
    """Six series shaped like the benchmark's report: for each of three
    ten-year daily t(4) price walks, two of them weekend-filled (flat over
    each Saturday and Sunday), the closes and their log-returns."""
    rng = np.random.default_rng(seed)
    weekday = np.arange(3_651) % 7 < 5
    out = []
    for first, drift, scale, filled in ((1200.0, 2e-4, 0.012, True), (270.0, 2e-4, 0.010, True),
                                        (0.08, 1.2e-3, 0.040, False)):
        steps = drift + scale * rng.standard_t(4, weekday.size) / math.sqrt(2.0)
        closes = first * np.exp(np.cumsum(np.where(weekday, steps, 0.0) if filled else steps))
        out += [closes, np.diff(np.log(closes))]
    return out


def _chooses_bits(n, m):
    return importlib.import_module("tailscope.apen")._bit_rows(n, m)


def _largest_bit_row_n():
    """The largest N whose prefix bitset, N + 1 rows of ceil(N / 64) words,
    fits the byte budget."""
    n = 64
    while (n + 2) * -(-(n + 1) // 64) * 8 <= importlib.import_module("tailscope.apen")._BIT_BYTES:
        n += 1
    return n


def _kernel_ran(patch, data, params):
    """Which kernel counted ``apen(data, params)``: "bits" or "blocks"."""
    apen_module = importlib.import_module("tailscope.apen")
    ran = []
    with patch.context() as spy:
        for name, kernel in (("_bit_counts", "bits"), ("_block_counts", "blocks")):
            def spying(*args, count=getattr(apen_module, name), kernel=kernel):
                ran.append(kernel)
                return count(*args)

            spy.setattr(apen_module, name, spying)
        apen(data, params)
    (kernel,) = ran
    return kernel


def _word_edge_inputs():
    """(data, m, absolute r) with t = N - m + 1 templates at the edges of
    one and two 64-bit words, on a Gaussian and on a lattice with r = 1."""
    rng = np.random.default_rng(6464)
    for t in (63, 64, 65, 127, 128, 129):
        for m in (1, 2, 3):
            gauss = rng.normal(size=t + m - 1)
            yield gauss, m, 0.2 * float(gauss.std(ddof=1))
            yield rng.integers(0, 4, t + m - 1).astype(np.float64), m, 1.0


class TestBitRows:
    """Whole-series ApEn from bit rows and from sorted blocks, each forced
    through the selection constants, against the dense and direct counts."""

    @pytest.mark.parametrize("kernel", ["bits", "blocks"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kernel_inputs_match_the_dense_count(self, monkeypatch, kernel, m):
        _force_kernel(monkeypatch, kernel)
        for name, data in _kernel_inputs().items():
            params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
            r = params.resolve_r(data)
            assert _chooses_bits(data.size, m) == (kernel == "bits" and POPCOUNT), name
            assert apen(data, params) == apen_dense(data, m, r), name

    @pytest.mark.parametrize("kernel", ["bits", "blocks"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_whole_block_inputs_match_dense_and_direct(self, monkeypatch, kernel, m):
        _force_kernel(monkeypatch, kernel)
        for name, (data, r) in _whole_block_inputs().items():
            value = apen(data, _absolute(m, r))
            assert value == apen_dense(data, m, r), name
            assert value == pytest.approx(_direct_whole_block(name, m), abs=1e-12), name

    @pytest.mark.parametrize("kernel", ["bits", "blocks"])
    def test_word_edges_match_dense_and_direct(self, monkeypatch, kernel):
        _force_kernel(monkeypatch, kernel)
        for data, m, r in _word_edge_inputs():
            value = apen(data, _absolute(m, r))
            assert value == apen_dense(data, m, r), (data.size, m)
            assert value == pytest.approx(apen_direct(data, m, r), abs=1e-12), (data.size, m)

    @pytest.mark.parametrize("kernel", ["bits", "blocks"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_self_matches_only_and_every_match(self, monkeypatch, kernel, m):
        # At r = 1e-12 each template of distinct draws matches itself alone,
        # and the last one's m + 1 count is empty: phi(m) = ln(1 / t) and
        # phi(m + 1) = ln(1 / (t - 1)). At r = 1e9 every template matches.
        _force_kernel(monkeypatch, kernel)
        data = np.random.default_rng(90 + m).normal(size=300)
        t = data.size - m + 1
        tiny = apen(data, _absolute(m, 1e-12))
        assert tiny == apen_dense(data, m, 1e-12)
        assert tiny == pytest.approx(math.log(t - 1) - math.log(t), abs=1e-12)
        assert apen(data, _absolute(m, 1e9)) == 0.0

    @pytest.mark.parametrize("t", [255, 256])
    def test_counts_at_the_uint8_edge(self, monkeypatch, t):
        # t = 255 counts in uint8 and t = 256 in uint16: a count of 255 or
        # 256 that wrapped would give -inf or a nonzero value.
        _force_kernel(monkeypatch, "bits")
        data = np.random.default_rng(t).normal(size=t + 1)
        assert apen(data, _absolute(2, 1e9)) == 0.0
        assert apen(data, ApenParams()) == apen_dense(data, 2, ApenParams().resolve_r(data))

    def test_selection(self, monkeypatch):
        # The byte budget at its shipped value, m and numpy's popcount pick
        # the kernel; the runs do not.
        bits = "bits" if POPCOUNT else "blocks"
        for data in _bench_shaped():
            assert _chooses_bits(data.size, 2) == POPCOUNT
        rng = np.random.default_rng(3_650)
        for n, want in ((3_650, bits), (10_000, "blocks")):
            gauss = rng.normal(size=n)
            narrow = ((rng.integers(0, 256, n).astype(np.float64), _absolute(2, 0.5)),
                      (gauss, _absolute(2, 0.001)))
            wide = ((gauss, ApenParams()), (np.cumsum(rng.standard_t(4, n)), ApenParams()))
            for data, params in (*narrow, *wide):
                assert _kernel_ran(monkeypatch, data, params) == want, (n, params)
        n = _largest_bit_row_n()
        walk = np.cumsum(rng.standard_t(4, n + 1))
        assert _kernel_ran(monkeypatch, walk[:n], ApenParams()) == bits
        assert _kernel_ran(monkeypatch, walk, ApenParams()) == "blocks"
        short = np.random.default_rng(64).normal(size=300)
        assert _chooses_bits(short.size, 63) == POPCOUNT
        assert not _chooses_bits(short.size, 64)
        want = apen(short, ApenParams(m=3))
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert not _chooses_bits(short.size, 3)
        assert apen(short, ApenParams(m=3)) == want

    def test_peak_memory_at_the_largest_bit_row_series(self):
        # The traced peak holds the largest bitset that fits the byte
        # budget, the block buffers (two of _BIT_ROWS + m + 1 rows, one of
        # _BIT_ROWS rows and its popcount bytes) and the series' own index
        # and count arrays, under 64 bytes per value; a second bitset or a
        # temporary as large as the bitset would not fit.
        apen_module = importlib.import_module("tailscope.apen")
        n = _largest_bit_row_n()
        data = np.cumsum(np.random.default_rng(n).standard_t(4, n))
        assert _chooses_bits(n, 2) == POPCOUNT
        words = -(-n // 64)
        rows = apen_module._BIT_ROWS
        buffers = 2 * (rows + 3) * words * 8 + rows * words * 9
        tracemalloc.start()
        try:
            apen(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= apen_module._BIT_BYTES + buffers + 64 * n, (n, peak)


def _rolling_inputs(n):
    rng = np.random.default_rng(4242)
    return {
        "gauss": rng.normal(size=n),
        "walk": 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(4, n))),
        "lattice": rng.integers(-3, 4, n).astype(np.float64),
    }


class TestBatchedRollingApen:
    """Rolling ApEn from one band of distances against apen on each window alone."""

    # Block budgets (_ROLLING_CELLS): the default; 1, a block of one window
    # and a chunk of one offset; 1_000 and 2_113, small blocks of sizes that
    # vary with the window, odd ones among them, split into chunks of a few
    # offsets; and one block that holds every window, in one chunk.
    CHUNKINGS = [None, 1, 1_000, 2_113, 10**9]

    @pytest.mark.parametrize("name", ["gauss", "walk", "lattice"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_identical_to_window_loop(self, monkeypatch, name, m):
        n = 260
        data = _rolling_inputs(n)[name]
        params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
        for window in (m + 2, 7, m + 31, m + 32, 99, 100, 129, 256, 257, n):
            want = rolling_apen_loop(data, window, params)
            for entry in self._every_chunking(monkeypatch):
                got = rolling(data, window, "apen", apen_params=params).values
                assert np.array_equal(got, want), (window, entry)

    @pytest.mark.parametrize("name", ["gauss", "walk", "lattice"])
    def test_long_window_bit_identical_to_window_loop(self, monkeypatch, name):
        # Windows far past the block budget, so each block's offsets are
        # split into chunks; 41_000 cells make blocks of 37 windows. The loop
        # checks apen itself at N = 1,100 on each of the 201 windows; on the
        # price walk most pairs lie between their windows' tolerances.
        apen_module = importlib.import_module("tailscope.apen")
        data = _rolling_inputs(1_300)[name]
        params = _absolute(2, 1.0) if name == "lattice" else ApenParams()
        want = rolling_apen_loop(data, 1_100, params)
        for cells in (None, 41_000):
            with monkeypatch.context() as patch:
                if cells is not None:
                    patch.setattr(apen_module, "_ROLLING_CELLS", cells)
                got = rolling(data, 1_100, "apen", apen_params=params).values
            assert np.array_equal(got, want), cells

    def _every_chunking(self, monkeypatch):
        """Patch in each CHUNKINGS entry in turn, and yield it."""
        apen_module = importlib.import_module("tailscope.apen")
        for cells in self.CHUNKINGS:
            with monkeypatch.context() as patch:
                if cells is not None:
                    patch.setattr(apen_module, "_ROLLING_CELLS", cells)
                yield cells

    def _assert_every_chunking(self, monkeypatch, data, windows, params):
        for window in windows:
            want = rolling_apen_loop(data, window, params)
            for entry in self._every_chunking(monkeypatch):
                got = rolling(data, window, "apen", apen_params=params).values
                assert np.array_equal(got, want), (window, entry)

    @pytest.mark.parametrize("name", ["gauss", "walk", "lattice"])
    @pytest.mark.parametrize("m", [4, 5])
    def test_long_templates_bit_identical_to_window_loop(self, monkeypatch, name, m):
        # Each coordinate past the first is folded in as a view of one
        # difference matrix shifted k columns on, for any m.
        data = _rolling_inputs(260)[name]
        params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
        self._assert_every_chunking(monkeypatch, data, (m + 2, 7, 30, 100, 257), params)

    @pytest.mark.parametrize("name", ["gauss", "lattice"])
    @pytest.mark.parametrize("m", [5, 9])
    def test_coordinates_in_runs_bit_identical_to_window_loop(self, monkeypatch, name, m):
        # A budget of 1,024 cells makes chunks of one offset, so the
        # difference matrix holds m more columns than the chunk's distances
        # and every coordinate is a view of it shifted further than the
        # chunk is wide.
        monkeypatch.setattr(importlib.import_module("tailscope.apen"), "_ROLLING_CELLS", 1_024)
        data = _rolling_inputs(260)[name]
        params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
        for window in (30, 31, 100):
            got = rolling(data, window, "apen", apen_params=params).values
            assert np.array_equal(got, rolling_apen_loop(data, window, params)), window

    def test_forward_and_backward_counts_match_a_tri_reference(self):
        # _count_band adds each template's matches after it (forward) and
        # before it (backward) in each window, reading them through views
        # that step back a row per position and a column per offset; np.tri
        # spells out which templates each window holds. Chunks of 1 to 5
        # offsets carry the prefixes from chunk to chunk, and windows of 254
        # to 257 templates cross the uint8 edge of the counts.
        count_band = importlib.import_module("tailscope.apen")._count_band
        rng = np.random.default_rng(2700)
        for b in (1, 2, 5, 13):
            for t in (*range(2, 9), 254, 255, 256, 257):
                g = b + t - 1
                dist = rng.uniform(0.0, 1.0, (t, g + 1))  # dist[d, i]: templates i and i + d
                r = np.full(b, rng.uniform(0.2, 0.8))
                match = np.zeros((g, g), bool)
                for d in range(1, t):
                    match[np.arange(g - d), np.arange(d, g)] = dist[d, : g - d] <= r[0]
                match |= match.T
                holds = np.tri(b, g, t - 1, bool) & ~np.tri(b, g, -1, bool)
                before = np.tri(g, g, -1, bool)
                for rows in {1, 3, 5, t - 1} - {0}:
                    dtype = np.min_scalar_type(t)
                    counts = np.zeros((t, b), dtype)
                    carry = np.zeros((2, g), dtype)
                    bufs = (None, np.empty((2, (rows + 1) * (g + 2)), dtype), None)
                    for d0 in range(1, t, rows):
                        # As in _rolling_apen, templates past g - d0 are left out.
                        band = np.ascontiguousarray(dist[d0 : min(t, d0 + rows), : g - d0])
                        count_band(band, d0, t, r, None, bufs, carry, counts, [])
                    for w in range(b):
                        inside = match & holds[w][:, None] & holds[w][None, :]
                        ahead = (inside & ~before & ~np.eye(g, dtype=bool)).sum(axis=1)
                        behind = (inside & before).sum(axis=1)
                        want = (ahead + behind)[w : w + t]
                        assert np.array_equal(counts[:, w], want), (b, t, rows, w)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_volatility_break_bit_identical_to_window_loop(self, monkeypatch, m):
        # Windows across the break that hold one template have tolerances
        # more than 10x apart, so many of its pairs lie between their
        # windows' smallest and largest tolerance and are classified group
        # by group and compared window by window.
        rng = np.random.default_rng(5150 + m)
        data = np.concatenate((rng.normal(size=200), 10.0 * rng.normal(size=200)))
        sd = np.lib.stride_tricks.sliding_window_view(data, 30).std(axis=1, ddof=1)
        spans = np.lib.stride_tricks.sliding_window_view(sd, 30 - m + 1)
        assert (spans.max(axis=1) / spans.min(axis=1)).max() > 10.0
        self._assert_every_chunking(monkeypatch, data, (m + 2, 7, 30, 100, 257), ApenParams(m=m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_absolute_tolerance_bit_identical_to_window_loop(self, monkeypatch, m):
        # Every window shares one tolerance, so no pair lies between its
        # windows' smallest and largest; real values, not a lattice, so ties
        # with r are rare.
        data = np.random.default_rng(6160 + m).standard_t(4, 300)
        self._assert_every_chunking(monkeypatch, data, (m + 2, 7, 30, 100, 257), _absolute(m, 0.4))

    def test_distance_equal_to_an_inner_tolerance_matches(self, monkeypatch):
        # Every run of three or more windows has tolerances 0.5 and 2.0,
        # and the windows in between have r = 1.0 exactly, which integer
        # distances of 1 meet: those pairs match in those windows only.
        apen_module = importlib.import_module("tailscope.apen")
        m, window = 2, 40
        data = np.random.default_rng(77).integers(0, 6, 120).astype(np.float64)
        total = data.size - window + 1
        r = np.resize([0.5, 1.0, 2.0], total)
        want = np.empty(total)
        for b in range(total):
            x = data[b : b + window]
            phi = []
            for mm in (m, m + 1):
                templates = np.lib.stride_tricks.sliding_window_view(x, mm)
                d = np.abs(templates[:, None, :] - templates[None, :, :]).max(axis=2)
                phi.append(np.mean(np.log((d <= r[b]).sum(axis=1) / templates.shape[0])))
                if r[b] == 1.0:
                    assert (d == 1.0).any()
            want[b] = phi[0] - phi[1]
        for entry in self._every_chunking(monkeypatch):
            assert np.array_equal(apen_module._rolling_apen(data, window, m, r), want), entry

    @pytest.mark.parametrize("window", [34, 100, 1_000])
    def test_peak_memory_stays_bounded(self, window):
        # Ten years of daily returns: the kernel's buffers are bounded per
        # slab, so the traced peak stays near 1 MB even at long windows.
        data = 0.02 * np.random.default_rng(3650).standard_t(4, 3_650)
        tracemalloc.start()
        try:
            rolling(data, window, "apen")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak

    def test_peak_memory_stays_bounded_at_long_templates(self):
        # At m = 900 one difference matrix over m more rows and columns than
        # the slab would take 8.8 MB; runs of coordinates share a matrix
        # within twice the slab instead, and the peak was 744,824 bytes.
        data = 0.02 * np.random.default_rng(3650).standard_t(4, 1_100)
        tracemalloc.start()
        try:
            rolling(data, 1_000, "apen", apen_params=ApenParams(m=900))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak

    def test_constant_run_raises_zero_tolerance(self):
        data = np.random.default_rng(12).normal(size=300)
        data[100:220] = 3.0
        with pytest.raises(ZeroToleranceError):
            rolling(data, 100, "apen")
        with pytest.raises(ZeroToleranceError):
            rolling_apen_loop(data, 100)

    def test_first_failing_window_decides_the_error(self):
        # One window is constant and another's values are huge. Huge values
        # are taken on their unit scale, so only the constant window fails,
        # in either order, as it would for apen on each window in turn.
        rng = np.random.default_rng(13)
        constant, huge = np.full(20, 2.0), 1e160 * rng.normal(size=20)
        for data in (np.concatenate((constant, huge)), np.concatenate((huge, constant))):
            with pytest.raises(ZeroToleranceError, match="constant window"):
                rolling(data, 10, "apen")
            with pytest.raises(ZeroToleranceError, match="constant window"):
                rolling_apen_loop(data, 10)


class TestToleranceOverflow:
    """A window whose squares overflow float64 is taken on its unit scale:
    its ApEn is that of the same values divided by a power of two."""

    def test_apen_equals_its_unit_scale_value(self):
        data = 1e160 * np.random.default_rng(50).normal(size=50)
        e = np.frexp(np.abs(data).max())[1]
        assert apen(data) == apen(np.ldexp(data, -e))

    def test_rolling_apen_equals_its_unit_scale_values(self):
        data = 1e160 * np.random.default_rng(51).normal(size=150)
        e = np.frexp(np.abs(data).max())[1]
        assert np.array_equal(
            rolling(data, 100, "apen").values, rolling(np.ldexp(data, -e), 100, "apen").values
        )

    def test_absolute_tolerance_needs_no_sd(self):
        data = 1e160 * np.random.default_rng(52).normal(size=60)
        params = _absolute(2, 1e159)
        assert np.array_equal(
            rolling(data, 30, "apen", apen_params=params).values,
            rolling_apen_loop(data, 30, params),
        )



def test_apen_imports_nothing_from_stats():
    """stats.rolling calls into apen, so apen importing stats would be a cycle."""
    module = importlib.import_module("tailscope.apen")
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "tailscope." if node.level else ""
            names |= {base + (node.module or alias.name) for alias in node.names}
    assert {name for name in names if name.startswith("tailscope")} == {"tailscope.errors"}
