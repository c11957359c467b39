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
        monkeypatch.setattr(importlib.import_module("tailscope.apen"), "_CHUNK_CELLS", cells)
        for name, data in _kernel_inputs().items():
            for m in (1, 2, 3):
                r = 1.0 if name == "lattice" else 0.2 * float(data.std(ddof=1))
                assert apen(data, _absolute(m, r)) == apen_dense(data, m, r), (name, m)

    # (rows per block, cells per block): every count is then summed from the
    # row and column counts of many blocks of a few rows.
    @pytest.mark.parametrize("rows, cells", [(1, None), (2, None), (3, None), (3, 1_600)])
    def test_small_blocks_count_each_pair_once(self, monkeypatch, rows, cells):
        apen_module = importlib.import_module("tailscope.apen")
        monkeypatch.setattr(apen_module, "_BLOCK_ROWS", rows)
        if cells is not None:
            monkeypatch.setattr(apen_module, "_CHUNK_CELLS", cells)
        for name, data in _kernel_inputs().items():
            for m in (1, 2, 3):
                params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
                want = apen_dense(data, m, params.resolve_r(data))
                assert apen(data, params) == want, (name, m)

    # Blocks of 1, 2, 3 and the default number of rows, under the cost rule
    # as it is and under one that gathers whenever a column matches a block.
    @pytest.mark.parametrize("always", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_columns_matching_whole_blocks(self, monkeypatch, m, rows, always):
        apen_module = importlib.import_module("tailscope.apen")
        if rows is not None:
            monkeypatch.setattr(apen_module, "_BLOCK_ROWS", rows)
        if always:
            monkeypatch.setattr(apen_module, "_GATHER_CELLS", 0)
            monkeypatch.setattr(apen_module, "_GATHER_FIXED", 0)
        for name, (data, r) in _whole_block_inputs().items():
            value = apen(data, _absolute(m, r))
            assert value == apen_dense(data, m, r), name
            assert value == pytest.approx(_direct_whole_block(name, m), abs=1e-12), name

    def test_plateau_compares_under_half_of_its_band(self, monkeypatch):
        # Most plateau columns match every row of their block: the kernel
        # counts them without asking _distances for their cells.
        apen_module = importlib.import_module("tailscope.apen")
        distances, asked = apen_module._distances, []

        def counting(coords, rows, cols, *buffers):
            asked.append((rows.stop - rows.start) * (cols.stop - cols.start))
            return distances(coords, rows, cols, *buffers)

        monkeypatch.setattr(apen_module, "_distances", counting)
        data = _plateau_growth(3_650)
        value = apen(data)
        compared = sum(asked)
        asked.clear()
        monkeypatch.setattr(apen_module, "_GATHER_FIXED", math.inf)  # every cell compared
        assert apen(data) == value
        assert compared < sum(asked) / 2, (compared, sum(asked))

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


def _rolling_inputs(n):
    rng = np.random.default_rng(4242)
    return {
        "gauss": rng.normal(size=n),
        "walk": 100.0 * np.exp(np.cumsum(0.01 * rng.standard_t(4, n))),
        "lattice": rng.integers(-3, 4, n).astype(np.float64),
    }


class TestBatchedRollingApen:
    """Rolling ApEn from diagonal blocks against apen on each window alone."""

    # (windows per chunk, mask cells per slab): the default, one window per
    # chunk, an odd chunk, a chunk wider than the window count, and slabs of
    # one row and of a few rows.
    CHUNKINGS = [(None, None), (1, None), (7, None), (10_000, None), (7, 1), (24, 1_000)]

    @pytest.mark.parametrize("name", ["gauss", "walk", "lattice"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bit_identical_to_window_loop(self, monkeypatch, name, m):
        apen_module = importlib.import_module("tailscope.apen")
        n = 260
        data = _rolling_inputs(n)[name]
        params = _absolute(m, 1.0) if name == "lattice" else ApenParams(m=m)
        for window in (m + 2, 7, 99, 100, 129, 256, 257, n):
            want = rolling_apen_loop(data, window, params)
            for windows, cells in self.CHUNKINGS:
                with monkeypatch.context() as patch:
                    if windows is not None:
                        patch.setattr(apen_module, "_ROLLING_WINDOWS", windows)
                    if cells is not None:
                        patch.setattr(apen_module, "_ROLLING_CELLS", cells)
                    got = rolling(data, window, "apen", apen_params=params).values
                assert np.array_equal(got, want), (window, windows, cells)

    @pytest.mark.parametrize("name", ["gauss", "lattice"])
    def test_long_window_bit_identical_to_window_loop(self, monkeypatch, name):
        # Windows far past the chunk's cell budget; the loop checks apen
        # itself at N = 1,100 on each of the 201 windows.
        apen_module = importlib.import_module("tailscope.apen")
        data = _rolling_inputs(1_300)[name]
        params = _absolute(2, 1.0) if name == "lattice" else ApenParams()
        want = rolling_apen_loop(data, 1_100, params)
        for windows in (None, 1):
            with monkeypatch.context() as patch:
                if windows is not None:
                    patch.setattr(apen_module, "_ROLLING_WINDOWS", windows)
                got = rolling(data, 1_100, "apen", apen_params=params).values
            assert np.array_equal(got, want), windows

    def _every_chunking(self, monkeypatch):
        """Patch in each CHUNKINGS entry in turn, and yield it."""
        apen_module = importlib.import_module("tailscope.apen")
        for chunk, cells in self.CHUNKINGS:
            with monkeypatch.context() as patch:
                if chunk is not None:
                    patch.setattr(apen_module, "_ROLLING_WINDOWS", chunk)
                if cells is not None:
                    patch.setattr(apen_module, "_ROLLING_CELLS", cells)
                yield chunk, cells

    def _assert_every_chunking(self, monkeypatch, data, windows, params):
        for window in windows:
            want = rolling_apen_loop(data, window, params)
            for entry in self._every_chunking(monkeypatch):
                got = rolling(data, window, "apen", apen_params=params).values
                assert np.array_equal(got, want), (window, entry)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_volatility_break_bit_identical_to_window_loop(self, monkeypatch, m):
        # Windows across the break have tolerances more than 10x apart in
        # one chunk, so many of its distances lie between its smallest and
        # largest tolerance and are compared window by window.
        rng = np.random.default_rng(5150 + m)
        data = np.concatenate((rng.normal(size=200), 10.0 * rng.normal(size=200)))
        sd = np.lib.stride_tricks.sliding_window_view(data, 30).std(axis=1, ddof=1)
        chunk = importlib.import_module("tailscope.apen")._ROLLING_WINDOWS
        spans = np.lib.stride_tricks.sliding_window_view(sd, chunk)
        assert (spans.max(axis=1) / spans.min(axis=1)).max() > 10.0
        self._assert_every_chunking(monkeypatch, data, (m + 2, 7, 30, 100, 257), ApenParams(m=m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_absolute_tolerance_bit_identical_to_window_loop(self, monkeypatch, m):
        # Every window of a chunk shares one tolerance, so no distance lies
        # between the chunk's smallest and largest; real values, not a
        # lattice, so ties with r are rare.
        data = np.random.default_rng(6160 + m).standard_t(4, 300)
        self._assert_every_chunking(monkeypatch, data, (m + 2, 7, 30, 100, 257), _absolute(m, 0.4))

    def test_distance_equal_to_an_inner_tolerance_matches(self, monkeypatch):
        # Every chunk of three or more windows has tolerances 0.5 and 2.0,
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

    @pytest.mark.parametrize("window", [100, 1_000])
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
