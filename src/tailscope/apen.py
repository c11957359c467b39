"""Approximate entropy, a regularity statistic for time series.

ApEn(m, r, N) measures how often runs of ``m`` consecutive observations
that match within tolerance ``r`` still match when extended by one more
observation. Templates x(i) = (u_i, ..., u_{i+m-1}) are compared with the
Chebyshev (max-coordinate) distance, counting self-matches, and scored as

    phi(m) = mean over i of ln( matches_i / n_templates )

with the statistic defined as ``phi(m) - phi(m+1)``. Low values indicate
repetitive, predictable patterns; larger values indicate irregularity.
The conventional parameterization is m=2 with r equal to 20% of the sample
standard deviation of the analyzed window (Pincus, 1991).

Because self-matches are counted, every match count is at least 1, all
logarithms are finite, and slightly negative results are possible for very
regular series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError, ZeroToleranceError, _as_finite_array, _as_int, _Choice, _from_unit_scale,
    _unit_scale,
)

# Distance blocks hold _BLOCK_ROWS sorted templates at a time and never more
# than _CHUNK_CELLS float64 cells (~32 MB), whatever N is. A block of sorted
# rows spans about as many columns beyond the band as it has rows, while each
# block also costs a fixed twenty-odd numpy calls: 64 rows balances the two,
# and a series shorter than two blocks is one block.
_BLOCK_ROWS = 64
_CHUNK_CELLS = 4_194_304
# Rolling ApEn takes _ROLLING_WINDOWS consecutive windows at a time and splits
# their template rows into slabs whose match masks hold at most
# _ROLLING_CELLS cells, so its buffers stay near 0.5 MB at a window of 100
# and grow only linearly with the window.
_ROLLING_WINDOWS = 24
_ROLLING_CELLS = 262_144
_EPS = float(np.finfo(np.float64).eps)


class RMode(_Choice):
    RELATIVE = "relative"  # r = r_value * sample SD of the analyzed window
    ABSOLUTE = "absolute"


@dataclass(frozen=True)
class ApenParams:
    """Pattern length and tolerance; defaults m=2, r = 0.2 * SD."""

    m: int = 2
    r_mode: RMode = RMode.RELATIVE
    r_value: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "r_mode", RMode(self.r_mode))
        object.__setattr__(self, "m", _as_int(self.m, "m must be an integer >= 1", low=1))
        r = float(_as_finite_array(self.r_value, name="r_value", ndim=0))
        if r <= 0.0:
            raise InvalidParameterError("r_value must be a positive real")
        object.__setattr__(self, "r_value", r)

    @property
    def min_length(self) -> int:
        """Fewest observations ApEn is defined on: m + 2."""
        return self.m + 2

    def resolve_r(self, values) -> float:
        """Tolerance in data units for the given window, which takes the
        input contract of ``apen`` (``_as_finite_array`` with ``min_length``)."""
        unit, e = _unit_scale(_as_finite_array(values, min_n=self.min_length))
        x, k = self._split(e, lambda: unit.std(ddof=1))
        return float(_from_unit_scale(x, k + e, "the resolved tolerance"))

    def tolerances(self, count: int, e: int, window_sd) -> np.ndarray:
        """Tolerance of each of ``count`` windows on the unit scale 2**e of
        their series (``errors._unit_scale``), in window order: r_value / 2**e,
        or in relative mode r_value times the unit-scale window SDs that
        ``window_sd()`` returns, capped at 2.0, which no Chebyshev distance on
        that scale reaches. A zero relative tolerance raises ZeroToleranceError.
        """
        x, k = self._split(e, window_sd)
        # x * 2**k capped at 2, with k first lowered so that ldexp stays below 4.
        capped = np.minimum(np.ldexp(x, np.minimum(k, 2 - np.frexp(x)[1])), 2.0)
        return np.broadcast_to(capped, count)

    def _split(self, e: int, window_sd):
        """``(x, k)``, tolerances x * 2**k on the unit scale 2**e, with no overflow."""
        mantissa, exponent = np.frexp(self.r_value)
        if self.r_mode is RMode.ABSOLUTE:
            return mantissa, exponent - e
        x = mantissa * window_sd()
        if not np.all(x):
            raise ZeroToleranceError("relative tolerance resolves to zero on a constant window")
        return x, exponent


def _phi_pair(arr: np.ndarray, m: int, r: float) -> tuple[float, float]:
    """phi(m) and phi(m + 1) from one pass over sorted first-coordinate bands.

    Templates are sorted by their first coordinate, so the templates within
    r of one lie in a contiguous band found by ``searchsorted``. Each block
    of sorted rows is compared with the union of its rows' bands only, and
    its Chebyshev distances over the first m coordinates give the m counts
    before the (m+1)-th coordinate is folded in for the m + 1 counts. The
    window gets one trailing NaN, so the last m-template has an (m+1)-th
    coordinate that matches nothing, not even itself. Counts are scattered
    back to template order, so the logarithms are summed in the same order
    as a dense count and the result is the same to the bit.
    """
    t = arr.size - m + 1
    ext = np.append(arr, np.nan)
    order = np.argsort(arr[:t], kind="stable")
    coords = [ext[k : k + t][order] for k in range(m + 1)]
    first = coords[0]
    # A few ulps of slack keep every pair whose rounded |u_i - u_j| <= r
    # inside the band; the exact check below decides each pair.
    pad = r + 4.0 * _EPS * (1.0 + r)  # on the unit scale no value reaches 1
    lo = np.searchsorted(first, first - pad, side="left")
    hi = np.searchsorted(first, first + pad, side="right")
    rows = t if t < 2 * _BLOCK_ROWS else max(1, min(_BLOCK_ROWS, _CHUNK_CELLS // t))
    starts = np.arange(0, t, rows)
    stops = np.minimum(starts + rows, t)
    cols_lo, cols_hi = lo[starts], hi[stops - 1]
    cells = int(((stops - starts) * (cols_hi - cols_lo)).max())
    dist_buf, diff_buf = np.empty(cells), np.empty(cells)
    within_buf = np.empty(cells, dtype=bool)
    # No count exceeds t, so the narrowest unsigned type that holds t holds
    # every count exactly, and the match mask, viewed as uint8, sums into it
    # without a cast to a wider type.
    counts = np.empty((2, t), dtype=np.min_scalar_type(t))
    for start, stop, c0, c1 in zip(
        starts.tolist(), stops.tolist(), cols_lo.tolist(), cols_hi.tolist()
    ):
        shape = (stop - start, c1 - c0)
        size = shape[0] * shape[1]
        dist = dist_buf[:size].reshape(shape)
        diff = diff_buf[:size].reshape(shape)
        within = within_buf[:size].reshape(shape)
        matches = within.view(np.uint8)
        np.subtract.outer(first[start:stop], first[c0:c1], out=dist)
        np.abs(dist, out=dist)
        for k in range(1, m + 1):
            if k == m:
                np.less_equal(dist, r, out=within)
                np.add.reduce(matches, axis=1, dtype=counts.dtype, out=counts[0, start:stop])
            np.subtract.outer(coords[k][start:stop], coords[k][c0:c1], out=diff)
            np.abs(diff, out=diff)
            np.maximum(dist, diff, out=dist)
        np.less_equal(dist, r, out=within)
        np.add.reduce(matches, axis=1, dtype=counts.dtype, out=counts[1, start:stop])
    counts[:, order] = counts.copy()
    phi_m = float(np.mean(np.log(counts[0] / t)))
    phi_m1 = float(np.mean(np.log(counts[1, : t - 1] / (t - 1))))
    return phi_m, phi_m1


def apen(values, params: ApenParams | None = None) -> float:
    """ApEn of ``values`` under ``params`` (defaults: m=2, r = 0.2 * SD).

    Parameters
    ----------
    values : sequence of float
        At least m + 2 observations, equally spaced in time.
    params : ApenParams, optional
        Pattern length and tolerance configuration.

    Returns
    -------
    float
        phi(m) - phi(m+1). Deterministic: identical input and parameters
        give bit-identical output. Templates are sorted by their first
        coordinate and each is compared only with those in its band of
        width 2r, counting m and m + 1 matches in one pass (Manis, 2008):
        O(N log N) plus O(N * (band + 64) * m) time, where band is the
        number of templates whose first coordinate lies within r,
        and bounded memory. The result is bit-identical to a dense N x N
        count, and the same at every power-of-two scale of the input.
    """
    p = params if params is not None else ApenParams()
    unit, e = _unit_scale(_as_finite_array(values, min_n=p.min_length))
    r = p.tolerances(1, e, lambda: unit.std(ddof=1))[0]
    phi_m, phi_m1 = _phi_pair(unit, p.m, float(r))
    return phi_m - phi_m1


def _count_blocks(dist, windows, rows, size, r, mask, out) -> None:
    """Matches within r[b] of each of ``rows`` rows of window b's block.

    Window b's block starts at dist[b, b]: a strided view lays the blocks of
    all ``windows`` windows side by side without copying them. The view is
    built by the ndarray constructor, which checks that it stays inside
    ``dist``; ``as_strided`` builds the same view several times slower.
    """
    s0, s1 = dist.strides
    blocks = np.ndarray((windows, rows, size), dist.dtype, dist, 0, (s0 + s1, s0, s1))
    within = mask[: windows * rows * size].reshape(windows, rows, size)
    np.less_equal(blocks, r, out=within)
    np.add.reduce(within.view(np.uint8), axis=2, dtype=out.dtype, out=out)


def _rolling_apen(arr: np.ndarray, window: int, m: int, r: np.ndarray) -> np.ndarray:
    """ApEn of every window of ``window`` observations, window i at tolerance r[i].

    Templates are numbered along the whole series, so window b holds
    templates b .. b + t - 1 (t = window - m + 1) and its Chebyshev distances
    are the diagonal block D[b:b+t, b:b+t] of one matrix D over all
    templates. A chunk of consecutive windows fills the part of D its blocks
    cover once per slab of rows and compares every block with its own r in
    one call. As in _phi_pair, the m counts are taken before the (m+1)-th
    coordinate is folded in, and a trailing NaN stands in for the (m+1)-th
    coordinate of the series' last template, which no m + 1 count uses. Every
    count is the integer that apen counts for that window alone, and each
    window's logarithms are summed in the same order, so every value is
    the one apen gives the window, to the bit.
    """
    t = window - m + 1
    total = arr.size - window + 1
    ext = np.append(arr, np.nan)
    coords = [ext[k : k + arr.size - m + 1] for k in range(m + 1)]
    chunk = min(_ROLLING_WINDOWS, total)
    slab = min(t, max(1, _ROLLING_CELLS // (chunk * t)))
    cells = (slab + chunk - 1) * (chunk + t - 1)
    dist_buf, diff_buf = np.empty(cells), np.empty(cells)
    mask = np.empty(chunk * slab * t, dtype=bool)
    counts = np.empty((2, chunk, t), dtype=np.min_scalar_type(t))  # as in _phi_pair
    out = np.empty(total)
    for first in range(0, total, chunk):
        b = min(chunk, total - first)
        cols = slice(first, first + b + t - 1)
        r_b = r[first : first + b, None, None]
        for top in range(0, t, slab):
            h = min(slab, t - top)
            rows = slice(first + top, first + top + h + b - 1)
            shape = (h + b - 1, b + t - 1)
            dist = dist_buf[: shape[0] * shape[1]].reshape(shape)
            diff = diff_buf[: shape[0] * shape[1]].reshape(shape)
            np.subtract.outer(coords[0][rows], coords[0][cols], out=dist)
            np.abs(dist, out=dist)
            for k in range(1, m + 1):
                if k == m:
                    _count_blocks(dist, b, h, t, r_b, mask, counts[0, :b, top : top + h])
                np.subtract.outer(coords[k][rows], coords[k][cols], out=diff)
                np.abs(diff, out=diff)
                np.maximum(dist, diff, out=dist)
            # Row t - 1 is no (m+1)-template of its window: counted, not used.
            _count_blocks(dist, b, h, t - 1, r_b, mask, counts[1, :b, top : top + h])
        phi_m = np.log(counts[0, :b] / t).mean(axis=1)
        phi_m1 = np.log(counts[1, :b, : t - 1] / (t - 1)).mean(axis=1)
        np.subtract(phi_m, phi_m1, out=out[first : first + b])
    return out
