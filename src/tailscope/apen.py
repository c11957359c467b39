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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError, ZeroToleranceError, _as_finite_array, _as_int, _Choice, _freeze,
    _from_unit_scale, _unit_scale,
)

# Match blocks hold _BLOCK_ROWS sorted templates at a time and never more
# than _CHUNK_CELLS cells of 4 bytes (~16 MB), whatever N is. A block of
# sorted rows spans its own rows' columns and then the half band past them,
# while each block also costs a fixed twenty-odd numpy calls: 128 rows
# balances the two, and a series shorter than two blocks is one block. On
# walks, returns, a plateau, a Gaussian and lattices of 300 to 20,000 values
# (m = 1 to 3, 2-vCPU VM, numpy 2.4), 64 rows took 0.80-1.34x the time of
# 128, 96 rows 0.89-1.15x, 192 rows 0.82-1.19x and 256 rows 0.78-1.28x: none
# was as fast on every series. Sorted blocks run on more than 5,760 values,
# numpy < 2 or m >= 64 (_bit_rows).
_BLOCK_ROWS = 128
_CHUNK_CELLS = 4_194_304
# Rolling ApEn counts a block of _ROLLING_CELLS // t consecutive windows at a
# time (_rolling_apen), so each of its three count tables holds at most
# _ROLLING_CELLS cells whatever the window t, and fills the block's band of
# distances a chunk of offsets at a time, each chunk at most _ROLLING_CELLS
# // 8 float64 cells (128 KB); pairs between their windows' tolerances are
# resolved _ROLLING_CELLS // 16 at a time. The traced peak of a call on 3,650
# values is about 1.2 MB at w = 100 and 1.9 MB at w = 1,000 (numpy 2.4).
_ROLLING_CELLS = 131_072
# Bit rows (_bit_counts) take _BIT_ROWS templates at a time, and run wherever
# their N**2 / 8-byte prefix bitset fits _BIT_BYTES (N <= 5,760, _bit_rows).
# On six bench-shaped series of 3,651 values (m = 1 to 3, 2-vCPU VM, numpy
# 2.4, 41 interleaved calls), 128 rows took 1.10-1.18x the time of 256 and
# 512 rows 0.92-0.97x; 512 would double the row buffers, from about 0.6 MB
# at N = 5,760.
_BIT_ROWS = 256
_BIT_BYTES = 4_194_304


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
        _freeze(self, r_mode=RMode)
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
    """phi(m) and phi(m + 1) from exact match counts of every template.

    Cells are compared in rank space (``_runs``): a template's coordinate
    matches a column's when the column's rank lies in the template's run, a
    test on narrow integers that gives the same answer as the float one.
    Two kernels count the matches, and ``_bit_rows`` picks one from the
    series' length and m: bit rows (``_bit_counts``) where their bitset
    fits, sorted blocks (``_block_counts``) elsewhere. Both give the
    exact counts in template order, so the logarithms are summed in the
    same order as a dense count and the result is the same to the bit,
    whichever kernel ran.
    """
    t = arr.size - m + 1
    sort, by_index = _runs(arr, r)
    if _bit_rows(arr.size, m):
        counts = _bit_counts(by_index, t, m)
    else:
        counts = _block_counts(sort, by_index, t, m)
    phi_buf = np.empty(t)
    return float(_phi(counts[:1], phi_buf)[0]), float(_phi(counts[1:, : t - 1], phi_buf)[0])


def _runs(arr: np.ndarray, r: float):
    """``(sort, by_index)`` of the values of ``arr``.

    ``sort`` sorts the values stably. With s the stably sorted values,
    rounding is monotone, so the values within r of s[i]
    (fl(|s[i] - s[j]|) <= r) are one run of ranks [lo, lo + width) around
    i. by_index[:, v] holds the rank, lo and width of arr[v]; one past the
    series, column N, has rank N and an empty run. They are unsigned
    integers that hold N, so a rank below lo wraps to at least
    2**bits - lo > N - lo >= width, and ``rank - lo < width`` tests the run
    exactly.
    """
    n = arr.size
    sort = np.argsort(arr, kind="stable")
    s = arr[sort]
    # fl(s[i] + r) puts each run's end within a few ulps of its place; the
    # steps below move it there, past one distinct value at a time: in while
    # its last value fails, then out while the next one passes.
    end = np.searchsorted(s, s + r, side="right")
    step = np.flatnonzero(s[end - 1] - s > r)
    while step.size:
        end[step] = np.searchsorted(s, s[end[step] - 1])
        step = step[s[end[step] - 1] - s[step] > r]
    step = np.flatnonzero(end < n)
    while (step := step[s[end[step]] - s[step] <= r]).size:
        end[step] = np.searchsorted(s, s[end[step]], side="right")
        step = step[end[step] < n]
    # The distance is symmetric, so j < i is in i's run just when i < end[j].
    start = np.searchsorted(end, np.arange(n), side="right")
    by_index = np.empty((3, n + 1), np.min_scalar_type(n))
    by_index[:, sort] = np.arange(n), start, end - start
    by_index[:, n] = n, n, 0
    return sort, by_index


def _bit_rows(n: int, m: int) -> bool:
    """Whether ``_phi_pair`` counts the n values with bit rows rather than
    sorted blocks: bit rows need numpy's popcount (2.0 and later), m < 64,
    so that no shift passes a word's 64 places, and a prefix bitset of
    n + 1 rows of ceil(n / 64) words within _BIT_BYTES.
    """
    return hasattr(np, "bitwise_count") and m < 64 and (n + 1) * -(-n // 64) * 8 <= _BIT_BYTES


def _bit_counts(by_index, t: int, m: int) -> np.ndarray:
    """The m and m + 1 match counts of the t templates, in template order,
    from bit rows.

    Bit j of row R of the prefix bitset is set when value j has rank below
    R, so row lo + width XOR row lo is the set of values in a run: those
    within r of a value. Template i matches template j in coordinate k when
    value i + k's set holds value j + k, bit j of that set shifted by k. A
    template's count is the popcount of the AND of its coordinates' shifted
    sets. No set holds a value past the series, so the AND over m (m + 1)
    coordinates holds no column past template t - 1 (t - 2), and the last
    template, whose (m+1)-th value has an empty run, counts 0 at m + 1, as
    in ``_block_counts``. A row of W = ceil(N / 64) words holds bit j in
    word j % W at place j // W, so that a row shifted by k bits is mostly
    the same row read k words on (``_and_shifted``).
    """
    n = by_index.shape[1] - 1
    words = -(-n // 64)
    rank, lo, width = by_index
    bit = np.arange(n)
    prefix = np.zeros((n + 1, words), np.uint64)
    prefix[rank[:n] + 1, bit % words] = np.uint64(1) << (bit // words).astype(np.uint64)
    np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
    top = lo + width
    rows = min(_BIT_ROWS, t)
    # One spare row: a shifted view may read into it, in words it replaces.
    near, far = np.empty((2, rows + m + 1, words), np.uint64)
    both = np.empty((rows, words), np.uint64)
    ones = np.empty((rows, words), np.uint8)
    counts = np.zeros((2, t), dtype=np.min_scalar_type(t))  # as in _block_counts
    for start in range(0, t, rows):
        h = min(rows, t - start)
        # Every index is in range; mode="raise" would buffer the output.
        np.take(prefix, top[start : start + h + m], axis=0, out=near[: h + m], mode="clip")
        np.take(prefix, lo[start : start + h + m], axis=0, out=far[: h + m], mode="clip")
        np.bitwise_xor(near[: h + m], far[: h + m], out=near[: h + m])
        acc = near[:h]
        for k in range(m + 1):
            if k:
                _and_shifted(acc, near, k, both[:h])
                acc = both[:h]
            if k >= m - 1:  # the AND over m, then m + 1, coordinates
                np.bitwise_count(acc, out=ones[:h])
                level = counts[k - m + 1, start : start + h]
                np.add.reduce(ones[:h], axis=1, dtype=counts.dtype, out=level)
    return counts


def _and_shifted(acc, rows, k: int, out) -> None:
    """``out`` = acc AND each row of ``rows`` k rows further on, shifted by k
    bits toward lower columns (see _bit_counts).

    With k = q * W + k0, bit j + k lies k0 words on at place j // W + q, or,
    in the last k0 words, in the first k0 words at place j // W + q + 1. The
    first part is one contiguous run of the rows' words starting k rows and
    k0 words on.
    """
    h, words = acc.shape
    q, k0 = divmod(k, words)
    wrap = acc[:, words - k0 :] & (rows[k : k + h, :k0] >> np.uint64(q + 1))
    flat = rows.reshape(-1)[k * words + k0 : (k + h) * words + k0]
    if q:
        flat = flat >> np.uint64(q)
    np.bitwise_and(acc.reshape(-1), flat, out=out.reshape(-1))
    out[:, words - k0 :] = wrap


def _block_counts(sort, by_index, t: int, m: int) -> np.ndarray:
    """The m and m + 1 match counts of the t templates, in template order,
    from one pass over sorted first-coordinate bands.

    Templates are sorted by their first coordinate, so those within r of a
    template and after it in that order form a contiguous run, whose end
    ``searchsorted`` finds. The Chebyshev distance is symmetric, so each
    unordered pair is compared once: a block of sorted rows [start, stop) is
    compared with the columns from start to the end of its last row's band.
    Its row sums go to its own templates, and its column sums past stop to
    those templates; the [start, stop) square holds both orders of each of
    its pairs already. The matches over the first m coordinates give the
    m counts before the (m+1)-th coordinate is folded in for the m + 1
    counts. The last m-template's (m+1)-th coordinate lies past the series:
    it has an empty run, so it matches nothing, not even itself.

    A block whose rows lie close together, as on a price plateau, can have
    columns past its square within r of every row in every coordinate.
    Those match every row at m and at m + 1. Every block is tested for them
    (``_unmatched``): they are counted for the whole block without comparing
    a cell, and a block that has any compares only its square and the other
    columns, gathered. The counts are scattered back to template order.
    """
    # ``order`` sorts the templates by their first coordinate, stably.
    # ranks[k, p], lo[k, p] and width[k, p] are the rank and run of the k-th
    # coordinate of the p-th sorted template, each row contiguous.
    order = sort[sort < t]
    ranks, lo, width = np.take(by_index, np.arange(m + 1)[:, None] + order, axis=1)
    hi = np.searchsorted(ranks[0], lo[0] + width[0])
    rows = t if t < 2 * _BLOCK_ROWS else max(1, min(_BLOCK_ROWS, _CHUNK_CELLS // t))
    starts = np.arange(0, t, rows)
    stops = np.minimum(starts + rows, t)
    ends = hi[stops - 1]
    cells = int(((stops - starts) * (ends - starts)).max())
    buffers = np.empty(cells, ranks.dtype), np.empty(cells, bool), np.empty(cells, bool)
    # Block b's rows all hold the ranks [floor, floor + room) in their runs
    # in each coordinate past the first: a column matches every row of the
    # block just when its ranks lie there and in the rows' first runs.
    floor = np.maximum.reduceat(lo[1:], starts, axis=1)
    top = np.minimum.reduceat(lo[1:] + width[1:], starts, axis=1)
    room = top - np.minimum(floor, top)
    # No count exceeds t, so the narrowest unsigned type that holds t holds
    # every count, and every partial sum of it, exactly; the match mask,
    # viewed as uint8, sums into it without a cast to a wider type.
    counts = np.zeros((2, t), dtype=np.min_scalar_type(t))
    blocks = zip(starts.tolist(), stops.tolist(), ends.tolist(), floor.T, room.T)
    for start, stop, end, least, span in blocks:
        h = stop - start
        cols = _unmatched(ranks, least, span, start, stop, end, int(hi[start]), counts)
        if cols is None:
            block, past = ranks[:, start:end], slice(stop, end)
        else:
            block, past = np.take(ranks, cols, axis=1), cols[h:]
        rows_lo, rows_width = lo[:, start:stop], width[:, start:stop]
        for level, within in enumerate(_matches(block, rows_lo, rows_width, *buffers)):
            _add_matches(within.view(np.uint8), counts[level], slice(start, stop), past)
    counts[:, order] = counts.copy()
    return counts


def _unmatched(ranks, floor, room, start, stop, end, last, counts):
    """The columns that block [start, stop) must still compare cell by cell,
    as indices with the block's own square first; or None, with nothing
    counted, when no column matches the whole block.

    A column j in [stop, last) lies in every row's first run: ranks[0] is
    sorted and runs end in rank order, and j's rank lies past the rows' and
    before the first row's run end. When its other ranks lie in [floor, floor
    + room), it lies in every row's runs (see _runs) and matches every row at
    m and at m + 1. Each row's counts gain the number of such columns, and
    each such column's counts the block's number of rows.
    """
    gap = ranks[1:, stop:last] - floor[:, None]  # wraps below floor, as in _runs
    full = np.less(gap, room[:, None]).all(axis=0)
    k = int(np.count_nonzero(full))
    if not k:
        return None
    h = stop - start
    counts[:, start:stop] += k
    counts[:, stop:last] += full.view(np.uint8) * counts.dtype.type(h)
    keep = np.ones(end - start, dtype=bool)
    np.logical_not(full, out=keep[h : last - start])
    cols = np.flatnonzero(keep)
    cols += start
    return cols


def _matches(ranks, lo, width, diff_buf, mask_buf, scratch_buf):
    """Yield whether each row matches each column over the first m of the
    m + 1 coordinates, then over all: one boolean array, filled in place in
    ``mask_buf``. Row i's k-th coordinate matches column j's when
    ranks[k, j] - lo[k, i] < width[k, i] in their unsigned type (see _runs)."""
    shape = (lo.shape[1], ranks.shape[1])
    diff = diff_buf[: shape[0] * shape[1]].reshape(shape)
    within = mask_buf[: diff.size].reshape(shape)
    scratch = scratch_buf[: diff.size].reshape(shape)
    for k in range(len(ranks)):
        if k == len(ranks) - 1:
            yield within
        np.subtract(ranks[k], lo[k, :, None], out=diff)
        np.less(diff, width[k, :, None], out=scratch if k else within)
        if k:
            np.logical_and(within, scratch, out=within)
    yield within


def _add_matches(matches: np.ndarray, counts: np.ndarray, rows: slice, past) -> None:
    """Add a block's matches to the counts of the templates it covers: each
    row's to its own, ``rows``, and each column's past the block's square to
    that column's, ``past`` (a slice, or indices when the columns were
    gathered). Both sums are partial counts, so they fit counts' dtype."""
    h = matches.shape[0]
    counts[rows] += np.add.reduce(matches, axis=1, dtype=counts.dtype)
    counts[past] += np.add.reduce(matches[:, h:], axis=0, dtype=counts.dtype)


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
        width 2r, counting m and m + 1 matches in one pass (Manis, 2008).
        The distance is symmetric, so each unordered pair is compared once,
        on the ranks of the values rather than the values: O(N log N) plus
        O(N * (band / 2 + 128) * m) time, where band is the number of
        templates whose first coordinate lies within r, less those that
        match all 128 templates of a sorted block at once, which cost O(m)
        per block instead (as on a price plateau), and bounded memory.
        Where N is at most 5,760 (numpy 2.0 and later, m < 64), the
        matches are counted as bit rows instead: O(N**2 / 64 * m) word
        operations, with memory bounded by a 4 MB bitset. The result is
        bit-identical to a dense N x N count, whichever way it is counted,
        and the same at every power-of-two scale of the input.
    """
    p = params if params is not None else ApenParams()
    unit, e = _unit_scale(_as_finite_array(values, min_n=p.min_length))
    r = p.tolerances(1, e, lambda: unit.std(ddof=1))[0]
    phi_m, phi_m1 = _phi_pair(unit, p.m, float(r))
    return phi_m - phi_m1


def _rolling_apen(arr: np.ndarray, window: int, m: int, r: np.ndarray) -> np.ndarray:
    """ApEn of every window of ``window`` observations, window w at tolerance r[w].

    Templates are numbered along the whole series, so window w holds
    templates w .. w + t - 1 (t = window - m + 1), and each pair of
    templates d apart (0 < d < t) lies in the windows that hold both. A
    block of consecutive windows computes the distance of each template g
    to the next t - 1 templates once, as dist[d, g], a chunk of offsets d
    at a time: coordinate c's differences are one matrix of |x_g - x_{g+d}|
    read c columns on, so each coordinate is folded in as a shifted view.
    ``_count_band`` counts each chunk's pairs in every window of the block.
    As in _phi_pair, the m counts are taken before the (m+1)-th coordinate is
    folded in, and a NaN tail stands in for coordinates past the series,
    which no count that is used reads. Every count is the integer that apen
    counts for that window alone, and each window's logarithms are summed in
    the same order, so every value is the one apen gives the window, to the
    bit.
    """
    t = window - m + 1
    total = arr.size - window + 1
    blocks = min(total, max(1, _ROLLING_CELLS // t))
    width = blocks + t - 1  # templates in a block
    rows = min(t - 1, max(1, _ROLLING_CELLS // 8 // (width + m)))
    ext = np.append(arr, np.full(t + rows + m, np.nan))
    dtype = np.min_scalar_type(t)  # as in _phi_pair
    diff_buf, dist_buf = np.empty(rows * (width + m)), np.empty(rows * width)
    bufs = (np.empty((2, rows * width), bool), np.empty((2, (rows + 1) * (width + 2)), dtype),
            np.empty((4, width + t)))
    carry = np.empty((2, 2, width), dtype)
    # counts[k, s, w]: window w's count for its template at position s, at m
    # (k = 0) or m + 1; events the runs that _count_pending adds to a level.
    counts = np.empty((2, t, blocks), dtype)
    events = np.zeros((t, blocks), dtype) if r.min() != r.max() else None
    out = np.empty(total)
    item = ext.strides[0]
    for first in range(0, total, blocks):
        b = min(blocks, total - first)
        cols = b + t - 1
        r_b = r[first : first + b]
        spread = r_b.min() != r_b.max()
        groups = _groups(r_b, t) if spread else None
        length = 2 * t
        pending = ([], [])
        counts[:, :, :b] = 1
        carry[:, :, :cols] = 0
        for d0 in range(1, t, rows):
            h = min(rows, t - d0)
            if spread and t - d0 <= length // 2:
                # The smallest and largest r of the windows that hold a pair
                # of each template at offset d0 or more, at either level,
                # taken again each time that span halves.
                length = t - d0
                extremes = _held_extremes(r_b, length, cols, bufs[2])
            # Templates g >= cols - d0 pair at offset d0 or more only with
            # templates past the block's windows.
            g = cols - d0
            # diff[k, i] = |x[first + i] - x[first + i + d0 + k]|, so coordinate
            # c's distances are diff[:, c : c + g].
            diff = diff_buf[: h * (g + m)].reshape(h, g + m)
            ahead = np.ndarray(diff.shape, ext.dtype, ext, (first + d0) * item, (item, item))
            np.subtract(ahead, ext[first : first + g + m], out=diff)
            np.abs(diff, out=diff)
            dist, folded = diff[:, :g], dist_buf[: h * g].reshape(h, g)
            for level in range(2):
                for c in range(1, m) if level == 0 else (m,):
                    dist = np.maximum(dist, diff[:, c : c + g], out=folded)
                # Offset t - 1 pairs no (m+1)-templates of a window.
                if d0 < t - level:
                    band = dist[: min(h, t - level - d0)]
                    _count_band(band, d0, t - level, r_b, extremes if spread else None, bufs,
                                carry[level], counts[level], pending[level])
                    if sum(x.size for _, _, x in pending[level]) > _ROLLING_CELLS // 8:
                        _count_pending(pending[level], t - level, r_b, groups, counts[level],
                                       events)
        if spread:
            for level in range(2):
                _count_pending(pending[level], t - level, r_b, groups, counts[level], events)
        step = max(1, dist_buf.size // t)
        for lw in range(0, b, step):
            part = slice(lw, min(b, lw + step))
            phi_m = _phi(counts[0, :, part].T, dist_buf)
            phi_m1 = _phi(counts[1, : t - 1, part].T, dist_buf)
            np.subtract(phi_m, phi_m1, out=out[first + part.start : first + part.stop])
    return out


def _phi(counts: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """phi of each row of ``counts``, the mean of ln(count / row length), with
    ``buf`` as scratch: both ApEn kernels take their phis here, so the same bits."""
    q = buf[: counts.size].reshape(counts.shape)
    np.divide(counts, counts.shape[1], out=q)
    np.log(q, out=q)
    return q.mean(axis=1)


def _count_band(dist, d0, tt, r, extremes, bufs, carry, counts, pending) -> None:
    """Add one chunk's sure matches to the counts of the block's windows,
    and append its ambiguous pairs to ``pending``.

    ``dist[k, g]`` is the distance of the block's template g to template
    g + d0 + k, and window w holds templates w .. w + tt - 1. A pair d apart
    lies in windows g + d - tt + 1 .. g; with lo[g] and hi[g] the smallest
    and largest r of a run of windows that holds all those of template g's
    pairs in this chunk (``extremes``, None where the block's r is one
    value), a distance <= lo is a sure match in every window that holds it,
    and one above hi, or NaN, in none.

    Sure matches are counted by prefix sums, continued from chunk to chunk
    through ``carry``. Template g's forward count in window w is the prefix
    of column g down to offset w + tt - 1 - g. Its backward count, its
    matches with the templates before it from w on, is the prefix along the
    line of pairs (g - d, d) down to offset g - w: a view whose rows step one
    column back per offset lays each line in a column, so one add per offset
    extends every line, and window w's backward counts land in row s = g - w,
    column w. Both are read into ``counts[s, w]`` by views, the forward one
    stepping back a row per position.
    """
    h, g = dist.shape
    b = r.size
    mask_buf, scan_buf, _ = bufs
    shape = (h + 1, g + 2)  # spare columns, so no two lines of a view share a cell
    sure, bwd = (a[: shape[0] * shape[1]].reshape(shape) for a in scan_buf)
    if extremes is None:
        np.less_equal(dist, r[0], out=sure[1:, :g])
    else:
        lo, hi = extremes
        within, ambiguous = (a[: h * g].reshape(h, g) for a in mask_buf)
        np.less_equal(dist, lo[:g], out=within)
        sure[1:, :g] = within
        np.less_equal(dist, hi[:g], out=ambiguous)
        ambiguous ^= within
        if ambiguous.any():
            k, i = np.divmod(np.flatnonzero(ambiguous), g)
            pending.append((i, k + d0, dist[k, i]))
    s0, s1 = sure.strides
    # Line j holds the pairs of template j + d0 - 1, at (k, j - k); the
    # block's last template is on line g.
    ahead = np.ndarray((h + 1, g + 1), sure.dtype, sure, 0, (s0 - s1, s1))
    back = np.ndarray((h + 1, g + 1), bwd.dtype, bwd, 0, (s0 - s1, s1))
    bwd[0, : g + 1] = carry[1, : g + 1]
    for k in range(1, h + 1):
        np.add(back[k - 1], ahead[k], out=back[k])
    carry[1, :g] = bwd[h, :g]
    fwd = sure  # the forward prefixes overwrite the matches they sum
    fwd[0, :g] = carry[0, :g]
    for k in range(1, h + 1):
        np.add(fwd[k - 1], fwd[k], out=fwd[k])
    carry[0, :g] = fwd[h, :g]
    counts[d0 : d0 + h, :b] += bwd[1:, :b]
    s = tt - d0 - h  # the position whose forward count ends at this chunk's last offset
    f0, f1 = fwd.strides
    counts[s : s + h, :b] += np.ndarray((h, b), fwd.dtype, fwd, h * f0 + s * f1, (f1 - f0, f1))


def _held_extremes(r, length, g, buf):
    """The smallest and largest r of windows i - length + 1 .. i that lie in
    0 .. r.size - 1, for each of the g templates i, by doubling the windows
    each pass (``buf`` rows: padding, lo, hi, scratch)."""
    pad, lo, hi, scratch = buf
    values = pad[: g + length - 1]
    for extreme, fill, out in ((np.minimum, np.inf, lo), (np.maximum, -np.inf, hi)):
        values.fill(fill)
        values[length - 1 : length - 1 + r.size] = r
        a = scratch[: values.size]
        np.copyto(a, values)
        n, span = values.size, 1
        while 2 * span <= length:
            extreme(a[: n - span], a[span:n], out=a[: n - span])
            n -= span
            span *= 2
        extreme(a[:g], a[length - span : length - span + g], out=out[:g])
    return lo[:g], hi[:g]


def _groups(r, t):
    """Groups of q consecutive windows for ``_count_ambiguous``: q, the
    smallest and largest r of each group, and r padded with q values of -inf,
    which no distance meets. A pair lies in at most min(t, r.size) of the
    block's windows, and q is its square root, so that a pair spans about as
    many groups as an ambiguous group holds windows."""
    q = math.isqrt(min(t, r.size))
    starts = np.arange(0, r.size, q)
    return (q, np.minimum.reduceat(r, starts), np.maximum.reduceat(r, starts),
            np.append(r, np.full(q, -np.inf)))


def _count_pending(pending, tt, r, groups, counts, events) -> None:
    """Count the ambiguous pairs gathered in ``pending`` and empty it, in
    pieces of _ROLLING_CELLS // 16 pairs, then add the runs they marked in
    ``events``."""
    if not pending:
        return
    i, d, x = (np.concatenate(column) for column in zip(*pending))
    pending.clear()
    step = _ROLLING_CELLS // 16
    for start in range(0, i.size, step):
        part = slice(start, start + step)
        _count_ambiguous(i[part], d[part], x[part], tt, r, groups, counts, events)
    _count_runs(events, counts, tt, r.size)


def _count_ambiguous(i, d, x, tt, r, groups, counts, events) -> None:
    """Count the ambiguous pairs (i, i + d) at distances x in the windows
    that hold them, a group of windows at a time.

    Each pair's windows are split at the groups of q windows, and the pair
    is classified per group against the group's smallest and largest r,
    one slot of groups at a time, over the pairs that still hold one (the
    pairs are sorted by their number of groups, most first). A run of
    groups where it surely matches adds to both templates' counts in each
    window of the run: ``events`` gains +1 where the run starts and -1 one
    window past its end, on each template's line s + w = constant, which
    ``_count_runs`` sums. In groups where it is ambiguous, it is compared
    with each window's own r, and each match is added to ``counts`` itself.
    """
    q, group_lo, group_hi, rows_r = groups
    b = r.size
    lo = np.maximum(i + d - tt + 1, 0)
    hi = np.minimum(i, b - 1)
    spans = np.where(lo <= hi, hi // q - lo // q + 1, 0)
    order = np.argsort(-spans, kind="stable")
    i, d, x, lo, hi, spans = i[order], d[order], x[order], lo[order], hi[order], spans[order]
    j = i + d
    first = lo // q
    held = np.cumsum(np.bincount(spans)[::-1])[::-1]  # held[s]: pairs with more than s groups
    one, line = counts.dtype.type(1), events.shape[1]
    marks, flat = events.reshape(-1), counts.reshape(-1)
    was = np.zeros(held[1] if held.size > 1 else 0, bool)  # sure in the slot before
    for slot in range(1, held.size + 1):
        n = held[slot] if slot < held.size else 0
        grp = first[:n] + (slot - 1)
        sure = x[:n] <= group_lo[grp]
        # Runs that ended at the slot before: -1 one window past their end.
        c = np.flatnonzero(was & ~np.append(sure, np.zeros(was.size - n, bool)))
        v = np.minimum(hi[c] + 1, (first[c] + slot - 1) * q)
        c, v = c[v < b], v[v < b]
        past = v <= i[c]  # template i leaves at window i + 1
        np.subtract.at(marks, (i[c[past]] - v[past]) * line + v[past], one)
        np.subtract.at(marks, (j[c] - v) * line + v, one)
        if not n:
            break
        c = np.flatnonzero(sure & ~was[:n])
        u = np.maximum(lo[c], grp[c] * q)
        np.add.at(marks, (i[c] - u) * line + u, one)
        np.add.at(marks, (j[c] - u) * line + u, one)
        tested = np.flatnonzero((x[:n] <= group_hi[grp]) ^ sure)
        step = _ROLLING_CELLS // 16 // q  # tables of at most _ROLLING_CELLS // 16 windows
        for start in range(0, tested.size, step):
            c = tested[start : start + step]
            w = (grp[c] * q)[:, None] + np.arange(q)
            match = (w >= lo[c, None]) & (w <= hi[c, None]) & (x[c, None] <= rows_r[w])
            row, k = np.divmod(np.flatnonzero(match), q)
            c, w = c[row], w[row, k]
            np.add.at(flat, (i[c] - w) * line + w, one)
            np.add.at(flat, (j[c] - w) * line + w, one)
        was = sure


def _count_runs(events, counts, tt, b) -> None:
    """Add the runs ``events`` marks to ``counts`` and clear them: a run of a
    template continues from (s, w) to (s - 1, w + 1), so each line is summed
    a step at a time along the shorter side."""
    if tt <= b:
        for s in range(tt - 1, 0, -1):
            np.add(events[s - 1, 1:b], events[s, : b - 1], out=events[s - 1, 1:b])
    else:
        for w in range(1, b):
            np.add(events[: tt - 1, w], events[1:tt, w - 1], out=events[: tt - 1, w])
    counts[:tt, :b] += events[:tt, :b]
    events[:tt, :b] = 0
