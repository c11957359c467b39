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
    InvalidParameterError, ZeroToleranceError, _as_finite_array, _as_int, _Choice, _freeze,
    _from_unit_scale, _unit_scale,
)

# Match blocks hold _BLOCK_ROWS sorted templates at a time and never more
# than _CHUNK_CELLS cells of 4 bytes (~16 MB), whatever N is. A block of
# sorted rows spans its own rows' columns and then the half band past them,
# while each block also costs a fixed twenty-odd numpy calls: 128 rows
# balances the two (a sweep of 64 to 256 rows on the six bench series, made
# before bit rows took them over), and a series shorter than two blocks is
# one block. Sorted blocks now run on more than 5,760 values, runs too
# narrow for bit rows, numpy < 2 or m >= 64 (_bit_rows).
_BLOCK_ROWS = 128
_CHUNK_CELLS = 4_194_304
# Rolling ApEn takes _ROLLING_WINDOWS consecutive windows at a time and fills
# their distances a slab of rows at a time. A slab holds at most an eighth of
# _ROLLING_CELLS float64 cells, and no mask or index array passes
# _ROLLING_CELLS bytes (256 KB); only the per-window count tables grow with
# the window, linearly. A chunk whose windows' blocks hold at most
# _DENSE_RATIO times the cells of its distance matrix compares each block
# with its own tolerance instead of splitting the cells at the chunk's
# tolerance range.
_ROLLING_WINDOWS = 48
_ROLLING_CELLS = 262_144
_DENSE_RATIO = 8
# Testing a block for columns that match all its rows and gathering the
# rest cost ~20 us per block and ~4 cells per column on a 2-vCPU VM (numpy
# 2.4). _gathers asks for four times that per column, so a block whose
# gather would only break even stays whole. Before bit rows took them over,
# the bench series ran within 2% at a quarter and at four times these.
_GATHER_CELLS = 16
_GATHER_FIXED = 2_000
# Bit rows (_bit_counts) take _BIT_ROWS templates at a time (128 and 512 ran
# within 5% of 256 on the bench series), and only where their N**2 / 8-byte
# prefix bitset fits _BIT_BYTES (N <= 5,760) and a row, at _WORD_CELLS block
# cells per 64-bit word, costs less than a sorted block's (_bit_rows). The
# kernels broke even at 2.3 to 3.2 cells per word at N = 5,790 (2-vCPU VM).
_BIT_ROWS = 256
_BIT_BYTES = 4_194_304
_WORD_CELLS = 3


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
    Two kernels count the matches, and ``_bit_rows`` picks the cheaper from
    the series' length and runs: bit rows (``_bit_counts``) cost words in
    N, sorted blocks (``_block_counts``) cells in the band. Both give the
    exact counts in template order, so the logarithms are summed in the
    same order as a dense count and the result is the same to the bit,
    whichever kernel ran.
    """
    t = arr.size - m + 1
    sort, by_index = _runs(arr, r)
    if _bit_rows(by_index, m):
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


def _bit_rows(by_index, m: int) -> bool:
    """Whether ``_phi_pair`` counts with bit rows rather than sorted blocks.

    Bit rows need numpy's popcount (2.0 and later), m < 64, so that no
    shift passes a word's 64 places, and a prefix bitset within _BIT_BYTES.
    They cost about _WORD_CELLS cells per word of a row, ceil(N / 64) words,
    where a sorted block costs each row about half its run and the block's
    own rows, as in _gathers.
    """
    n = by_index.shape[1] - 1
    words = -(-n // 64)
    if not hasattr(np, "bitwise_count") or m >= 64 or (n + 1) * words * 8 > _BIT_BYTES:
        return False
    return _WORD_CELLS * words < by_index[2, :n].mean() / 2 + _BLOCK_ROWS


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
    Those match every row at m and at m + 1, so they are counted for the
    whole block without comparing a cell (``_unmatched``), and only the
    square and the other columns are compared, gathered, when that pays.
    The counts are scattered back to template order.
    """
    # ``order`` sorts the templates by their first coordinate, stably.
    # ranks[k, p], lo[k, p] and width[k, p] are the rank and run of the k-th
    # coordinate of the p-th sorted template.
    order = sort[sort < t]
    ranks, lo, width = by_index[:, np.arange(m + 1)[:, None] + order]
    hi = np.searchsorted(ranks[0], lo[0] + width[0])
    rows = t if t < 2 * _BLOCK_ROWS else max(1, min(_BLOCK_ROWS, _CHUNK_CELLS // t))
    starts = np.arange(0, t, rows)
    stops = np.minimum(starts + rows, t)
    ends = hi[stops - 1]
    cells = int(((stops - starts) * (ends - starts)).max())
    buffers = np.empty(cells, ranks.dtype), np.empty(cells, bool), np.empty(cells, bool)
    # Block b's rows all hold the ranks [floor, floor + room) in their runs
    # in each coordinate: a column matches every row of the block just when
    # its ranks lie there. Its candidates (the columns from stop to the end
    # of its first row's band) spread over about one run, so a block is
    # tested only if the share of a run that it holds would pay for the
    # gather; a block holding the last template's empty run never does.
    floor = np.maximum.reduceat(lo, starts, axis=1)
    top = np.minimum.reduceat(lo + width, starts, axis=1)
    room = top - np.minimum(floor, top)
    share = np.min(room / np.maximum(width[:, starts], 1), axis=0)
    candidates = np.maximum(hi[starts] - stops, 0)
    promising = _gathers(stops - starts, ends - starts, candidates * share).tolist()
    # No count exceeds t, so the narrowest unsigned type that holds t holds
    # every count, and every partial sum of it, exactly; the match mask,
    # viewed as uint8, sums into it without a cast to a wider type.
    counts = np.zeros((2, t), dtype=np.min_scalar_type(t))
    # whole[j]: the number of blocks all of whose rows column j matches.
    # Each has ``rows`` rows: only the last block can have fewer, and it has
    # no columns past its square.
    whole = np.zeros(t, dtype=counts.dtype)
    blocks = zip(starts.tolist(), stops.tolist(), ends.tolist(), promising, floor.T, room.T)
    for start, stop, end, promise, least, span in blocks:
        h, cols = stop - start, None
        if promise:
            cols = _unmatched(ranks, least, span, start, stop, end, int(hi[start]), counts, whole)
        if cols is None:
            block, past = ranks[:, start:end], slice(stop, end)
        else:
            block, past = np.take(ranks, cols, axis=1), cols[h:]
        rows_lo, rows_width = lo[:, start:stop], width[:, start:stop]
        for level, within in enumerate(_matches(block, rows_lo, rows_width, *buffers)):
            _add_matches(within.view(np.uint8), counts[level], slice(start, stop), past)
    np.multiply(whole, rows, out=whole)
    counts += whole
    counts[:, order] = counts.copy()
    return counts


def _unmatched(ranks, floor, room, start, stop, end, last, counts, whole):
    """The columns that block [start, stop) must still compare cell by cell,
    as indices with the block's own square first; or None, with nothing
    counted, when the cells saved would not pay for the gather.

    A column j in [stop, last) whose rank lies in [floor, floor + room) in
    every coordinate lies in every row's run there (see _phi_pair): it
    matches every row at m and at m + 1. Each row's counts gain the number
    of such columns, and each one's ``whole`` one.
    """
    gap = ranks[:, stop:last] - floor[:, None]  # wraps below floor, as in _runs
    full = np.less(gap, room[:, None]).all(axis=0)
    k = int(np.count_nonzero(full))
    h = stop - start
    if not _gathers(h, end - start, k):
        return None
    counts[:, start:stop] += k
    np.add(whole[stop:last], full, out=whole[stop:last])
    keep = np.ones(end - start, dtype=bool)
    np.logical_not(full, out=keep[h : last - start])
    cols = np.flatnonzero(keep)
    cols += start
    return cols


def _gathers(h, n, k):
    """Whether a block of h rows and n columns, k of which match every row,
    compares only the other columns, gathered (see _unmatched): the cells
    saved must pay for testing and gathering the block's columns."""
    return h * k > _GATHER_CELLS * n + _GATHER_FIXED


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


def _distances(coords, rows: slice, cols: slice, dist_buf, diff_buf):
    """Yield the Chebyshev distances of templates ``rows`` to ``cols`` over
    the first m of the m + 1 ``coords``, then over all: one array, filled in
    place in ``dist_buf``, with ``diff_buf`` as scratch. Rolling ApEn's only;
    whole-series ApEn compares ranks (``_matches``)."""
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    dist = dist_buf[: shape[0] * shape[1]].reshape(shape)
    diff = diff_buf[: dist.size].reshape(shape)
    np.subtract.outer(coords[0][rows], coords[0][cols], out=dist)
    np.abs(dist, out=dist)
    for k in range(1, len(coords)):
        if k == len(coords) - 1:
            yield dist
        np.subtract.outer(coords[k][rows], coords[k][cols], out=diff)
        np.abs(diff, out=diff)
        np.maximum(dist, diff, out=dist)
    yield dist


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
        Where that band is wide against N / 64 and N is at most 5,760, the
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
    """ApEn of every window of ``window`` observations, window i at tolerance r[i].

    Templates are numbered along the whole series, so window b holds
    templates b .. b + t - 1 (t = window - m + 1) and its Chebyshev distances
    are the diagonal block D[b:b+t, b:b+t] of one matrix D over all
    templates. A chunk of consecutive windows fills the part of D its blocks
    cover a slab of rows at a time, so each of its distances is computed
    once, and ``_count`` adds each slab to the counts of every window of the
    chunk. As in _phi_pair, the m counts are taken before the (m+1)-th
    coordinate is folded in, and a trailing NaN stands in for the (m+1)-th
    coordinate of the series' last template, which no m + 1 count uses. Every
    count is the integer that apen counts for that window alone, and each
    window's logarithms are summed in the same order, so every value is the
    one apen gives the window, to the bit.
    """
    t = window - m + 1
    total = arr.size - window + 1
    ext = np.append(arr, np.nan)
    coords = [ext[k : k + arr.size - m + 1] for k in range(m + 1)]
    chunk = min(_ROLLING_WINDOWS, total)
    width = chunk + t - 1
    rows = max(1, min(width, _ROLLING_CELLS // 8 // width))
    dist_buf, diff_buf = np.empty(rows * width), np.empty(rows * width)
    # Two slab masks, or a full chunk's blocks when it compares them whole.
    blocks = chunk * t * t if _compares_blocks(chunk, t, min(rows, width), width) else 0
    mask_buf = np.empty(max(2 * rows * width, blocks), bool)
    # holds[k][b, j]: window b holds column j of its chunk, j in [b, b + tt).
    after = ~np.tri(chunk, width, -1, bool)
    holds = [np.tri(chunk, width, tt - 1, bool) & after for tt in (t, t - 1)]
    dtype = np.min_scalar_type(t)  # as in _phi_pair
    level_buf = np.empty(2 * chunk * width, dtype)
    out = np.empty(total)
    for first in range(0, total, chunk):
        b = min(chunk, total - first)
        w = b + t - 1
        # level[k, b, g]: window b's count for the chunk's template g, at m
        # (k = 0) or m + 1; cells with g outside [b, b + t) are scratch.
        level = level_buf[: 2 * b * w].reshape(2, b, w)
        r_b = r[first : first + b]
        cols = slice(first, first + w)
        for top in range(0, w, rows):
            span = slice(first + top, first + min(top + rows, w))
            slab = _distances(coords, span, cols, dist_buf, diff_buf)
            # Row t - 1 is no (m+1)-template of its window: counted, not used.
            for k, dist in enumerate(slab):
                _count(dist, top, t - k, r_b, holds[k][:b, :w], mask_buf, level[k])
        s0, s1, s2 = level.strides
        counts = np.ndarray((2, b, t), dtype, level, 0, (s0, s1 + s2, s2))
        step = max(1, dist_buf.size // t)
        for lb in range(0, b, step):
            part = slice(lb, min(b, lb + step))
            phi_m = _phi(counts[0, part], dist_buf)
            phi_m1 = _phi(counts[1, part, : t - 1], dist_buf)
            np.subtract(phi_m, phi_m1, out=out[first + part.start : first + part.stop])
    return out


def _phi(counts: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """phi of each row of ``counts``, the mean of ln(count / row length), with
    ``buf`` as scratch: both ApEn kernels take their phis here, so the same bits."""
    q = buf[: counts.size].reshape(counts.shape)
    np.divide(counts, counts.shape[1], out=q)
    np.log(q, out=q)
    return q.mean(axis=1)


def _count(dist, top, tt, r, holds, mask_buf, level) -> None:
    """Count the matches of one slab of a chunk's distances in each window.

    ``dist`` holds rows top .. top + h - 1 of the chunk's distance matrix
    against all its w columns. Window b holds columns [b, b + tt), and its
    count for row g goes to level[b, g]. With lo and hi the smallest and
    largest of the chunk's tolerances, a distance <= lo matches in every
    window and one above hi, or NaN, in none. Window b's sure matches differ
    from window b - 1's by the column that enters and the one that leaves,
    so one row sum and a cumulative sum over the windows count them all; the
    sums wrap around in the counts' unsigned dtype, but every count fits it,
    so each comes out exact. Each ambiguous cell, lo < d <= hi, is then
    compared with the tolerance of every window that holds its column. In
    absolute mode lo = hi, and no cell is ambiguous.

    A chunk of short windows is mostly cells that no window holds, and its
    tolerances swing widely. So when its distances are one slab and its
    windows' blocks hold at most _DENSE_RATIO times its cells, each block is
    compared with its own tolerance instead (``_count_dense``). Both give the
    exact counts, so the choice cannot change a value.
    """
    h, w = dist.shape
    b = level.shape[0]
    if _compares_blocks(b, tt, h, w):
        _count_dense(dist, tt, r, mask_buf, level)
        return
    lo, hi = r.min(), r.max()
    out = level[:, top : top + h]
    sure = mask_buf[: h * w].reshape(h, w)
    np.less_equal(dist, lo, out=sure)
    ones = sure.view(np.uint8)
    np.add.reduce(ones[:, :tt], axis=1, dtype=out.dtype, out=out[0])
    np.subtract(ones[:, tt : tt + b - 1].T, ones[:, : b - 1].T, out=out[1:], dtype=out.dtype)
    np.cumsum(out, axis=0, dtype=out.dtype, out=out)
    if hi == lo:
        return
    ambiguous = mask_buf[h * w : 2 * h * w].reshape(h, w)
    np.less_equal(dist, hi, out=ambiguous)
    np.not_equal(ambiguous, sure, out=ambiguous)
    cells = np.flatnonzero(ambiguous)
    flat = dist.reshape(-1)
    # Pieces of cells whose window masks fit mask_buf. The cells come in row
    # order, so each row's cells in a piece are one segment of it.
    step = max(1, mask_buf.size // b)
    for start in range(0, cells.size, step):
        piece = cells[start : start + step]
        g, j = np.divmod(piece, w)
        held = holds[:, j]
        within = mask_buf[: held.size].reshape(held.shape)
        held &= np.less_equal(flat[piece], r[:, None], out=within)
        new_row = np.empty(g.size, bool)
        new_row[0] = True
        np.not_equal(g[1:], g[:-1], out=new_row[1:])
        starts = np.flatnonzero(new_row)
        out[:, g[starts]] += np.add.reduceat(held.view(np.uint8), starts, axis=1, dtype=out.dtype)


def _compares_blocks(windows: int, tt: int, h: int, w: int) -> bool:
    """Whether a chunk of ``windows`` windows, whose slab is h of its w rows,
    compares each window's tt x tt block whole (see _count)."""
    return h == w and windows * tt * tt <= _DENSE_RATIO * w * w


def _count_dense(dist, tt, r, mask_buf, level) -> None:
    """Matches within r[b] of each of the tt rows of window b's block, for
    every window b, with ``dist`` the whole of its chunk's distance matrix.

    Window b's block starts at dist[b, b], and its counts go to the diagonal
    level[b, b:b+tt]: strided views lay the blocks, and the counts, side by
    side without copying them, as many windows at a time as mask_buf holds.
    The views are built by the ndarray constructor, which checks that they
    stay inside their arrays; ``as_strided`` builds the same views several
    times slower.
    """
    s0, s1 = dist.strides
    l0, l1 = level.strides
    step = max(1, mask_buf.size // (tt * tt))
    for lb in range(0, level.shape[0], step):
        n = min(step, level.shape[0] - lb)
        blocks = np.ndarray((n, tt, tt), dist.dtype, dist, lb * (s0 + s1), (s0 + s1, s0, s1))
        within = mask_buf[: n * tt * tt].reshape(n, tt, tt)
        np.less_equal(blocks, r[lb : lb + n, None, None], out=within)
        diag = np.ndarray((n, tt), level.dtype, level, lb * (l0 + l1), (l0 + l1, l1))
        np.add.reduce(within.view(np.uint8), axis=2, dtype=level.dtype, out=diag)
