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
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, TooShortError, ZeroToleranceError

# Distance blocks hold _BLOCK_ROWS sorted templates at a time and never more
# than _CHUNK_CELLS float64 cells (~32 MB), whatever N is. A block of sorted
# rows spans about as many columns beyond the band as it has rows, while each
# block also costs a fixed twenty-odd numpy calls: 64 rows balances the two,
# and a series shorter than two blocks is one block.
_BLOCK_ROWS = 64
_CHUNK_CELLS = 4_194_304
_EPS = float(np.finfo(np.float64).eps)


class RMode(str, Enum):
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
        if (
            isinstance(self.m, bool)
            or not isinstance(self.m, (int, np.integer))
            or self.m < 1
        ):
            raise InvalidParameterError("m must be an integer >= 1")
        object.__setattr__(self, "m", int(self.m))
        r = float(self.r_value)
        if not np.isfinite(r) or r <= 0.0:
            raise InvalidParameterError("r_value must be a positive real")
        object.__setattr__(self, "r_value", r)

    def resolve_r(self, values) -> float:
        """Tolerance in data units for the given window."""
        if self.r_mode is RMode.ABSOLUTE:
            return self.r_value
        r = self.r_value * float(np.asarray(values, dtype=np.float64).std(ddof=1))
        if not np.isfinite(r) or r <= 0.0:
            raise ZeroToleranceError("relative tolerance resolves to zero on a constant window")
        return r


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
    reach = max(-float(first[0]), float(first[-1]))
    pad = r + 4.0 * _EPS * (reach + r)
    if reach + pad == np.inf:  # a bound would overflow: search everything
        pad = np.inf
    lo = np.searchsorted(first, first - pad, side="left")
    hi = np.searchsorted(first, first + pad, side="right")
    rows = t if t < 2 * _BLOCK_ROWS else max(1, min(_BLOCK_ROWS, _CHUNK_CELLS // t))
    starts = np.arange(0, t, rows)
    stops = np.minimum(starts + rows, t)
    cols_lo, cols_hi = lo[starts], hi[stops - 1]
    cells = int(((stops - starts) * (cols_hi - cols_lo)).max())
    dist_buf, diff_buf = np.empty(cells), np.empty(cells)
    within_buf = np.empty(cells, dtype=bool)
    counts = np.empty((2, t), dtype=np.int64)
    for start, stop, c0, c1 in zip(
        starts.tolist(), stops.tolist(), cols_lo.tolist(), cols_hi.tolist()
    ):
        shape = (stop - start, c1 - c0)
        size = shape[0] * shape[1]
        dist = dist_buf[:size].reshape(shape)
        diff = diff_buf[:size].reshape(shape)
        within = within_buf[:size].reshape(shape)
        np.subtract.outer(first[start:stop], first[c0:c1], out=dist)
        np.abs(dist, out=dist)
        for k in range(1, m + 1):
            if k == m:
                np.less_equal(dist, r, out=within)
                np.add.reduce(within, axis=1, dtype=np.int64, out=counts[0, start:stop])
            np.subtract.outer(coords[k][start:stop], coords[k][c0:c1], out=diff)
            np.abs(diff, out=diff)
            np.maximum(dist, diff, out=dist)
        np.less_equal(dist, r, out=within)
        np.add.reduce(within, axis=1, dtype=np.int64, out=counts[1, start:stop])
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
        count.
    """
    p = params if params is not None else ApenParams()
    arr = np.ascontiguousarray(values, dtype=np.float64)
    n = arr.size
    if n < p.m + 2:
        raise TooShortError(f"need at least m + 2 = {p.m + 2} observations, got {n}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError("values must be finite")
    phi_m, phi_m1 = _phi_pair(arr, p.m, p.resolve_r(arr))
    return phi_m - phi_m1


def rolling_apen(values, window: int, params: ApenParams | None = None, *, dates=None):
    """ApEn over every full window of ``window`` observations.

    A relative tolerance is re-resolved from each window's own standard
    deviation. Windows are independent and may be evaluated in parallel.
    """
    from .stats import rolling  # deferred import; stats dispatches back here

    p = params if params is not None else ApenParams()
    return rolling(values, window, "apen", dates=dates, apen_params=p)
