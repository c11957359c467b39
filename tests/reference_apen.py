"""Direct-count approximate-entropy reference.

Deliberately written as plain nested loops over python floats so it shares
no code path (and no vectorization strategy) with the library
implementation. O(N^2 * m); fine for the test sizes.
"""

import math


def apen_direct(values, m, r):
    values = [float(v) for v in values]
    n = len(values)

    def phi(mm):
        t = n - mm + 1
        acc = 0.0
        for i in range(t):
            matches = 0
            for j in range(t):
                within = True
                for k in range(mm):
                    if abs(values[i + k] - values[j + k]) > r:
                        within = False
                        break
                if within:
                    matches += 1
            acc += math.log(matches / t)
        return acc / t

    return phi(m) - phi(m + 1)


def apen_dense(values, m, r, chunk_cells=4_194_304):
    """Dense-block ApEn, kept as the bit-identity reference for the band kernel.

    Fills row chunks of the full N x N Chebyshev-distance matrix, once for m
    and once for m + 1, exactly as the library did before it sorted the
    templates into first-coordinate bands.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    arr = np.ascontiguousarray(values, dtype=np.float64)

    def phi(mm):
        templates = sliding_window_view(arr, mm)
        t = templates.shape[0]
        counts = np.empty(t, dtype=np.int64)
        chunk = max(1, chunk_cells // t)
        for start in range(0, t, chunk):
            block = templates[start : start + chunk]
            dist = np.abs(block[:, 0][:, None] - templates[:, 0][None, :])
            for k in range(1, mm):
                np.maximum(dist, np.abs(block[:, k][:, None] - templates[:, k][None, :]), out=dist)
            counts[start : start + chunk] = (dist <= r).sum(axis=1)
        return float(np.mean(np.log(counts / t)))

    return phi(m) - phi(m + 1)


def rolling_apen_loop(values, window, params=None):
    """Per-window ApEn, kept as the bit-identity reference for the batched kernel.

    Calls ``apen`` on each window alone, exactly as ``stats.rolling`` did
    before it counted the matches of a chunk of windows at once.
    """
    import numpy as np

    from tailscope.apen import apen

    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.size - window + 1, dtype=np.float64)
    for i in range(out.size):
        out[i] = apen(arr[i : i + window], params)
    return out
