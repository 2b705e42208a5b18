"""Kernel for the grid privacy scan.

The scan maximises ``P_q(A) - amp * P_q'(A)`` over every admissible query
pair and every grid interval ``A = [x_i, x_j]``.  With ``d = F_q - amp *
F_q'`` on the grid, that is ``max_{i<j} d[j] - d[i]`` per pair, computed as
``max_j (d[j] - min(d[:j]))`` in one pass over the ``m`` grid columns, all
pairs at once: O(pairs * m) time and O(pairs) working memory.

Single intervals suffice.  For q < q' the likelihood ratio p_q / p_q' of the
bounded mechanism does not increase in x, so the increments of ``d`` change
sign at most once, and no union of disjoint intervals beats the best single
interval.
"""

import numpy as np

__all__ = ["worst_interval_margin"]


def worst_interval_margin(cdf, pair_a, pair_b, amp):
    """Maximise ``P_q(A) - amp * P_q'(A)`` over pairs and grid intervals.

    ``cdf[r, k]`` holds the CDF of query row ``r`` at grid point ``x_k``;
    rows ``pair_a[p]`` / ``pair_b[p]`` form the p-th query pair; ``A`` runs
    over all intervals ``[x_i, x_j]`` with ``i < j``.

    Returns ``(margin, pair_index, i, j)``: the worst set is
    ``[x_i, x_j]`` for the query pair ``pair_index``.  Ties between equal
    margins go to the lexicographically first ``(pair_index, i, j)``, and the
    margin is the float difference ``d[j] - d[i]`` of the two entries it
    names.  Raises ``ValueError`` for a table with fewer than 2 columns and
    for empty, unequal or out-of-range pair indices, then makes the one pass
    over the columns that the module docstring describes.
    """
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    pair_a = np.ascontiguousarray(pair_a, dtype=np.int64)
    pair_b = np.ascontiguousarray(pair_b, dtype=np.int64)
    amp = float(amp)
    if cdf.ndim != 2 or cdf.shape[1] < 2:
        raise ValueError(f"cdf must be 2-d with at least 2 grid columns, got {cdf.shape}")
    if pair_a.shape != pair_b.shape or pair_a.ndim != 1 or pair_a.size == 0:
        raise ValueError("pair index arrays must be equal-length, non-empty 1-d arrays")
    for arr in (pair_a, pair_b):
        if arr.min() < 0 or arr.max() >= cdf.shape[0]:
            raise ValueError("pair indices out of range")
    # One pass over the grid columns with three length-pairs vectors, plus
    # one scratch: ``d`` (this column), ``low`` = min(d[:j]) and ``best`` =
    # the best d[j] - low so far.  min and max are exact, so each gain is the
    # float subtraction of the same two entries as in the quadratic scan.
    # ``scaled`` multiplies each CDF entry by ``amp`` once, not once per pair
    # that gathers it; the product of the same two doubles is the same.
    cols = np.ascontiguousarray(cdf.T)
    scaled = amp * cols
    d = np.empty(pair_a.size)
    tmp = np.empty(pair_a.size)
    low = cols[0, pair_a] - scaled[0, pair_b]
    best = np.full(pair_a.size, -np.inf)
    for col, col_scaled in zip(cols[1:], scaled[1:]):
        # indices were range-checked above; mode="clip" lets take write
        # straight into ``out`` instead of buffering
        np.take(col, pair_a, out=d, mode="clip")
        np.subtract(d, np.take(col_scaled, pair_b, out=tmp, mode="clip"), out=d)
        np.maximum(best, np.subtract(d, low, out=tmp), out=best)
        np.minimum(low, d, out=low)
    # argmax takes the first pair attaining the maximum
    bp = int(np.argmax(best))
    v = float(best[bp])
    d = cdf[pair_a[bp]] - amp * cdf[pair_b[bp]]
    bi, bj = _first_interval(d, v)
    return v, bp, bi, bj


def _first_interval(d, target):
    """Lexicographically first ``(i, j)`` with ``i < j`` and ``d[j] - d[i] == target``.

    ``target`` must be the maximum of ``d[j] - d[i]``; then row ``i`` attains
    it exactly when ``max(d[i+1:]) - d[i]`` does, since float subtraction is
    monotone in each operand.
    """
    suffix_max = np.maximum.accumulate(d[:0:-1])[::-1]
    i = int(np.argmax(suffix_max - d[:-1] == target))
    j = i + 1 + int(np.argmax(d[i + 1:] - d[i] == target))
    return i, j
