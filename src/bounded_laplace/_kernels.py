"""Kernel for the grid privacy scan.

The scan maximises ``P_q(A) - amp * P_q'(A)`` over query pairs and the
intervals ``A = [x_i, x_j]`` of each pair's own set grid.  It receives one
row per pair from each of two tables, ``F_q`` and ``F_q'`` at that pair's
grid points; with ``d = F_q - amp * F_q'`` along a row, the worst interval
is ``max_{i<j} d[j] - d[i]``, computed as ``max_j (d[j] - min(d[:j]))`` by a
running minimum along the set axis, all pairs at once: O(pairs * m) time and
memory, with no gather of rows.

Single intervals suffice.  For q < q' the likelihood ratio p_q / p_q' of the
bounded mechanism does not increase in x, so the increments of ``d`` change
sign at most once, and no union of disjoint intervals beats the best single
interval.
"""

import numpy as np

__all__ = ["worst_interval_margin"]


def worst_interval_margin(rows_q, rows_q_prime, amp):
    """Maximise ``P_q(A) - amp * P_q'(A)`` over pairs and grid intervals.

    ``rows_q[p, k]`` and ``rows_q_prime[p, k]`` hold the CDFs of the p-th
    pair's queries q and q' at its grid point ``x_k``; ``A`` runs over all
    intervals ``[x_i, x_j]`` with ``i < j``.

    Returns ``(margin, pair_index, i, j)``: the worst set is
    ``[x_i, x_j]`` of pair ``pair_index``.  Ties between equal margins go to
    the lexicographically first ``(pair_index, i, j)``, and the margin is the
    float difference ``d[j] - d[i]`` of the two entries it names.  Raises
    ``ValueError`` unless both tables have the same 2-d shape with at least
    one row and 2 columns.
    """
    f = np.asarray(rows_q, dtype=np.float64)
    g = np.asarray(rows_q_prime, dtype=np.float64)
    amp = float(amp)
    if f.shape != g.shape or f.ndim != 2 or f.shape[0] == 0 or f.shape[1] < 2:
        raise ValueError("the two tables must share one 2-d shape with at least 1 row "
                         f"and 2 grid columns, got {f.shape} and {g.shape}")
    # min and max are exact, so each gain is the float subtraction of the
    # same two entries as in the quadratic scan
    d = amp * g
    np.subtract(f, d, out=d)
    gain = np.minimum.accumulate(d[:, :-1], axis=1)
    np.subtract(d[:, 1:], gain, out=gain)
    best = gain.max(axis=1)
    # argmax takes the first pair attaining the maximum
    bp = int(np.argmax(best))
    v = float(best[bp])
    bi, bj = _first_interval(d[bp], v)
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
