"""Kernel for the grid privacy scan.

The scan maximises ``P_q(A) - amp * P_q'(A)`` over query pairs q < q' and
the lower sets ``A = [x_0, x_j]`` of each pair's own set grid.  For q < q'
the likelihood ratio p_q / p_q' of the bounded mechanism does not increase
in x, so the worst set, the superlevel set ``{p_q / p_q' > amp}``, is a
lower interval.  The grid starts at the lower edge, where every CDF is
exactly 0, so a lower set's margin is the table entry
``d[j] = F_q(x_j) - amp * F_q'(x_j)`` itself: O(pairs * m) time and memory.
"""

import numpy as np

__all__ = ["worst_interval_margin"]


def worst_interval_margin(rows_q, rows_q_prime, amp):
    """Maximise ``P_q(A) - amp * P_q'(A)`` over pairs and lower grid sets.

    ``rows_q[p, k]`` and ``rows_q_prime[p, k]`` hold the CDFs of the p-th
    pair's queries q and q' at its grid point ``x_k``, with ``x_0`` the
    lower edge; ``A`` runs over the lower sets ``[x_0, x_j]``, j >= 1.

    Returns ``(margin, pair_index, j)``: the worst set is ``[x_0, x_j]`` of
    pair ``pair_index``.  Ties go to the first pair, then to the first j.
    Raises ``ValueError`` unless both tables have the same 2-d shape with at
    least one row and 2 columns, and a first column of zeros.
    """
    f = np.asarray(rows_q, dtype=np.float64)
    g = np.asarray(rows_q_prime, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 2 or f.shape[0] == 0 or f.shape[1] < 2 \
            or f[:, 0].any() or g[:, 0].any():
        raise ValueError("the two tables must share one 2-d shape with at least 1 row "
                         f"and 2 grid columns, the first all 0, got {f.shape} and {g.shape}")
    d = float(amp) * g[:, 1:]
    np.subtract(f[:, 1:], d, out=d)
    # the flat argmax takes the first pair, then its first j
    p, k = divmod(int(np.argmax(d)), d.shape[1])
    return float(d[p, k]), p, k + 1
