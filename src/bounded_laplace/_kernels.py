"""Kernel for the grid privacy scan.

The scan maximises ``P_q(A) - amp * P_q'(A)`` over query pairs and the
one-sided sets ``A`` of each pair's own set grid.  For q < q' the likelihood
ratio p_q / p_q' of the bounded mechanism does not increase in x, so the
worst set, the superlevel set ``{p_q / p_q' > amp}``, is a lower interval;
for q > q' it is an upper one.  With ``d = F_q - amp * F_q'`` along a row, a
lower set ``[x_0, x_j]`` gains ``d[j] - d[0]`` and an upper set
``[x_i, x_{m-1}]`` gains ``d[-1] - d[i]``: O(pairs * m) time and memory.
"""

import numpy as np

__all__ = ["worst_interval_margin"]


def worst_interval_margin(rows_q, rows_q_prime, amp, lower):
    """Maximise ``P_q(A) - amp * P_q'(A)`` over pairs and one-sided grid sets.

    ``rows_q[p, k]`` and ``rows_q_prime[p, k]`` hold the CDFs of the p-th
    pair's queries q and q' at its grid point ``x_k``; ``A`` runs over the
    lower sets ``[x_0, x_j]`` if ``lower``, else the upper sets
    ``[x_i, x_{m-1}]``.

    Returns ``(margin, pair_index, i, j)``: the worst set is ``[x_i, x_j]``
    of pair ``pair_index``.  Ties go to the first pair, then to the first
    free end, and the margin is the float difference ``d[j] - d[i]`` of the
    two entries it names.  Raises ``ValueError`` unless both tables have the
    same 2-d shape with at least one row and 2 columns.
    """
    f = np.asarray(rows_q, dtype=np.float64)
    g = np.asarray(rows_q_prime, dtype=np.float64)
    if f.shape != g.shape or f.ndim != 2 or f.shape[0] == 0 or f.shape[1] < 2:
        raise ValueError("the two tables must share one 2-d shape with at least 1 row "
                         f"and 2 grid columns, got {f.shape} and {g.shape}")
    d = float(amp) * g
    np.subtract(f, d, out=d)
    gain = d[:, 1:] - d[:, :1] if lower else d[:, -1:] - d[:, :-1]
    # the flat argmax takes the first pair, then its first free end
    p, k = divmod(int(np.argmax(gain)), gain.shape[1])
    i, j = (0, k + 1) if lower else (k, f.shape[1] - 1)
    return float(gain[p, k]), p, i, j
