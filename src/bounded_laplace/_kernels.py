"""Kernel for the grid privacy scan: each pair's worst set in closed form.

For q < q' = q + z and lambda = log C(q')/C(q), the log likelihood ratio
log p_q(x) / p_q'(x) is lambda + z/b on [lower, q], falls with slope -2/b on
[q, q'] and is lambda - z/b on [q', upper].  So the set maximising
``P_q(A) - e^eps P_q'(A)`` is ``[lower, t]``, where the ratio exceeds eps:
``t = (q + q' + b (lambda - eps)) / 2`` clipped to [q, q'], or the empty set
when ``lambda + z/b <= eps``.  O(pairs) time and memory.
"""

import math

import numpy as np

from .mechanism import _log_shift_ratio

__all__ = ["worst_interval_margin"]


def worst_interval_margin(mech, qs, partners):
    """The largest ``F_q(t) - e^eps F_q'(t)`` over the pairs q < q' of ``(qs, partners)``.

    t is each pair's worst set's end, or ``lower`` for an empty set, where
    both CDFs are exactly 0; otherwise the margin is the largest at t and
    its two neighbouring doubles in [q, q'], as rounding t can cost a
    relative 1e-4.  Returns ``(margin, pair_index, t)``; ties go to the
    first pair, then to the smallest t.
    """
    d, b, eps = mech.domain, mech.scale, mech.budget.epsilon
    z = partners - qs
    lam = _log_shift_ratio(d.width, b, qs - d.lower, z)
    t = qs + 0.5 * (z + b * (lam - eps))
    ts = np.clip(np.stack([np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)], axis=1),
                 qs[:, None], partners[:, None])
    ts[lam + z / b <= eps] = d.lower  # the empty set
    margins = mech.cdf(qs[:, None], ts) - math.exp(eps) * mech.cdf(partners[:, None], ts)
    # the flat argmax takes the first pair, then its smallest t
    p, k = divmod(int(np.argmax(margins)), 3)
    return float(margins[p, k]), p, float(ts[p, k])
