"""Kernel for the grid privacy scan: each pair's exact delta in closed form.

A pair is given by offsets from the lower edge: q = lower + a and q' = q + z,
with a >= 0, z > 0 and a + z <= width exactly.  For lambda = log
C(q')/C(q), the log likelihood ratio log p_q(x) / p_q'(x) is lambda + z/b
on [lower, q], falls with slope -2/b on [q, q'] and is lambda - z/b on
[q', upper].  So the set maximising ``P_q(A) - e^eps P_q'(A)`` is
``[lower, q + u]``, where the ratio exceeds eps: ``u = b kappa / 2`` with
``kappa = max(0, lambda + z/b - eps)``, and u <= z because C(q + z) <=
e^(z/b) C(q) and eps >= 0.  At the crossing x = q + u, ``p_q = e^eps
p_q'``, so ``e^eps F_q'(q + u) = e^(-u/b) (1 - e^(-(a+u)/b)) / (2 C(q))``,
and the pair's delta is

    ``(expm1(-kappa/2)^2 + expm1(-a/b) expm1(-kappa)) / (2 C(q))``:

two non-negative terms, every exponent <= 0, with no e^eps and nothing
subtracted, and exactly 0 when kappa = 0 (the empty set).  The inputs are
offsets, so the margins depend on the width, not on the domain's position.
O(pairs) time and memory.
"""

import numpy as np

from .mechanism import _inside_mass, _log_shift_ratio

__all__ = ["worst_interval_margin"]


def worst_interval_margin(mech, a, z):
    """The largest exact delta ``F_q(t) - e^eps F_q'(t)`` over the pairs
    ``(lower + a, lower + a + z)`` of the offset arrays ``(a, z)``, at each
    pair's worst set ``[lower, t]``.

    t is ``lower + (a + b kappa / 2)`` rounded, or ``lower`` for an empty
    set.  Returns ``(margin, pair_index, t)``; ties go to the first pair.
    """
    d, b, eps = mech.domain, mech.scale, mech.budget.epsilon
    w = d.width
    kappa = np.maximum(_log_shift_ratio(w, b, a, z) + z / b - eps, 0.0)
    margins = (np.expm1(-0.5 * kappa) ** 2 + np.expm1(-a / b) * np.expm1(-kappa)) \
        / (2.0 * _inside_mass(a, w - a, b))
    p = int(np.argmax(margins))
    t = d.lower + (a[p] + 0.5 * b * kappa[p]) if kappa[p] > 0.0 else d.lower
    return float(margins[p]), p, float(t)
