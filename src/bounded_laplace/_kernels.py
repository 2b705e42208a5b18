"""Kernel for the grid privacy scan: each pair's exact delta in closed form.

For q < q' = q + z and lambda = log C(q')/C(q), the log likelihood ratio
log p_q(x) / p_q'(x) is lambda + z/b on [lower, q], falls with slope -2/b on
[q, q'] and is lambda - z/b on [q', upper].  So the set maximising
``P_q(A) - e^eps P_q'(A)`` is ``[lower, q + u]``, where the ratio exceeds
eps: ``u = b kappa / 2`` with ``kappa = max(0, lambda + z/b - eps)``, and
u <= z because C(q + z) <= e^(z/b) C(q) and eps >= 0.  At the crossing
x = q + u, ``p_q = e^eps p_q'``, so ``e^eps F_q'(q + u) = e^(-u/b) (1 -
e^(-(a+u)/b)) / (2 C(q))`` with ``a = q - lower``, and the pair's delta is

    ``(expm1(-kappa/2)^2 + expm1(-a/b) expm1(-kappa)) / (2 C(q))``:

two non-negative terms, every exponent <= 0, with no e^eps and nothing
subtracted, and exactly 0 when kappa = 0 (the empty set).  O(pairs) time
and memory.
"""

import numpy as np

from .mechanism import _log_shift_ratio, _normalizer

__all__ = ["worst_interval_margin"]


def worst_interval_margin(mech, qs, partners):
    """The largest exact delta ``F_q(t) - e^eps F_q'(t)`` over the pairs q < q'
    of ``(qs, partners)``, at each pair's worst set ``[lower, t]``.

    t is ``q + b kappa / 2`` rounded, so it is q for a set narrower than half
    an ulp of q, or ``lower`` for an empty set.  Returns
    ``(margin, pair_index, t)``; ties go to the first pair.  Raises
    ``ValueError`` for a query outside the domain.
    """
    d, b, eps = mech.domain, mech.scale, mech.budget.epsilon
    qs, partners = d.require_query(qs), d.require_query(partners)
    a, z = qs - d.lower, partners - qs
    kappa = np.maximum(_log_shift_ratio(d.width, b, a, z) + z / b - eps, 0.0)
    margins = (np.expm1(-0.5 * kappa) ** 2 + np.expm1(-a / b) * np.expm1(-kappa)) \
        / (2.0 * _normalizer(d, qs, b))
    p = int(np.argmax(margins))
    t = qs[p] + 0.5 * b * kappa[p] if kappa[p] > 0.0 else d.lower
    return float(margins[p]), p, float(t)
