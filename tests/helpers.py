"""Shared helpers for the test suite: random problem generation and oracles."""

import math

import mpmath
import numpy as np
from scipy import integrate

from bounded_laplace import (
    CheckResult,
    OutputDomain,
    PrivacyBudget,
    baseline_scale,
    fixed_point_operator,
    normalizer_ratio,
)
from bounded_laplace.mechanism import _sample_count
from bounded_laplace.verification import SCAN_GRID


def random_problem(rng, span_fraction=None, eps_range=(1e-2, 10.0), delta_max=0.5):
    """A random valid (domain, budget) tuple.

    ``span_fraction`` pins sensitivity/width; by default it is drawn from
    (0.05, 0.95] with a 1-in-10 chance of exactly 1 (sensitivity == width).
    """
    lower = rng.uniform(-10.0, 10.0)
    width = rng.uniform(0.1, 20.0)
    upper = lower + width
    if span_fraction is None:
        span_fraction = 1.0 if rng.random() < 0.1 else rng.uniform(0.05, 0.95)
    sensitivity = (upper - lower) if span_fraction == 1.0 else width * span_fraction
    epsilon = 10.0 ** rng.uniform(math.log10(eps_range[0]), math.log10(eps_range[1]))
    delta = rng.uniform(0.0, delta_max)
    return OutputDomain(lower, upper, sensitivity), PrivacyBudget(epsilon, delta)


def laplace_mass_quadrature(domain, q, b, lo, hi):
    """Adaptive-quadrature mass of an unbounded Laplace(q, b) on [lo, hi]."""
    points = [q] if lo < q < hi else None
    val, _ = integrate.quad(
        lambda x: math.exp(-abs(x - q) / b) / (2.0 * b), lo, hi,
        points=points, limit=200,
    )
    return val


def _mp_mass(q, b, lo, hi):
    """Mass of an unbounded Laplace(q, b) on [lo, hi], in mpmath numbers.

    A one-sided mass is ``e^{-(distance to the nearer end)/b} (1 - e^{-(hi-lo)/b}) / 2``;
    taking ``1 - e^{-(hi-lo)/b}`` through expm1 keeps all working digits
    however narrow [lo, hi] is, where a difference of two exponentials
    loses one digit per decade of ``(hi - lo) / b`` below 1.
    """
    if hi <= q:
        return -mpmath.exp((hi - q) / b) * mpmath.expm1(-(hi - lo) / b) / 2
    if lo >= q:
        return -mpmath.exp(-(lo - q) / b) * mpmath.expm1(-(hi - lo) / b) / 2
    return _mp_mass(q, b, lo, q) + _mp_mass(q, b, q, hi)


def mp_cdf(domain, q, b, x):
    """Exact CDF of the bounded mechanism at double inputs, to 60 digits."""
    with mpmath.workdps(60):
        lo, hi, q, b = (mpmath.mpf(v) for v in (domain.lower, domain.upper, q, b))
        x = min(max(mpmath.mpf(x), lo), hi)
        return _mp_mass(q, b, lo, x) / _mp_mass(q, b, lo, hi)


def mp_quantile(domain, q, b, p):
    """Exact inverse of :func:`mp_cdf` in p, to 60 digits.

    With C the in-domain mass, solves ``p C = mass(lower, x)`` on the branch
    below q and ``(1 - p) C = mass(x, upper)`` above it.
    """
    with mpmath.workdps(60):
        lo, hi, q, b, p = (mpmath.mpf(v) for v in (domain.lower, domain.upper, q, b, p))
        c = _mp_mass(q, b, lo, hi)
        if p * c <= _mp_mass(q, b, lo, q):
            return q + b * mpmath.log(2 * p * c + mpmath.exp(-(q - lo) / b))
        return q - b * mpmath.log(2 * (1 - p) * c + mpmath.exp(-(hi - q) / b))


def mp_normalizer_ratio(domain, b):
    """Exact ``C(lower + sensitivity) / C(lower)``, to 60 digits."""
    with mpmath.workdps(60):
        lo, hi, s, b = (mpmath.mpf(v) for v in
                        (domain.lower, domain.upper, domain.sensitivity, b))
        return _mp_mass(lo + s, b, lo, hi) / _mp_mass(lo, b, lo, hi)


def mp_achieved_epsilon(domain, b, delta):
    """Exact ``s/b + log R(b) + log1p(-delta)`` at double inputs, to 60 digits:
    the scale b is private at (eps, delta) iff this is at most eps."""
    with mpmath.workdps(60):
        return (mpmath.mpf(domain.sensitivity) / mpmath.mpf(b)
                + mpmath.log(mp_normalizer_ratio(domain, b))
                + mpmath.log1p(-mpmath.mpf(delta)))


def damped_fixed_point(domain, budget, rel_tol=1e-14, max_steps=200_000):
    """Independent fixed-point oracle: damped iteration from the baseline scale.

    Deliberately not bisection; halves the damping whenever the residual
    stops shrinking.
    """
    b = baseline_scale(domain, budget)
    lam = 0.5
    prev = math.inf
    for _ in range(max_steps):
        fb = fixed_point_operator(domain, budget, b)
        res = abs(fb - b)
        if res <= rel_tol * max(b, 1.0):
            return b
        if res >= prev:
            lam *= 0.5
        prev = res
        b = b + lam * (fb - b)
    raise AssertionError("damped fixed-point iteration did not converge")


def reference_sufficient_condition(mech):
    """Oracle for ``check_sufficient_condition``: the condition in its exp
    form, ``exp(eps - sensitivity/b) / ratio(b) + delta >= 1 - 1e-9``, as the
    check stood before it evaluated ``achieved_epsilon``.  The exp overflows
    once eps - sensitivity/b passes about 709.78."""
    d, budget = mech.domain, mech.budget
    value = (
        math.exp(budget.epsilon - d.sensitivity / mech.scale)
        / normalizer_ratio(d, mech.scale)
        + budget.delta
    )
    margin = 1.0 - value
    return CheckResult("sufficient_condition", bool(margin <= 1e-9), float(margin),
                       {"value": float(value), "scale": float(mech.scale)})


def reference_quantile(mech, q, p):
    """Oracle for ``CalibratedMechanism.quantile``: its formula with a fresh
    temporary for every step.

    Below q it inverts the lower tail mass, ``x = lower + b log1p(2 p C
    e^{(q-lower)/b})``, above q the mirror image from the upper edge; when
    the width exceeds 700 scales both branches are anchored at q instead.
    """
    qa = mech.domain.require_query(q)
    pa = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(pa)) or np.any((pa < 0.0) | (pa > 1.0)):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    d, b = mech.domain, mech.scale
    c = -0.5 * (np.expm1(-(qa - d.lower) / b) + np.expm1(-(d.upper - qa) / b))
    a_lo = (qa - d.lower) / b
    a_hi = (d.upper - qa) / b
    with np.errstate(divide="ignore"):
        if d.width <= 700.0 * b:
            below = d.lower + b * np.log1p(pa * (2.0 * c * np.exp(a_lo)))
            above = d.upper + -b * np.log1p((1.0 - pa) * (2.0 * c * np.exp(a_hi)))
        else:
            below = qa + b * np.log(pa * (2.0 * c) + np.exp(-a_lo))
            above = qa + -b * np.log((1.0 - pa) * (2.0 * c) + np.exp(-a_hi))
    use_below = pa <= -0.5 * np.expm1(-a_lo) / c
    out = np.clip(np.where(use_below, below, above), d.lower, d.upper)
    out = np.where(pa == 0.0, d.lower, np.where(pa == 1.0, d.upper, out))
    return float(out) if out.ndim == 0 else out


def reference_rejection(mech, q, rng, size=None):
    """Oracle for ``CalibratedMechanism.sample_rejection``: its loop with the
    draw counts kept by adding one to every pending sample each round."""
    qa = float(mech.domain.require_query(q))
    n = _sample_count(size)
    d, b = mech.domain, mech.scale
    values = np.empty(n)
    draws = np.zeros(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        x = rng.laplace(qa, b, size=pending.size)
        draws[pending] += 1
        ok = (x >= d.lower) & (x <= d.upper)
        values[pending[ok]] = x[ok]
        pending = pending[~ok]
    if size is None:
        return float(values[0]), int(draws[0])
    return values, draws


def counts_at_or_below(values, edges):
    """Oracle for the empirical check's counts: one comparison pass per edge."""
    return np.array([np.count_nonzero(values <= t) for t in edges], dtype=np.intp)


def reference_empirical_counts(mech, q, q_prime, rng, samples, edges):
    """Oracle for the empirical check's counts: all ``samples`` draws for q,
    then all for q', each drawn at once and counted at or below every edge."""
    return (counts_at_or_below(mech.sample_inverse(q, rng, size=samples), edges),
            counts_at_or_below(mech.sample_inverse(q_prime, rng, size=samples), edges))


def closed_form_empirical_margin(mech, q, q_prime):
    """Oracle for the empirical check's margin without sampling: the same
    ``e^-eps (P_q(A) - delta) - P_q'(A)`` over the same sets, at q's
    equal-mass edges t but the null set's, from ``mech.cdf`` there."""
    ks = np.arange(1, SCAN_GRID) if q <= q_prime else np.arange(SCAN_GRID - 1)
    edges = mech.quantile(q, ks / (SCAN_GRID - 1))
    cdf_q, cdf_p = mech.cdf(q, edges), mech.cdf(q_prime, edges)
    if q > q_prime:  # upper sets (t, upper]
        cdf_q, cdf_p = 1.0 - cdf_q, 1.0 - cdf_p
    gains = math.exp(-mech.budget.epsilon) * (cdf_q - mech.budget.delta) - cdf_p
    return float(gains.max())


def mp_pair_delta(mech, a, z):
    """Exact delta at 80 digits of the pair ``q = lower + a < q' = q + z``,
    both sums formed in mpmath: the sup over the lower sets ``[lower, t]``
    of ``F_q(t) - e^eps F_q'(t)``, and a t attaining it.

    The sup lies at lower, at q or q', or where ``p_q - e^eps p_q'`` changes
    sign inside (q, q'); that point is found by bisection on the sign of the
    log density ratio, not from the grid check's closed form.
    """
    d, eps = mech.domain, mech.budget.epsilon
    with mpmath.workdps(80):
        lo, hi, a, z, b = (mpmath.mpf(v) for v in (d.lower, d.upper, a, z, mech.scale))
        q, qp = lo + a, lo + a + z
        c, cp, amp = _mp_mass(q, b, lo, hi), _mp_mass(qp, b, lo, hi), mpmath.exp(eps)
        log_ratio = mpmath.log(cp / c) - eps
        ts = [lo, q, qp]
        left, right = q, qp
        # the density ratio falls across (q, q'); 2**-100 of z puts t far
        # closer than 80 digits resolve the margin, which is flat at its sup
        for _ in range(100):
            m = (left + right) / 2
            left, right = (m, right) if (qp + q - 2 * m) / b + log_ratio > 0 else (left, m)
        ts.append(left)
        return max((_mp_mass(q, b, lo, t) / c - amp * _mp_mass(qp, b, lo, t) / cp, t)
                   for t in ts)


def mp_hockey_stick(mech, a, z, dps=30):
    """Exact ``int (p_q - e^eps p_q')_+`` over the domain, the sup of ``P_q(A)
    - e^eps P_q'(A)`` over every measurable A, for ``q = lower + a`` and
    ``q' = q + z`` (z < 0 for the reversed pair), all in mpmath at ``dps``
    digits.  On each piece cut at q and q' the log density ratio is affine,
    so the integrand changes sign at most once there: bisection on the two
    densities finds it, and ``mpmath.quad`` integrates the positive part.
    Neither the worst-set theorem nor the grid check's closed form is used.
    """
    d, eps = mech.domain, mech.budget.epsilon
    with mpmath.workdps(dps):
        lo, hi, a, z, b = (mpmath.mpf(v) for v in (d.lower, d.upper, a, z, mech.scale))
        q, qp = lo + a, lo + a + z
        k, kp = 1 / _mp_mass(q, b, lo, hi), mpmath.exp(eps) / _mp_mass(qp, b, lo, hi)
        def gap(x):  # (p_q - e^eps p_q') 2b
            return k * mpmath.exp(-abs(x - q) / b) - kp * mpmath.exp(-abs(x - qp) / b)
        cuts, total = [lo, min(q, qp), max(q, qp), hi], mpmath.mpf(0)
        for left, right in zip(cuts, cuts[1:]):
            ends = gap(left) > 0, gap(right) > 0
            if right == left or not any(ends):
                continue
            u, v = left, right
            if ends[0] != ends[1]:
                # to 2**-100 of the piece: the integrand vanishes at the sign
                # change, so the integral errs by a term second order in that
                for _ in range(100):
                    m = (u + v) / 2
                    u, v = (m, v) if (gap(m) > 0) == ends[0] else (u, m)
                u, v = (left, u) if ends[0] else (v, right)
            total += mpmath.quad(gap, [u, v])
        return total / (2 * b)
