"""Shared helpers for the test suite: random problem generation and oracles."""

import math

import mpmath
import numpy as np
from scipy import integrate

from bounded_laplace import (
    CalibratedMechanism,
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


def all_pairs_uniform_scan(mech, q_grid, set_grid):
    """Oracle for ``check_privacy_inequality``: the grid scan as it stood
    before pairs one sensitivity apart and per-query set grids.

    Every pair of a ``q_grid`` linspace of queries at most one sensitivity
    apart (plus 8 ulps of the largest domain edge, (q, q) included), and
    every interval of one ``set_grid`` linspace of the domain.  Returns the
    worst ``P_q(A) - e^eps P_q'(A) - delta``.
    """
    d = mech.domain
    qs = np.linspace(d.lower, d.upper, q_grid)
    xs = np.linspace(d.lower, d.upper, set_grid)
    cdf = mech.cdf(qs[:, None], xs[None, :])
    tol = 8.0 * np.spacing(max(abs(d.lower), abs(d.upper), d.width))
    pair_a, pair_b = np.nonzero(np.abs(qs[:, None] - qs[None, :]) <= d.sensitivity + tol)
    amp = math.exp(mech.budget.epsilon)
    best = -np.inf
    chunk = max(1, 2_000_000 // set_grid)
    for s in range(0, pair_a.size, chunk):
        diff = cdf[pair_a[s:s + chunk]] - amp * cdf[pair_b[s:s + chunk]]
        gain = diff[:, 1:] - np.minimum.accumulate(diff[:, :-1], axis=1)
        best = max(best, float(gain.max()))
    return best - mech.budget.delta


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


def set_grid_tables(mech, a, z, set_grid):
    """The grid check's CDF tables before its worst set had a closed form,
    for the scan's offset pairs ``(a, z)``.

    The tables are those of the domain moved to lower = 0, which has the
    same law relative to its edge: query ``a[r]`` is exact there, and its
    partner is the farthest double at most ``z[r]`` above it.  Query
    ``a[r]`` has the set grid ``xs[r, k] = quantile(a[r], k / (set_grid -
    1))``, equal-mass with the domain edges at both ends.  Returns
    ``(rows_q, rows_q_prime)``, one row per pair, with ``rows_q = F_q`` and
    ``rows_q_prime = F_{q'}`` at the pair's grid points.
    """
    d = mech.domain
    moved = CalibratedMechanism(OutputDomain(0.0, d.width, d.sensitivity), mech.budget,
                                mech.scale)
    partners = np.minimum(a + z, d.width)
    partners = np.where(partners - a > z, np.nextafter(partners, a), partners)
    xs = moved.quantile(a[:, None], np.arange(set_grid) / (set_grid - 1))
    return moved.cdf(a[:, None], xs), moved.cdf(partners[:, None], xs)


def table_worst_margin(rows_q, rows_q_prime, amp):
    """Oracle: the grid check's search before its worst set had a closed form.

    The largest ``F_q(x_j) - amp * F_q'(x_j)`` over the pairs and the grid
    points j >= 1 of the tables of :func:`set_grid_tables`: with ``x_0`` the
    lower edge, where both CDFs are 0, each entry is the margin of the lower
    set ``[x_0, x_j]``.  Returns ``(margin, pair_index, j)``; ties go to the
    first pair, then to the first j.
    """
    d = rows_q[:, 1:] - amp * rows_q_prime[:, 1:]
    p, k = divmod(int(np.argmax(d)), d.shape[1])
    return float(d[p, k]), p, k + 1


def two_interval_margin(rows_q, rows_q_prime, amp):
    """Oracle: the best ``P_q(A) - amp * P_q'(A)`` over unions ``A`` of two
    disjoint grid intervals, and the first pair attaining it.

    Row p of each table holds the CDF of the p-th pair's query at its grid
    points.  Running extrema per pair: the best interval ending by column k
    plus the best one starting at k or later.  Tests compare it with the
    one-sided scan to show that one-sided sets suffice.
    """
    m = rows_q.shape[1]
    if m < 3:
        return -np.inf, -1
    d = rows_q - amp * rows_q_prime
    run_min = np.minimum.accumulate(d[:, :-1], axis=1)
    left = np.maximum.accumulate(d[:, 1:] - run_min, axis=1)
    run_max = np.maximum.accumulate(d[:, :0:-1], axis=1)[:, ::-1]
    right = np.maximum.accumulate((run_max - d[:, :-1])[:, ::-1], axis=1)[:, ::-1]
    total = left[:, : m - 2] + right[:, 1: m - 1]
    k = int(np.argmax(total))
    return float(total.flat[k]), k // (m - 2)


def all_intervals_margin(rows_q, rows_q_prime, amp):
    """Oracle: the best ``P_q(A) - amp * P_q'(A)`` over every grid interval
    ``A = [x_i, x_j]``, ``i < j``, of every pair, in the scan's float grouping:
    the max of ``d[j] - d[i]`` with ``d = F_q - amp * F_q'``, each start
    ``i`` taken in turn.
    """
    d = rows_q - amp * rows_q_prime
    return max(float((d[:, i + 1:] - d[:, i:i + 1]).max()) for i in range(d.shape[1] - 1))


def brute_force_two(rows_q, rows_q_prime, amp):
    """Best margin over single intervals and unions of two disjoint grid
    intervals, every union enumerated."""
    best = -np.inf
    m = rows_q.shape[1]
    for fa, fb in zip(rows_q, rows_q_prime):
        for i1 in range(m - 1):
            for j1 in range(i1 + 1, m):
                v1 = (fa[j1] - fa[i1]) - amp * (fb[j1] - fb[i1])
                best = max(best, v1)
                for i2 in range(j1, m - 1):
                    for j2 in range(i2 + 1, m):
                        v2 = (fa[j2] - fa[i2]) - amp * (fb[j2] - fb[i2])
                        best = max(best, v1 + v2)
    return best
