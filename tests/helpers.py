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


def reference_empirical_counts(mech, q, q_prime, rng, samples, edges):
    """Oracle for the empirical estimate's bin counts: all ``samples`` draws
    for q, then all for q', each drawn and histogrammed at once."""
    count_q = np.histogram(mech.sample_inverse(q, rng, size=samples), edges)[0]
    count_p = np.histogram(mech.sample_inverse(q_prime, rng, size=samples), edges)[0]
    return count_q, count_p


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


def two_interval_margin(rows_q, rows_q_prime, amp):
    """Oracle: the best ``P_q(A) - amp * P_q'(A)`` over unions ``A`` of two
    disjoint grid intervals, and the first pair attaining it.

    Row p of each table holds the CDF of the p-th pair's query at its grid
    points.  Running extrema per pair: the best interval ending by column k
    plus the best one starting at k or later.  Tests compare it with the
    single-interval scan to show that single intervals suffice.
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
