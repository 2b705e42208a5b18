import math
import tracemalloc

import numpy as np
import pytest

from bounded_laplace import (CalibratedMechanism, OutputDomain, PrivacyBudget,
                             baseline_scale, calibrate)
from bounded_laplace._kernels import worst_interval_margin
from bounded_laplace.mechanism import _log_shift_ratio
from bounded_laplace.verification import PRIVACY_SLACK, _scan_grid
from helpers import mp_hockey_stick, mp_pair_delta


def scales(domain, budget, thetas):
    # b0 (b_star / b0)^theta: b0 at 0, b_star at 1, non-private in between
    report = calibrate(domain, budget)
    return [report.b0 * (report.b_star / report.b0) ** th if th < 1 else report.b_star
            for th in thetas]


def problems(domains, fracs, epsilons, thetas):
    for lower, upper in domains:
        for frac in fracs:
            domain = OutputDomain(lower, upper, frac * (upper - lower))
            for eps in epsilons:
                for delta in (0.0, 1e-3):
                    budget = PrivacyBudget(eps, delta)
                    for b in scales(domain, budget, thetas):
                        yield CalibratedMechanism(domain, budget, b)


NEAR_DOMAINS = ((0.0, 1.0), (0.0, 1000.0), (-4.0, -1.0))


def test_numpy_kernel_matches_brute_force():
    # the exact delta of each pair, at 80 digits, is the brute-force sup over
    # every lower set; the double margin neither misses a violation nor
    # reports a false one, at eps up to 50, where e^eps times a probability
    # would be of size 1e21, and on [1e6, 1e6 + 1e-3], where a worst set can
    # be narrower than an ulp of the domain's edges
    fails = 0
    for mech in problems(NEAR_DOMAINS + ((1e6, 1e6 + 1e-3),), (1e-4, 0.1, 0.5, 0.9),
                         (1.0, 30.0, 35.0, 50.0), (0.9, 0.99, 1.0)):
        a, z = _scan_grid(mech, 4)
        margin = worst_interval_margin(mech, a, z)[0]
        exact = max(float(mp_pair_delta(mech, *pair)[0]) for pair in zip(a, z))
        delta = mech.budget.delta
        assert (margin - delta > PRIVACY_SLACK) == (exact - delta > PRIVACY_SLACK), (
            mech, margin, exact)
        assert abs(margin - exact) <= 1e-9 * exact + 1e-14, (mech, margin, exact)
        fails += exact - delta > PRIVACY_SLACK
    assert fails > 0
    # a second family, 24 sampled pairs: the exact sup over every set, a
    # hockey-stick integral, is the sup over lower sets to 1e-20 relative
    # (at 50 digits, down to deltas of 1e-25), and the kernel is both
    rng = np.random.default_rng(8)
    family = list(problems(NEAR_DOMAINS + ((1e6, 1e6 + 1e-3),), (1e-4, 1e-2, 0.5, 1.0),
                           (0.01, 1.0, 5.0, 30.0, 50.0), (0.0, 0.9, 1.0)))
    positive = 0
    for k, p in zip(rng.choice(len(family), 24, replace=False), rng.integers(39, size=24)):
        mech = family[k]
        a, z = (float(v[p]) for v in _scan_grid(mech, 40))
        hockey, lower_sets = mp_hockey_stick(mech, a, z, dps=50), mp_pair_delta(mech, a, z)[0]
        assert abs(hockey - lower_sets) <= 1e-20 * lower_sets + 1e-45, (mech, a, hockey)
        margin = worst_interval_margin(mech, np.array([a]), np.array([z]))[0]
        assert abs(margin - float(hockey)) <= 1e-9 * float(hockey) + 1e-14, (mech, a, margin)
        positive += hockey > 1e-12
    assert positive > 0


def test_kernel_sees_a_worst_set_narrower_than_an_ulp_of_the_edges():
    # the pair (1e6, 1e6 + 1e-7) at eps 35: its worst set ends 1.0e-10
    # above q, under an ulp of 1e6, and its exact delta is 1.14e-3
    domain, budget = OutputDomain(1e6, 1e6 + 1e-3, 1e-7), PrivacyBudget(35.0)
    mech = CalibratedMechanism(domain, budget, scales(domain, budget, (0.9,))[0])
    a, z = _scan_grid(mech, 4)
    margin, p, t = worst_interval_margin(mech, a, z)
    exact, t_exact = mp_pair_delta(mech, a[p], z[p])
    assert (a[p], z[p], float(exact)) == (0.0, 1e-7, pytest.approx(1.14e-3, rel=1e-3))
    assert 0.0 < t_exact - domain.lower < math.ulp(domain.lower)
    assert margin == pytest.approx(float(exact), rel=1e-9, abs=0.0)


def test_kernel_margins_are_zero_exactly_where_the_worst_set_is_empty():
    # kappa = lambda + z/b - eps: each pair's delta is exactly 0 where kappa
    # <= 0, and positive elsewhere, as the crossing then lies in (q, q']
    empty = 0
    for mech in problems(NEAR_DOMAINS + ((1e6, 1e6 + 1e-3),), (1e-4, 0.1, 0.9),
                         (0.01, 1.0, 35.0, 1000.0), (0.0, 0.9, 0.99, 1.0)):
        b = mech.scale
        a, z = _scan_grid(mech, 12)
        kappa = _log_shift_ratio(mech.domain.width, b, a, z) + z / b - mech.budget.epsilon
        for k in range(a.size):
            margin = worst_interval_margin(mech, a[k:k + 1], z[k:k + 1])[0]
            assert (margin == 0.0) == (kappa[k] <= 0.0) and margin >= 0.0, (mech, k, margin)
            empty += kappa[k] <= 0.0
    assert 0 < empty


def set_grid_worst_margin(mech, a, z, set_grid):
    # the check's search before the closed form, on the domain moved to
    # lower = 0: query a[r] has the equal-mass set grid quantile(a[r], k /
    # (set_grid - 1)), its partner is the farthest double at most z[r] above
    # it, and the best lower set [0, x_k], k >= 1, over all pairs is returned
    d = mech.domain
    moved = CalibratedMechanism(OutputDomain(0.0, d.width, d.sensitivity), mech.budget,
                                mech.scale)
    partners = np.minimum(a + z, d.width)
    partners = np.where(partners - a > z, np.nextafter(partners, a), partners)
    xs = moved.quantile(a[:, None], np.arange(set_grid) / (set_grid - 1))
    margins = (moved.cdf(a[:, None], xs)
               - math.exp(mech.budget.epsilon) * moved.cdf(partners[:, None], xs))
    return float(np.max(margins[:, 1:]))


def test_kernel_is_never_below_the_set_grid_scan():
    # a grid set is one lower set, so the exact worst set's margin is never
    # below the best grid set's, on any domain
    fails = 0
    for mech in problems(NEAR_DOMAINS + ((1e6, 1e6 + 1e-3),), (1e-4, 1e-2, 0.5, 1.0),
                         (0.01, 1.0, 5.0, 30.0, 50.0), (0.0, 0.9, 1.0)):
        a, z = _scan_grid(mech, 40)
        grid = set_grid_worst_margin(mech, a, z, 40)
        closed = worst_interval_margin(mech, a, z)[0]
        assert closed >= grid, (mech, closed, grid)
        fails += grid - mech.budget.delta > PRIVACY_SLACK
    assert fails > 0


def test_kernel_matches_per_pair_evaluation_bitwise():
    # the pairs at once, in row order and shuffled, give the first strict
    # maximum of the pairs taken one at a time, bit for bit
    rng = np.random.default_rng(6)
    for mech in problems(NEAR_DOMAINS, (1e-2, 0.5), (1.0, 30.0), (0.0, 0.9)):
        a, z = _scan_grid(mech, 30)
        for order in (np.arange(a.size), rng.permutation(a.size)):
            best = (-math.inf, None, None)
            for pos, k in enumerate(order):
                margin, _, t = worst_interval_margin(mech, a[k:k + 1], z[k:k + 1])
                if margin > best[0]:
                    best = (margin, pos, t)
            assert worst_interval_margin(mech, a[order], z[order]) == best


def test_ties_resolve_to_lexicographically_first_witness():
    # above b_star every pair's worst set is empty: kappa is 0, so every
    # margin is exactly 0 and the first pair wins at t = lower
    for lower, upper in NEAR_DOMAINS + ((1e6, 1e6 + 1e-3),):
        for frac in (1e-4, 0.5, 0.9):
            domain = OutputDomain(lower, upper, frac * (upper - lower))
            for eps in (0.01, 1.0, 50.0):
                b = 2.0 * calibrate(domain, PrivacyBudget(eps)).b_star
                mech = CalibratedMechanism(domain, PrivacyBudget(eps), b)
                a, z = _scan_grid(mech, 50)
                assert worst_interval_margin(mech, a, z) == (0.0, 0, lower)
    # the witness [lower, lower] is a null set: the CDFs are exactly 0 at
    # lower at scales from 1e-9 to 1e12 widths, for queries across the domain
    for domain in (OutputDomain(0.0, 1.0, 0.5), OutputDomain(-4.0, -1.0, 1.2),
                   OutputDomain(-9.993759296579928, -9.784134590603939, 0.1048123529879943)):
        qs = np.linspace(domain.lower, domain.upper, 101)
        for ratio in 10.0 ** np.arange(-9.0, 13.0):
            mech = CalibratedMechanism(domain, PrivacyBudget(1.0), ratio * domain.width)
            assert not mech.cdf(qs, domain.lower).any(), (domain, ratio)


def test_ties_across_many_pairs_resolve_to_first_pair():
    domain, budget = OutputDomain(0.0, 1.0, 0.1), PrivacyBudget(1.0)
    for b in (baseline_scale(domain, budget), calibrate(domain, budget).b_star):
        mech = CalibratedMechanism(domain, budget, b)
        a, z = _scan_grid(mech, 40)
        # 100,000 pairs, the same few repeated: every winning margin ties with
        # a copy of it far down the pair axis, and the first copy must win
        reps = 100_000 // a.size + 1
        got = worst_interval_margin(mech, np.tile(a, reps), np.tile(z, reps))
        assert got == worst_interval_margin(mech, a, z)


def test_numpy_scan_memory_is_linear_in_pairs():
    domain = OutputDomain(0.0, 1.0, 0.5)
    budget = PrivacyBudget(1.0, 0.0)
    mech = CalibratedMechanism(domain, budget, baseline_scale(domain, budget))
    a, z = _scan_grid(mech, 200)
    assert a.size == 199
    for reps in (1, 16):
        tiled_a, tiled_z = np.tile(a, reps), np.tile(z, reps)
        tracemalloc.start()
        try:
            worst_interval_margin(mech, tiled_a, tiled_z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few arrays of one value per pair, nothing per set
        assert peak < 48 * tiled_a.nbytes, (reps, peak)
