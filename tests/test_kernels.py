import math
import tracemalloc

import numpy as np
import pytest

from bounded_laplace import CalibratedMechanism, OutputDomain, PrivacyBudget, calibrate
from bounded_laplace._kernels import worst_interval_margin
from helpers import brute_force_two, two_interval_margin


def random_case(rng, n_rows=7, m=12):
    # rows resemble CDFs: increasing from 0 to 1
    cdf = np.sort(rng.random((n_rows, m)), axis=1)
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    pair_a, pair_b = np.nonzero(np.ones((n_rows, n_rows), dtype=bool))
    amp = float(np.exp(rng.uniform(0.0, 2.0)))
    return cdf, pair_a, pair_b, amp


def brute_force_single(cdf, pair_a, pair_b, amp):
    """Independent oracle: interval probabilities taken as explicit differences."""
    best, where = -np.inf, None
    m = cdf.shape[1]
    for p in range(len(pair_a)):
        fa, fb = cdf[pair_a[p]], cdf[pair_b[p]]
        for i in range(m - 1):
            for j in range(i + 1, m):
                v = (fa[j] - fa[i]) - amp * (fb[j] - fb[i])
                if v > best:
                    best, where = v, (p, i, j)
    return best, where


def quadratic_single(cdf, pair_a, pair_b, amp):
    """Every interval in the kernel's float grouping, ``d[j] - d[i]`` with
    ``d = F_q - amp * F_q'``; the first strict maximum in ``(p, i, j)`` order
    wins."""
    best, where = -np.inf, None
    m = cdf.shape[1]
    for p in range(len(pair_a)):
        d = cdf[pair_a[p]] - amp * cdf[pair_b[p]]
        for i in range(m - 1):
            for j in range(i + 1, m):
                if d[j] - d[i] > best:
                    best, where = d[j] - d[i], (p, i, j)
    return best, where


def quantised_case(rng, n_rows=5, m=8):
    # CDF rows on multiples of 1/4 and amp in {1, 2}: every margin is exact
    # in any float grouping, so equal margins tie exactly
    cdf = np.sort(rng.integers(0, 5, (n_rows, m)), axis=1) / 4.0
    cdf[:, 0] = 0.0
    cdf[:, -1] = 1.0
    pair_a, pair_b = np.nonzero(np.ones((n_rows, n_rows), dtype=bool))
    return cdf, pair_a, pair_b, float(rng.choice([1.0, 2.0]))


def test_numpy_kernel_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cdf, pa, pb, amp = random_case(rng)
        expected, (ep, ei, ej) = brute_force_single(cdf, pa, pb, amp)
        got, p, i, j = worst_interval_margin(cdf, pa, pb, amp)
        assert got == pytest.approx(expected, abs=1e-12)
        # oracle uses a different float grouping, so compare margins, not indices
        d = cdf[pa[p]] - amp * cdf[pb[p]]
        assert d[j] - d[i] == got


def test_numpy_kernel_matches_quadratic_scan_bitwise():
    rng = np.random.default_rng(6)
    for _ in range(10):
        cdf, pa, pb, amp = random_case(rng)
        # pairs in row order; shuffled, so not sorted by row; and the pairs
        # (q, q) alone, where d = (1 - amp) F_q makes every margin negative
        diagonal = np.flatnonzero(pa == pb)
        for order in (np.arange(pa.size), rng.permutation(pa.size), diagonal):
            best, (p, i, j) = quadratic_single(cdf, pa[order], pb[order], amp)
            assert worst_interval_margin(cdf, pa[order], pb[order], amp) == (
                best, p, i, j)


def test_ties_resolve_to_lexicographically_first_witness():
    rng = np.random.default_rng(5)
    tied_pairs = tied_intervals = 0
    for _ in range(20):
        cdf, pa, pb, amp = quantised_case(rng)
        expected, (ep, ei, ej) = brute_force_single(cdf, pa, pb, amp)
        m = cdf.shape[1]
        ties = [(p, i, j)
                for p in range(len(pa))
                for i in range(m - 1)
                for j in range(i + 1, m)
                if (cdf[pa[p], j] - cdf[pa[p], i])
                - amp * (cdf[pb[p], j] - cdf[pb[p], i]) == expected]
        tied_pairs += any(p != ep for p, _, _ in ties)
        tied_intervals += any(p == ep and (i, j) != (ei, ej) for p, i, j in ties)
        got = worst_interval_margin(cdf, pa, pb, amp)
        assert got == (expected, ep, ei, ej)
    # the cases exercise ties both across pairs and within the winning pair
    assert tied_pairs > 0 and tied_intervals > 0


def test_ties_across_many_pairs_resolve_to_first_pair():
    cdf, pa, pb, amp = quantised_case(np.random.default_rng(8))
    expected, (ep, ei, ej) = brute_force_single(cdf, pa, pb, amp)
    # 1e6 pairs, the same few repeated: every winning margin ties with a copy
    # of it far down the pair axis, and the first copy must win
    reps = 40_000
    got = worst_interval_margin(cdf, np.tile(pa, reps), np.tile(pb, reps), amp)
    assert got == (expected, ep, ei, ej)


def test_numpy_scan_memory_is_linear_in_pairs():
    domain = OutputDomain(0.0, 1.0, 0.5)
    budget = PrivacyBudget(1.0, 0.0)
    mech = CalibratedMechanism(domain, budget, calibrate(domain, budget).b_star)
    grid = np.linspace(0.0, 1.0, 200)
    cdf = mech.cdf(grid[:, None], grid[None, :])
    pa, pb = np.nonzero(np.abs(grid[:, None] - grid[None, :]) <= 0.5)
    assert pa.size == 29_900
    tracemalloc.start()
    try:
        worst_interval_margin(cdf, pa, pb, math.e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few length-pairs vectors and one copy of the table; a pairs x grid
    # matrix alone would take 47.8 MB
    assert peak < 8e6


def test_two_interval_oracle_matches_brute_force():
    # random rows need not have monotone likelihood ratios, so a union of
    # two intervals can beat the best single one; the oracle must find it
    rng = np.random.default_rng(3)
    gaps = 0
    for _ in range(6):
        cdf, pa, pb, amp = random_case(rng, n_rows=4, m=9)
        single = worst_interval_margin(cdf, pa, pb, amp)[0]
        double = two_interval_margin(cdf, pa, pb, amp)[0]
        assert max(single, double) == pytest.approx(
            brute_force_two(cdf, pa, pb, amp), abs=1e-12)
        gaps += double > single + 1e-3
    assert gaps > 0


def test_kernel_input_validation():
    cdf = np.array([[0.0, 1.0]])
    with pytest.raises(ValueError):  # pair index out of range
        worst_interval_margin(cdf, np.array([0]), np.array([1]), 1.0)
    with pytest.raises(ValueError):
        worst_interval_margin(cdf, np.array([], dtype=int),
                              np.array([], dtype=int), 1.0)
