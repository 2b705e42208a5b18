import math
import tracemalloc

import numpy as np
import pytest

from bounded_laplace import CalibratedMechanism, OutputDomain, PrivacyBudget, calibrate
from bounded_laplace._kernels import worst_interval_margin
from bounded_laplace.verification import _scan_grid
from helpers import brute_force_two, two_interval_margin


def cdf_rows(rng, n_rows, m):
    # rows resemble CDFs: increasing from 0 to 1
    rows = np.sort(rng.random((n_rows, m)), axis=1)
    rows[:, 0] = 0.0
    rows[:, -1] = 1.0
    return rows


def random_case(rng, n_rows=7, m=12):
    # every ordered pair of the rows, as the pair tables of the scan
    table = cdf_rows(rng, n_rows, m)
    pair_a, pair_b = np.nonzero(np.ones((n_rows, n_rows), dtype=bool))
    amp = float(np.exp(rng.uniform(0.0, 2.0)))
    return table[pair_a], table[pair_b], amp


def brute_force_single(rows_q, rows_q_prime, amp):
    """Independent oracle: interval probabilities taken as explicit differences."""
    best, where = -np.inf, None
    m = rows_q.shape[1]
    for p, (fa, fb) in enumerate(zip(rows_q, rows_q_prime)):
        for i in range(m - 1):
            for j in range(i + 1, m):
                v = (fa[j] - fa[i]) - amp * (fb[j] - fb[i])
                if v > best:
                    best, where = v, (p, i, j)
    return best, where


def quadratic_single(rows_q, rows_q_prime, amp):
    """Every interval in the kernel's float grouping, ``d[j] - d[i]`` with
    ``d = F_q - amp * F_q'``; the first strict maximum in ``(p, i, j)`` order
    wins."""
    best, where = -np.inf, None
    m = rows_q.shape[1]
    for p, (fa, fb) in enumerate(zip(rows_q, rows_q_prime)):
        d = fa - amp * fb
        for i in range(m - 1):
            for j in range(i + 1, m):
                if d[j] - d[i] > best:
                    best, where = d[j] - d[i], (p, i, j)
    return best, where


def quantised_case(rng, n_rows=5, m=8):
    # CDF rows on multiples of 1/4 and amp in {1, 2}: every margin is exact
    # in any float grouping, so equal margins tie exactly
    table = np.sort(rng.integers(0, 5, (n_rows, m)), axis=1) / 4.0
    table[:, 0] = 0.0
    table[:, -1] = 1.0
    pair_a, pair_b = np.nonzero(np.ones((n_rows, n_rows), dtype=bool))
    return table[pair_a], table[pair_b], float(rng.choice([1.0, 2.0]))


def test_numpy_kernel_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f, g, amp = random_case(rng)
        expected, _ = brute_force_single(f, g, amp)
        got, p, i, j = worst_interval_margin(f, g, amp)
        assert got == pytest.approx(expected, abs=1e-12)
        # oracle uses a different float grouping, so compare margins, not indices
        d = f[p] - amp * g[p]
        assert d[j] - d[i] == got


def test_numpy_kernel_matches_quadratic_scan_bitwise():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f, g, amp = random_case(rng)
        # pairs in row order; shuffled; and the pairs (q, q) alone, where
        # d = (1 - amp) F_q makes every margin negative
        same = np.flatnonzero((f == g).all(axis=1))
        for order in (np.arange(len(f)), rng.permutation(len(f)), same):
            best, (p, i, j) = quadratic_single(f[order], g[order], amp)
            assert worst_interval_margin(f[order], g[order], amp) == (best, p, i, j)


def test_ties_resolve_to_lexicographically_first_witness():
    rng = np.random.default_rng(5)
    tied_pairs = tied_intervals = 0
    for _ in range(20):
        f, g, amp = quantised_case(rng)
        expected, (ep, ei, ej) = brute_force_single(f, g, amp)
        m = f.shape[1]
        ties = [(p, i, j)
                for p in range(len(f))
                for i in range(m - 1)
                for j in range(i + 1, m)
                if (f[p, j] - f[p, i]) - amp * (g[p, j] - g[p, i]) == expected]
        tied_pairs += any(p != ep for p, _, _ in ties)
        tied_intervals += any(p == ep and (i, j) != (ei, ej) for p, i, j in ties)
        assert worst_interval_margin(f, g, amp) == (expected, ep, ei, ej)
    # the cases exercise ties both across pairs and within the winning pair
    assert tied_pairs > 0 and tied_intervals > 0


def test_ties_across_many_pairs_resolve_to_first_pair():
    f, g, amp = quantised_case(np.random.default_rng(8))
    expected, (ep, ei, ej) = brute_force_single(f, g, amp)
    # 100,000 pairs, the same few repeated: every winning margin ties with a
    # copy of it far down the pair axis, and the first copy must win
    reps = 4_000
    got = worst_interval_margin(np.tile(f, (reps, 1)), np.tile(g, (reps, 1)), amp)
    assert got == (expected, ep, ei, ej)


def test_numpy_scan_memory_is_linear_in_pairs():
    domain = OutputDomain(0.0, 1.0, 0.5)
    budget = PrivacyBudget(1.0, 0.0)
    mech = CalibratedMechanism(domain, budget, calibrate(domain, budget).b_star)
    (_, _, _, f, g), _ = _scan_grid(mech, 200, 200)
    assert f.shape == (199, 200)
    for reps in (1, 4):
        rows_q, rows_q_prime = np.tile(f, (reps, 1)), np.tile(g, (reps, 1))
        tracemalloc.start()
        try:
            worst_interval_margin(rows_q, rows_q_prime, math.e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the difference table and its running minimum, no copy of the inputs
        assert peak < 2.5 * rows_q.nbytes


def test_two_interval_oracle_matches_brute_force():
    # random rows need not have monotone likelihood ratios, so a union of
    # two intervals can beat the best single one; the oracle must find it
    rng = np.random.default_rng(3)
    gaps = 0
    for _ in range(6):
        f, g, amp = random_case(rng, n_rows=4, m=9)
        single = worst_interval_margin(f, g, amp)[0]
        double = two_interval_margin(f, g, amp)[0]
        assert max(single, double) == pytest.approx(brute_force_two(f, g, amp), abs=1e-12)
        gaps += double > single + 1e-3
    assert gaps > 0


def test_kernel_input_validation():
    row = np.array([[0.0, 1.0]])
    for f, g in ((row, np.array([[0.0, 0.5, 1.0]])),  # unequal shapes
                 (np.empty((0, 2)), np.empty((0, 2))),  # no pair
                 (np.array([[0.0]]), np.array([[0.0]])),  # one grid column
                 (np.array([0.0, 1.0]), np.array([0.0, 1.0]))):  # not 2-d
        with pytest.raises(ValueError):
            worst_interval_margin(f, g, 1.0)
