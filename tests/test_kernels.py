import math
import tracemalloc

import numpy as np
import pytest

from bounded_laplace import CalibratedMechanism, OutputDomain, PrivacyBudget, calibrate
from bounded_laplace._kernels import (
    active_backend,
    available_backends,
    worst_interval_margin,
)


HAS_NUMBA = "numba" in available_backends()

needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


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


def brute_force_two(cdf, pair_a, pair_b, amp):
    best = -np.inf
    m = cdf.shape[1]
    for p in range(len(pair_a)):
        fa, fb = cdf[pair_a[p]], cdf[pair_b[p]]
        for i1 in range(m - 1):
            for j1 in range(i1 + 1, m):
                v1 = (fa[j1] - fa[i1]) - amp * (fb[j1] - fb[i1])
                best = max(best, v1)
                for i2 in range(j1, m - 1):
                    for j2 in range(i2 + 1, m):
                        v2 = (fa[j2] - fa[i2]) - amp * (fb[j2] - fb[i2])
                        best = max(best, v1 + v2)
    return best


def test_backend_env_selection(monkeypatch):
    monkeypatch.setenv("BOUNDED_LAPLACE_BACKEND", "numpy")
    assert active_backend() == "numpy"
    monkeypatch.setenv("BOUNDED_LAPLACE_BACKEND", "auto")
    assert active_backend() == ("numba" if HAS_NUMBA else "numpy")
    monkeypatch.delenv("BOUNDED_LAPLACE_BACKEND", raising=False)
    assert active_backend() == ("numba" if HAS_NUMBA else "numpy")
    monkeypatch.setenv("BOUNDED_LAPLACE_BACKEND", "vulkan")
    with pytest.raises(ValueError):
        active_backend()


def test_backend_numba_forced_without_numba(monkeypatch):
    monkeypatch.setenv("BOUNDED_LAPLACE_BACKEND", "numba")
    if HAS_NUMBA:
        assert active_backend() == "numba"
    else:
        with pytest.raises(RuntimeError):
            active_backend()


def test_numpy_kernel_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(10):
        cdf, pa, pb, amp = random_case(rng)
        expected, (ep, ei, ej) = brute_force_single(cdf, pa, pb, amp)
        got, p, intervals = worst_interval_margin(cdf, pa, pb, amp, backend="numpy")
        assert got == pytest.approx(expected, abs=1e-12)
        # oracle uses a different float grouping, so compare margins, not indices
        d = cdf[pa[p]] - amp * cdf[pb[p]]
        (i, j), = intervals
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
            assert worst_interval_margin(
                cdf, pa[order], pb[order], amp, backend="numpy") == (
                best, p, ((i, j),))


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
        got = worst_interval_margin(cdf, pa, pb, amp, backend="numpy")
        assert got == (expected, ep, ((ei, ej),))
    # the cases exercise ties both across pairs and within the winning pair
    assert tied_pairs > 0 and tied_intervals > 0


def test_ties_across_chunks_resolve_to_first_pair():
    cdf, pa, pb, amp = quantised_case(np.random.default_rng(8))
    expected, (ep, ei, ej) = brute_force_single(cdf, pa, pb, amp)
    # enough repeats of the same pairs that the scan takes several chunks
    reps = 40_000
    got = worst_interval_margin(cdf, np.tile(pa, reps), np.tile(pb, reps), amp,
                                backend="numpy")
    assert got == (expected, ep, ((ei, ej),))


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
        worst_interval_margin(cdf, pa, pb, math.e, backend="numpy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few length-pairs vectors and one copy of the table; a pairs x grid
    # matrix alone would take 47.8 MB
    assert peak < 8e6


@needs_numba
def test_backends_agree_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(5):
        cdf, pa, pb, amp = random_case(rng, n_rows=9, m=23)
        got_np = worst_interval_margin(cdf, pa, pb, amp, backend="numpy")
        got_nb = worst_interval_margin(cdf, pa, pb, amp, backend="numba")
        assert got_np == got_nb


@needs_numba
def test_backends_agree_bitwise_two_intervals():
    rng = np.random.default_rng(2)
    for _ in range(5):
        cdf, pa, pb, amp = random_case(rng, n_rows=6, m=17)
        got_np = worst_interval_margin(cdf, pa, pb, amp, backend="numpy",
                                       two_intervals=True)
        got_nb = worst_interval_margin(cdf, pa, pb, amp, backend="numba",
                                       two_intervals=True)
        assert got_np[0] == got_nb[0]
        assert got_np[1] == got_nb[1]


def test_two_interval_scan_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(6):
        cdf, pa, pb, amp = random_case(rng, n_rows=4, m=9)
        expected = brute_force_two(cdf, pa, pb, amp)
        got, p, intervals = worst_interval_margin(cdf, pa, pb, amp,
                                                  backend="numpy",
                                                  two_intervals=True)
        assert got == pytest.approx(expected, abs=1e-12)
        # reported intervals reproduce the reported margin
        d = cdf[pa[p]] - amp * cdf[pb[p]]
        total = sum(d[j] - d[i] for i, j in intervals)
        assert total == pytest.approx(got, abs=1e-12)


def test_two_interval_never_below_single():
    rng = np.random.default_rng(4)
    for _ in range(6):
        cdf, pa, pb, amp = random_case(rng)
        single = worst_interval_margin(cdf, pa, pb, amp, backend="numpy")[0]
        double = worst_interval_margin(cdf, pa, pb, amp, backend="numpy",
                                       two_intervals=True)[0]
        assert double >= single - 1e-15


def test_kernel_input_validation():
    cdf = np.array([[0.0, 1.0]])
    with pytest.raises(ValueError):
        worst_interval_margin(cdf, np.array([0]), np.array([1]), 1.0,
                              backend="numpy")  # pair index out of range
    with pytest.raises(ValueError):
        worst_interval_margin(cdf, np.array([], dtype=int),
                              np.array([], dtype=int), 1.0, backend="numpy")
    with pytest.raises(ValueError):
        worst_interval_margin(cdf, np.array([0]), np.array([0]), 1.0,
                              backend="fortran")
