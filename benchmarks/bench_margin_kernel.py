#!/usr/bin/env python3
"""Benchmark the privacy-scan kernel on each available backend.

For every admissible query pair the scan finds the worst grid interval.  The
numpy backend does it with a running minimum, streamed over the grid
columns, so its work grows like (pairs x grid points) and its memory like
pairs; the numba backend loops over every interval, so its work grows like
(pairs x intervals).  This script times each available backend on the same
inputs, checks that they agree, and reports the speedup when both are
present.  Next to each time it reports the peak memory that ``tracemalloc``
traced during one further call; numpy reports its buffers to it, numba's
compiled code may not.  Run after `pip install -e .`:

    python benchmarks/bench_margin_kernel.py --grids 60 100 160 200
"""

import argparse
import math
import time
import tracemalloc

import numpy as np

from bounded_laplace import CalibratedMechanism, OutputDomain, PrivacyBudget, calibrate
from bounded_laplace._kernels import available_backends, worst_interval_margin


def build_case(grid):
    domain = OutputDomain(0.0, 1.0, 0.5)
    budget = PrivacyBudget(1.0, 0.0)
    mech = CalibratedMechanism(domain, budget, calibrate(domain, budget).b_star)
    qs = np.linspace(domain.lower, domain.upper, grid)
    xs = np.linspace(domain.lower, domain.upper, grid)
    cdf = mech.cdf(qs[:, None], xs[None, :])
    pa, pb = np.nonzero(np.abs(qs[:, None] - qs[None, :]) <= domain.sensitivity)
    return cdf, pa, pb, math.exp(budget.epsilon)


def best_time(backend, case, repeats):
    cdf, pa, pb, amp = case
    result = worst_interval_margin(cdf, pa, pb, amp, backend=backend)  # warm-up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        got = worst_interval_margin(cdf, pa, pb, amp, backend=backend)
        best = min(best, time.perf_counter() - t0)
        assert got == result
    return best, result


def peak_traced_mb(backend, case):
    cdf, pa, pb, amp = case
    tracemalloc.start()
    try:
        worst_interval_margin(cdf, pa, pb, amp, backend=backend)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", type=int, nargs="+", default=[60, 100, 160, 200])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    backends = available_backends()
    print(f"available backends: {', '.join(backends)}")
    header = f"{'grid':>6} {'pairs':>8} {'intervals':>10}"
    for b in backends:
        header += f" {b + ' [s]':>12} {b + ' [MB]':>12}"
    if len(backends) == 2:
        header += f" {'speedup':>9}"
    print(header)

    for grid in args.grids:
        case = build_case(grid)
        n_pairs = case[1].size
        n_intervals = grid * (grid - 1) // 2
        row = f"{grid:>6} {n_pairs:>8} {n_intervals:>10}"
        times = {}
        margins = {}
        for backend in backends:
            times[backend], margins[backend] = best_time(backend, case, args.repeats)
            row += f" {times[backend]:>12.4f} {peak_traced_mb(backend, case):>12.1f}"
        if len(backends) == 2:
            row += f" {times['numpy'] / times['numba']:>8.1f}x"
            assert margins["numba"] == margins["numpy"], "backends disagree"
        print(row)


if __name__ == "__main__":
    main()
