#!/usr/bin/env python3
"""Benchmark the privacy-scan kernel.

For every admissible query pair the scan finds the worst grid interval with
a running minimum, streamed over the grid columns, so its work grows like
(pairs x grid points) and its memory like pairs.  For each grid size this
script prints the best time over a few calls and the peak memory that
``tracemalloc`` traced during one further call.  Run after `pip install -e .`:

    python benchmarks/bench_margin_kernel.py --grids 60 100 160 200
"""

import argparse
import math
import time
import tracemalloc

import numpy as np

from bounded_laplace import CalibratedMechanism, OutputDomain, PrivacyBudget, calibrate
from bounded_laplace._kernels import worst_interval_margin


def build_case(grid):
    domain = OutputDomain(0.0, 1.0, 0.5)
    budget = PrivacyBudget(1.0, 0.0)
    mech = CalibratedMechanism(domain, budget, calibrate(domain, budget).b_star)
    qs = np.linspace(domain.lower, domain.upper, grid)
    xs = np.linspace(domain.lower, domain.upper, grid)
    cdf = mech.cdf(qs[:, None], xs[None, :])
    pa, pb = np.nonzero(np.abs(qs[:, None] - qs[None, :]) <= domain.sensitivity)
    return cdf, pa, pb, math.exp(budget.epsilon)


def best_time(case, repeats):
    result = worst_interval_margin(*case)  # warm-up
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        got = worst_interval_margin(*case)
        best = min(best, time.perf_counter() - t0)
        assert got == result
    return best


def peak_traced_mb(case):
    tracemalloc.start()
    try:
        worst_interval_margin(*case)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grids", type=int, nargs="+", default=[60, 100, 160, 200])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(f"{'grid':>6} {'pairs':>8} {'intervals':>10} {'time [s]':>10} {'peak [MB]':>10}")
    for grid in args.grids:
        case = build_case(grid)
        n_pairs = case[1].size
        n_intervals = grid * (grid - 1) // 2
        print(f"{grid:>6} {n_pairs:>8} {n_intervals:>10} "
              f"{best_time(case, args.repeats):>10.4f} {peak_traced_mb(case):>10.1f}")


if __name__ == "__main__":
    main()
