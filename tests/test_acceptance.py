"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints an ``ACCEPTANCE <n> ...: PASS/FAIL`` line (visible with
``pytest -s``) and records its runtime against the stated budget.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from bounded_laplace import (
    CalibratedMechanism,
    OutputDomain,
    PrivacyBudget,
    baseline_scale,
    calibrate,
    check_fixed_point_properties,
    check_privacy_inequality,
    check_ratio_monotonicity,
    epsilon_ratio_grid,
    default_sweep_grid,
    fixed_point_operator,
    normalizer,
    normalizer_ratio,
)
from helpers import damped_fixed_point, random_problem


def _report(criterion, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.3f}s / budget {budget}s)")
    assert not failures, failures
    assert elapsed < budget, f"runtime {elapsed:.3f}s exceeded budget {budget}s"


def _criterion_tuples(count=200):
    rng = np.random.default_rng(20240611)
    return [random_problem(rng) for _ in range(count)]


def test_criterion_1_boundary_equality():
    domain = OutputDomain(0.0, 1.0, 1.0)
    budget = PrivacyBudget(1.0, 0.0)
    calibrate(domain, budget)  # warm the code path before timing
    t0 = time.perf_counter()
    report = calibrate(domain, budget)
    elapsed = time.perf_counter() - t0
    failures = []
    if abs(report.b_star - 1.0) > 1e-14:
        failures.append(f"b_star = {report.b_star!r}")
    if abs(report.b0 - 1.0) > 1e-14:
        failures.append(f"b0 = {report.b0!r}")
    if abs(report.f_b0 - 1.0) > 1e-14:
        failures.append(f"f_b0 = {report.f_b0!r}")
    _report("1 boundary equality", failures, elapsed, 1e-3)


def test_criterion_2_fixed_point_correctness():
    failures = []
    t0 = time.perf_counter()
    for k, (domain, budget) in enumerate(_criterion_tuples(200)):
        report = calibrate(domain, budget)
        if not report.b0 <= report.b_star <= report.f_b0:
            failures.append(f"tuple {k}: bracket violated")
        f_star = fixed_point_operator(domain, budget, report.b_star)
        if abs(f_star - report.b_star) > 1e-12:
            failures.append(f"tuple {k}: residual {abs(f_star - report.b_star):.3e}")
        condition = (budget.epsilon
                     - domain.sensitivity / report.b_star
                     - math.log(normalizer_ratio(domain, report.b_star))
                     - math.log1p(-budget.delta))
        if abs(condition) > 1e-9:
            failures.append(f"tuple {k}: privacy condition off by {condition:.3e}")
        oracle = damped_fixed_point(domain, budget)
        if abs(report.b_star - oracle) > 1e-10 * max(1.0, report.b_star):
            failures.append(f"tuple {k}: oracle disagrees by "
                            f"{abs(report.b_star - oracle):.3e}")
    elapsed = time.perf_counter() - t0
    _report("2 fixed-point correctness (200 tuples)", failures, elapsed, 5.0)


def test_criterion_3_non_guarantee_reproduction():
    grids = {"q_grid": 200, "set_grid": 200}
    budget = PrivacyBudget(1.0, 0.0)
    failures = []
    t0 = time.perf_counter()
    for frac in (0.1, 0.5, 0.9):
        domain = OutputDomain(0.0, 1.0, frac)
        b0 = baseline_scale(domain, budget)
        bad = check_privacy_inequality(
            CalibratedMechanism(domain, budget, b0), **grids)
        if bad.worst_margin <= 1e-6:
            failures.append(f"frac {frac}: no violation at baseline "
                            f"(margin {bad.worst_margin:.3e})")
        b_star = calibrate(domain, budget).b_star
        good = check_privacy_inequality(
            CalibratedMechanism(domain, budget, b_star), **grids)
        if good.worst_margin > 1e-9:
            failures.append(f"frac {frac}: violation at calibrated scale "
                            f"(margin {good.worst_margin:.3e})")
    elapsed = time.perf_counter() - t0
    _report("3 non-guarantee at baseline scale (200x200 grids)", failures,
            elapsed, 30.0)


def test_criterion_4_property_suite():
    rng = np.random.default_rng(7117)
    failures = []
    t0 = time.perf_counter()
    for k in range(50):
        spans = k % 10 == 0
        domain, budget = random_problem(
            rng, span_fraction=1.0 if spans else rng.uniform(0.05, 0.95))
        b = domain.width * 10 ** rng.uniform(-1.0, 1.0)
        mono = check_ratio_monotonicity(domain, b)
        if not mono.passed:
            failures.append(f"config {k}: ratio monotonicity ({mono.witness})")
        props = check_fixed_point_properties(domain, budget)
        if not props.passed:
            failures.append(f"config {k}: fixed-point properties ({props.witness})")
        w = props.witness
        if spans:
            if w["relative_gap"] != 0.0 or w["worst_f_slope"] != 0.0:
                failures.append(f"config {k}: degenerate case not exactly flat")
        else:
            if not (w["relative_gap"] > 0.0 and w["worst_f_slope"] < 0.0
                    and w["worst_ratio_slope"] < 0.0):
                failures.append(f"config {k}: strictness lost away from "
                                f"full-width sensitivity")
    elapsed = time.perf_counter() - t0
    _report("4 monotonicity and bracket properties (50 configs)", failures, elapsed, 10.0)


def test_criterion_5_budget_inflation_sweep():
    sens, eps = default_sweep_grid()
    t0 = time.perf_counter()
    cells = epsilon_ratio_grid(1.0, sens, eps)
    elapsed = time.perf_counter() - t0
    failures = []
    if len(cells) != 2500:
        failures.append(f"expected 2500 cells, got {len(cells)}")
    for cell in cells:
        if cell.error is not None or not 1.0 <= cell.ratio < 2.0:
            failures.append(f"cell ({cell.sensitivity}, {cell.epsilon}): "
                            f"ratio {cell.ratio} error {cell.error}")
            break
    full = [c for c in cells if c.sensitivity == 1.0]
    if not full or any(c.ratio != 1.0 for c in full):
        failures.append("ratio != 1 at full-width sensitivity")
    corner = min(cells, key=lambda c: (c.sensitivity, c.epsilon))
    if not (corner.sensitivity == pytest.approx(1e-3, rel=1e-9)
            and corner.epsilon == pytest.approx(1e-2, rel=1e-9)):
        failures.append("corner cell missing from default grid")
    elif corner.ratio <= 1.9:
        failures.append(f"corner ratio {corner.ratio} not approaching 2")
    _report("5 budget-inflation sweep (50x50)", failures, elapsed, 60.0)


def test_criterion_6_sampler_fidelity():
    domain = OutputDomain(0.0, 1.0, 0.5)
    budget = PrivacyBudget(1.0, 0.0)
    mech = CalibratedMechanism(domain, budget, calibrate(domain, budget).b_star)
    q = 0.3
    failures = []
    t0 = time.perf_counter()
    inv = mech.sample_inverse(q, np.random.default_rng(606), size=100_000)
    if not np.all((inv >= 0.0) & (inv <= 1.0)):
        failures.append("inverse sampler left the domain")
    ks = stats.kstest(inv, lambda x: mech.cdf(q, x))
    if ks.pvalue <= 0.01:
        failures.append(f"KS rejected inverse sampler (p={ks.pvalue:.4f})")
    values, draws = mech.sample_rejection(q, np.random.default_rng(607),
                                          size=100_000)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        failures.append("rejection sampler left the domain")
    c = normalizer(domain, q, mech.scale)
    se = math.sqrt((1.0 - c) / c**2 / draws.size)
    if abs(draws.mean() - 1.0 / c) > 3.0 * se:
        failures.append(f"draw count mean {draws.mean():.4f} vs {1.0 / c:.4f}")
    elapsed = time.perf_counter() - t0
    _report("6 sampler fidelity", failures, elapsed, 10.0)


def test_criterion_7_lower_bound_property():
    failures = []
    t0 = time.perf_counter()
    for k, (domain, budget) in enumerate(_criterion_tuples(60)):
        b_star = calibrate(domain, budget).b_star
        for xi_frac in (1e-6, 1e-2, 1.0):
            xi = xi_frac * domain.width
            f_val = fixed_point_operator(domain, budget, b_star + xi)
            if not b_star + xi > f_val:
                failures.append(f"tuple {k}, xi={xi_frac}: "
                                f"{b_star + xi} <= {f_val}")
    elapsed = time.perf_counter() - t0
    _report("7 lower-bound property", failures, elapsed, 30.0)


def test_criterion_8_cli_determinism():
    base = ["--epsilon", "1", "--delta", "0", "--lower", "0", "--upper", "1",
            "--sensitivity", "0.5"]
    commands = [
        ["calibrate", *base, "--format", "json"],
        ["sample", *base, "--q", "0.2", "--n", "50", "--seed", "42"],
        ["verify", *base, "--q-grid", "40", "--set-grid", "40",
         "--samples", "20000", "--seed", "3", "--format", "json"],
        ["sweep", "--dq-steps", "3", "--eps-steps", "3"],
    ]
    failures = []
    t0 = time.perf_counter()
    for argv in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "bounded_laplace", *argv],
                capture_output=True, check=False)
            if proc.returncode != 0:
                failures.append(f"{argv[0]}: exit {proc.returncode} "
                                f"({proc.stderr[:200]!r})")
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            failures.append(f"{argv[0]}: stdout differs between invocations")
    elapsed = time.perf_counter() - t0
    _report("8 CLI determinism", failures, elapsed, 120.0)
