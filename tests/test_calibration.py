import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounded_laplace import (
    CalibrationInfeasibleError,
    OutputDomain,
    PrivacyBudget,
    UnsatisfiableBudgetError,
    achieved_epsilon,
    baseline_scale,
    calibrate,
    default_sweep_grid,
    epsilon_ratio_grid,
    fixed_point_operator,
    normalizer_ratio,
)
from bounded_laplace.calibration import _log_axis
from helpers import (
    damped_fixed_point,
    laplace_mass_quadrature,
    mp_achieved_epsilon,
    random_problem,
)


UNIT_HALF = OutputDomain(0.0, 1.0, 0.5)
UNIT_FULL = OutputDomain(0.0, 1.0, 1.0)


# -------------------------------------------------------------- baseline scale


def test_baseline_scale_pure_epsilon():
    assert baseline_scale(UNIT_FULL, PrivacyBudget(1.0, 0.0)) == 1.0


def test_baseline_scale_delta_only():
    # -log(1 - delta) = 1 for delta = 1 - 1/e
    budget = PrivacyBudget(0.0, 1.0 - math.exp(-1.0))
    assert baseline_scale(UNIT_FULL, budget) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("domain, budget, message", [
    (UNIT_HALF, PrivacyBudget(1e-320, 0.0), "0.5 / 1e-320 overflows a double"),
    (UNIT_HALF, PrivacyBudget(0.0, 1e-320), "0.5 / 1e-320 overflows a double"),
    (OutputDomain(0.0, 1.0, 1e-300), PrivacyBudget(1e308, 0.0),
     "1e-300 / 1e+308 underflows a double"),
])
def test_overflowing_baseline_scale_is_unsatisfiable(domain, budget, message):
    # the error names the quotient, not the infinite or zero scale the
    # fixed-point operator would otherwise be handed
    for solve in (baseline_scale, calibrate):
        with pytest.raises(UnsatisfiableBudgetError) as exc:
            solve(domain, budget)
        assert str(exc.value) == "baseline scale sensitivity / epsilon' = " + message


def test_zero_budget_is_rejected_at_construction():
    with pytest.raises(UnsatisfiableBudgetError):
        PrivacyBudget(0.0, 0.0)


# -------------------------------------------------------- fixed point operator


def test_operator_fixes_baseline_when_sensitivity_spans_domain():
    budget = PrivacyBudget(1.0, 0.0)
    b0 = baseline_scale(UNIT_FULL, budget)
    assert fixed_point_operator(UNIT_FULL, budget, b0) == b0


def test_operator_plug_in_value():
    # ratio at b = 0.5 is (1 - e^-1) / ((1 - e^-2)/2)
    ratio = (1.0 - math.exp(-1.0)) / (0.5 * (1.0 - math.exp(-2.0)))
    expected = 0.5 / (1.0 - math.log(ratio))
    got = fixed_point_operator(UNIT_HALF, PrivacyBudget(1.0, 0.0), 0.5)
    assert got == pytest.approx(expected, rel=1e-14)


def test_operator_slope_nonpositive():
    budget = PrivacyBudget(1.0, 0.0)
    b0 = baseline_scale(UNIT_HALF, budget)
    for b in np.geomspace(b0, 50.0 * b0, 20):
        h = 1e-6 * b
        slope = (fixed_point_operator(UNIT_HALF, budget, b + h)
                 - fixed_point_operator(UNIT_HALF, budget, b - h)) / (2.0 * h)
        assert slope <= 1e-8


def test_operator_monotone_nonincreasing_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        domain, budget = random_problem(rng)
        b0 = baseline_scale(domain, budget)
        bs = np.sort(b0 * 10 ** rng.uniform(0.0, 2.0, size=6))
        values = [fixed_point_operator(domain, budget, b) for b in bs]
        assert np.all(np.diff(values) <= 1e-12 * np.abs(values[0]))


def test_operator_infeasible_below_baseline():
    # small epsilon: the exponent budget goes negative at small scales
    with pytest.raises(CalibrationInfeasibleError):
        fixed_point_operator(UNIT_HALF, PrivacyBudget(0.1, 0.0), 0.01)


# ------------------------------------------------------------------- calibrate


def test_calibrate_degenerate_case_is_exact():
    report = calibrate(UNIT_FULL, PrivacyBudget(1.0, 0.0))
    assert report.b_star == 1.0
    assert report.b0 == 1.0
    assert report.f_b0 == 1.0
    assert report.residual == 0.0
    assert report.iterations == 0
    assert report.effective_epsilon == 1.0


def test_calibrate_fixed_point_and_bracket():
    report = calibrate(UNIT_HALF, PrivacyBudget(1.0, 0.0))
    assert report.b0 <= report.b_star <= report.f_b0
    assert report.residual <= 1e-12
    f_at_star = fixed_point_operator(UNIT_HALF, PrivacyBudget(1.0, 0.0),
                                     report.b_star)
    assert abs(f_at_star - report.b_star) <= 1e-12


def test_calibrate_matches_damped_iteration_oracle():
    rng = np.random.default_rng(99)
    for _ in range(20):
        domain, budget = random_problem(rng)
        report = calibrate(domain, budget)
        oracle = damped_fixed_point(domain, budget)
        assert abs(report.b_star - oracle) <= 1e-10 * max(1.0, report.b_star)


def test_calibrate_satisfies_privacy_condition_at_equality():
    rng = np.random.default_rng(13)
    for _ in range(20):
        domain, budget = random_problem(rng)
        report = calibrate(domain, budget)
        residual = (budget.epsilon
                    - domain.sensitivity / report.b_star
                    - math.log(normalizer_ratio(domain, report.b_star))
                    - math.log1p(-budget.delta))
        assert abs(residual) <= 1e-9


def test_calibrate_never_below_baseline():
    rng = np.random.default_rng(31)
    for _ in range(30):
        domain, budget = random_problem(rng)
        report = calibrate(domain, budget)
        assert report.b_star >= report.b0


def test_calibrated_scale_is_a_lower_bound():
    # any scale strictly above the fixed point maps strictly below itself
    rng = np.random.default_rng(47)
    for _ in range(10):
        domain, budget = random_problem(rng)
        report = calibrate(domain, budget)
        for xi_frac in (1e-6, 1e-2, 1.0):
            xi = xi_frac * domain.width
            assert report.b_star + xi > fixed_point_operator(
                domain, budget, report.b_star + xi)


@settings(max_examples=150, deadline=None)
@given(
    log_eps=st.floats(-8.0, 1.0),
    log_frac=st.floats(-6.0, 0.0),
    lower=st.floats(-10.0, 10.0),
    width=st.floats(0.1, 10.0),
)
def test_calibrate_converges_for_small_epsilon(log_eps, log_frac, lower, width):
    # b_star ~ sensitivity / epsilon reaches 1e8 here, where one ulp of it
    # exceeds 1e-12: the bisection ends at a bracket of adjacent doubles
    upper = lower + width
    domain = OutputDomain(lower, upper, (upper - lower) * 10.0 ** log_frac)
    budget = PrivacyBudget(10.0 ** log_eps, 0.0)
    report = calibrate(domain, budget)
    assert report.b0 <= report.b_star <= report.f_b0
    assert report.residual <= max(1e-12, 4.0 * np.spacing(report.b_star))
    assert report.residual == abs(
        fixed_point_operator(domain, budget, report.b_star) - report.b_star)


def _oracle_problems():
    sens, eps = default_sweep_grid()
    for dq, e in itertools.product(sens, eps):
        yield OutputDomain(0.0, 1.0, float(dq)), PrivacyBudget(float(e), 0.0)
    rng = np.random.default_rng(2024)
    for k in range(600):
        domain, budget = random_problem(rng, eps_range=(1e-6, 1e3), delta_max=0.99)
        if k % 2:  # the same shape far from 0
            lower, upper = domain.lower + 1e6, domain.upper + 1e6
            domain = OutputDomain(lower, upper, min(domain.sensitivity, upper - lower))
        yield domain, budget


def test_calibrate_returns_the_private_end():
    # in exact arithmetic b_star is private and the double two below it is
    # not, so b_star is at most one ulp above the smallest private double;
    # when the sensitivity spans the domain b_star is b0 itself
    checked = with_delta = 0
    for domain, budget in _oracle_problems():
        report = calibrate(domain, budget)
        if domain.sensitivity == domain.width:
            assert (report.b_star, report.iterations) == (report.b0, 0), (domain, budget)
        else:
            below = math.nextafter(math.nextafter(report.b_star, 0.0), 0.0)
            assert mp_achieved_epsilon(domain, report.b_star, budget.delta) \
                <= budget.epsilon, (domain, budget)
            assert mp_achieved_epsilon(domain, below, budget.delta) \
                > budget.epsilon, (domain, budget)
        checked += 1
        with_delta += budget.delta > 0.0
    assert checked == 3100 and with_delta >= 500


EXTREME_CORNERS = list(itertools.product(
    (1e-100, 1e-30, 1e-12, 1.0, 1e3),            # epsilon
    (1e-100, 1e-9, 0.5, 1.0),                    # sensitivity / width
    (0.0, 1e-300, 0.5, 1.0 - 1e-16),             # delta
    (0.0, 1e6),                                  # lower
))


@pytest.mark.parametrize("eps,frac,delta,lower", EXTREME_CORNERS)
def test_calibrate_terminates_within_bound(eps, frac, delta, lower):
    domain = OutputDomain(lower, lower + 1.0, frac)
    budget = PrivacyBudget(eps, delta)
    if eps == frac == 1e-100 and delta == 0.0:
        # the long-double budget eps - log R(b0) is of order frac**2 and
        # rounds to <= 0
        with pytest.raises(CalibrationInfeasibleError):
            calibrate(domain, budget)
        return
    report = calibrate(domain, budget)
    assert report.b0 <= report.b_star <= report.f_b0
    assert report.iterations <= 55 + math.log2(report.f_b0 / report.b0)
    # the bracket closed on adjacent doubles, f(lo) >= lo and f(hi) < hi,
    # where its ends b0 and f_b0 need no evaluation
    b_star, prev = report.b_star, math.nextafter(report.b_star, 0.0)
    assert b_star == report.f_b0 or fixed_point_operator(domain, budget, b_star) < b_star
    assert prev <= report.b0 or fixed_point_operator(domain, budget, prev) >= prev


def test_calibrate_with_delta():
    domain, budget = UNIT_HALF, PrivacyBudget(0.5, 0.2)
    report = calibrate(domain, budget)
    assert report.b0 <= report.b_star <= report.f_b0
    assert report.residual <= 1e-12
    assert report.effective_epsilon <= budget.epsilon


# ------------------------------------------------------------ achieved epsilon


def test_achieved_epsilon_round_trips_calibration():
    rng = np.random.default_rng(63)
    for _ in range(20):
        domain, budget = random_problem(rng)
        report = calibrate(domain, budget)
        eps = achieved_epsilon(domain, report.b_star, budget.delta)
        assert eps == pytest.approx(budget.epsilon, abs=1e-9)


def test_achieved_epsilon_symmetric_case_has_no_ratio_term():
    for b in (0.2, 1.0, 7.0):
        expected = UNIT_FULL.sensitivity / b + math.log1p(-0.1)
        assert achieved_epsilon(UNIT_FULL, b, 0.1) == expected


def test_achieved_epsilon_large_scale_limit():
    # log ratio vanishes as the scale dwarfs the domain; cross-check the
    # ratio against quadrature-backed normalizing constants
    b = 1000.0 * UNIT_HALF.width
    mass_low = laplace_mass_quadrature(UNIT_HALF, 0.0, b, 0.0, 1.0)
    mass_shift = laplace_mass_quadrature(UNIT_HALF, 0.5, b, 0.0, 1.0)
    log_ratio = math.log(mass_shift / mass_low)
    got = achieved_epsilon(UNIT_HALF, b, 0.0)
    assert got == pytest.approx(UNIT_HALF.sensitivity / b + log_ratio, rel=1e-6)
    assert got > UNIT_HALF.sensitivity / b
    assert log_ratio < 1e-3


# ----------------------------------------------------------------- ratio grid


def test_ratio_grid_values_and_bounds():
    cells = epsilon_ratio_grid(1.0, [1e-3, 0.1, 1.0], [0.01, 1.0, 10.0])
    assert len(cells) == 9
    for cell in cells:
        assert cell.error is None
        assert 1.0 <= cell.ratio < 2.0
        if cell.sensitivity == 1.0:
            assert cell.ratio == 1.0


def test_ratio_grid_monotone_trends():
    sens = [1e-3, 1e-2, 0.1, 1.0]
    eps = [0.01, 0.1, 1.0, 10.0]
    cells = epsilon_ratio_grid(1.0, sens, eps)
    table = {(c.sensitivity, c.epsilon): c.ratio for c in cells}
    for e in eps:  # inflation grows as the sensitivity shrinks
        for lo, hi in zip(sens, sens[1:]):
            assert table[(lo, e)] >= table[(hi, e)] - 1e-12
    for s in sens:  # and as epsilon shrinks
        for lo, hi in zip(eps, eps[1:]):
            assert table[(s, lo)] >= table[(s, hi)] - 1e-12


def test_ratio_grid_records_per_cell_errors():
    cells = epsilon_ratio_grid(1.0, [0.5, 2.0], [1.0])
    good, bad = cells[0], cells[1]
    assert good.error is None
    assert bad.error is not None
    assert math.isnan(bad.ratio)


@pytest.mark.parametrize("steps", [1, 2, 50])
def test_log_axis_ends_exactly_on_its_bounds(steps):
    # 10 ** log10(x) misses x by an ulp for about one x in eight
    rng = np.random.default_rng(18)
    for start, stop in 10.0 ** rng.uniform(-12.0, 12.0, size=(500, 2)):
        axis = _log_axis(start, stop, steps)
        assert axis.shape == (steps,) and axis[0] == start
        assert axis[-1] == (stop if steps > 1 else start)
        assert np.all(np.diff(axis) > 0) if stop > start else np.all(np.diff(axis) < 0)


def test_default_sweep_grid_axes():
    sens, eps = default_sweep_grid()
    assert sens.shape == (50,) and eps.shape == (50,)
    assert (sens[0], sens[-1], eps[0], eps[-1]) == (1e-3, 1.0, 1e-2, 10.0)
    # the interior is np.logspace of the exact decimal exponents
    assert np.array_equal(sens, np.logspace(-3.0, 0.0, 50))
    assert np.array_equal(eps, np.logspace(-2.0, 1.0, 50))
