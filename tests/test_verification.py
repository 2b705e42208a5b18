import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from bounded_laplace import (
    CalibratedMechanism,
    OutputDomain,
    PrivacyBudget,
    achieved_epsilon,
    baseline_scale,
    calibrate,
    check_fixed_point_properties,
    check_privacy_inequality,
    check_ratio_monotonicity,
    check_sufficient_condition,
    default_sweep_grid,
    empirical_privacy_estimate,
    run_all_checks,
)
from bounded_laplace import mechanism, verification
from bounded_laplace._kernels import worst_interval_margin
from bounded_laplace.verification import _sampled_counts, _scan_grid
from helpers import (
    all_pairs_uniform_scan,
    laplace_mass_quadrature,
    random_problem,
    reference_empirical_counts,
    reference_sufficient_condition,
    two_interval_margin,
)


BUDGET = PrivacyBudget(1.0, 0.0)
FAST = {"q_grid": 80, "set_grid": 80}
# lower + sensitivity rounds at the scale of |lower| (about 10), far coarser
# than the width's ulp, so the worst-case pair sits a few width ulps more
# than one sensitivity apart
FAR_DOMAIN = OutputDomain(-9.993759296579928, -9.784134590603939, 0.1048123529879943)
FAR_BUDGET = PrivacyBudget(0.6751111394352484, 0.0)


def calibrated(domain, budget=BUDGET):
    return CalibratedMechanism(domain, budget, calibrate(domain, budget).b_star)


# ------------------------------------------------------------- privacy check


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_privacy_holds_at_calibrated_scale(frac):
    domain = OutputDomain(0.0, 1.0, frac)
    res = check_privacy_inequality(calibrated(domain), **FAST)
    assert res.passed
    assert res.worst_margin <= 1e-9


@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_privacy_fails_at_baseline_scale(frac):
    domain = OutputDomain(0.0, 1.0, frac)
    mech = CalibratedMechanism(domain, BUDGET, baseline_scale(domain, BUDGET))
    res = check_privacy_inequality(mech, **FAST)
    assert not res.passed
    assert res.worst_margin > 1e-6


def test_privacy_holds_at_baseline_when_sensitivity_spans_domain():
    domain = OutputDomain(0.0, 1.0, 1.0)
    mech = CalibratedMechanism(domain, BUDGET, baseline_scale(domain, BUDGET))
    res = check_privacy_inequality(mech, **FAST)
    assert res.passed


def test_privacy_witness_lands_near_worst_pair():
    # Compared in grid steps, not float distances: the worst pair
    # (lower, lower + sensitivity) and its mirror tie exactly, and rounding
    # of the grid points must not decide which one the test accepts.
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    res = check_privacy_inequality(mech, **FAST)
    q, q_prime = res.witness["q"], res.witness["q_prime"]
    last = FAST["q_grid"] - 1
    i = round((q - domain.lower) / domain.width * last)
    assert i <= 1 or i >= last - 1
    assert abs(q_prime - q) == pytest.approx(domain.sensitivity, rel=1e-12)
    # the pair is one the scan made, and its worst set hugs a domain edge
    (xs,) = [xs[k] for qs, partners, xs, _, _ in _scan_grid(mech, **FAST)
             for k in np.flatnonzero((qs == q) & (partners == q_prime))]
    (a, b), = res.witness["intervals"]
    ia = int(np.flatnonzero(xs == a)[0])
    ib = int(np.flatnonzero(xs == b)[0])
    assert ia <= 1 or ib >= FAST["set_grid"] - 2


def test_privacy_check_on_shifted_domain_with_delta():
    domain = OutputDomain(-4.0, -1.0, 1.2)
    budget = PrivacyBudget(0.8, 0.05)
    mech = calibrated(domain, budget)
    res = check_privacy_inequality(mech, **FAST)
    assert res.passed and res.worst_margin <= 1e-9
    base = CalibratedMechanism(domain, budget, baseline_scale(domain, budget))
    assert not check_privacy_inequality(base, **FAST).passed


@pytest.mark.parametrize("domain, budget", [
    (OutputDomain(0.0, 1.0, 0.1), BUDGET),
    (OutputDomain(0.0, 1.0, 0.5), BUDGET),
    (OutputDomain(0.0, 1.0, 0.9), BUDGET),
    (OutputDomain(-4.0, -1.0, 1.2), PrivacyBudget(0.8, 0.05)),
    (OutputDomain(-9.993759296579928, -9.784134590603939, 0.1048123529879943),
     PrivacyBudget(0.6751111394352484, 0.0)),
], ids=["0.1", "0.5", "0.9", "shifted_with_delta", "far_from_zero"])
def test_single_intervals_suffice_for_privacy_scan(domain, budget):
    # the likelihood ratio is monotone in the output, so no union of two
    # disjoint intervals beats the best single one on the verifier's own grid
    for scale in (baseline_scale(domain, budget), calibrate(domain, budget).b_star):
        mech = CalibratedMechanism(domain, budget, scale)
        amp = math.exp(budget.epsilon)
        for _, _, _, rows_q, rows_q_prime in _scan_grid(mech, q_grid=60, set_grid=60):
            single = worst_interval_margin(rows_q, rows_q_prime, amp)[0]
            assert two_interval_margin(rows_q, rows_q_prime, amp)[0] <= single + 1e-14


def test_privacy_check_stable_under_grid_refinement():
    domain = OutputDomain(0.0, 1.0, 0.3)
    mech_good = calibrated(domain)
    mech_bad = CalibratedMechanism(domain, BUDGET, baseline_scale(domain, BUDGET))
    for n in (50, 100):
        assert check_privacy_inequality(mech_good, q_grid=n, set_grid=n).passed
        assert not check_privacy_inequality(mech_bad, q_grid=n, set_grid=n).passed


def test_privacy_check_rejects_epsilon_beyond_exp_range(monkeypatch):
    # e^709 is a finite double, e^710 is not
    domain = OutputDomain(0.0, 1.0, 0.5)
    assert check_privacy_inequality(calibrated(domain, PrivacyBudget(709.0)), **FAST).passed
    mech = calibrated(domain, PrivacyBudget(710.0))

    def no_table(*args):
        raise AssertionError("the CDF table was built")

    monkeypatch.setattr(verification, "_scan_grid", no_table)
    res = check_privacy_inequality(mech, **FAST)
    assert not res.passed and math.isnan(res.worst_margin)
    assert res.witness == {
        "refused": "the grid privacy check needs a finite e^epsilon: epsilon 710.0 "
                   f"exceeds log(DBL_MAX) = {math.log(sys.float_info.max)}",
        "scale": mech.scale}


def _oracle_family():
    """(domain, budget) of the scan's oracle comparison: three domains, the
    sensitivity from 1e-4 of the width to all of it, eps from 0.01 to 50,
    delta 0 and 1e-3, and seeded random problems."""
    for lower, upper in ((0.0, 1.0), (0.0, 1000.0), (-4.0, -1.0)):
        for frac in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5, 0.9, 1.0):
            sensitivity = upper - lower if frac == 1.0 else frac * (upper - lower)
            for eps in (0.01, 0.1, 1.0, 5.0, 50.0):
                for delta in (0.0, 1e-3):
                    yield OutputDomain(lower, upper, sensitivity), PrivacyBudget(eps, delta)
    rng = np.random.default_rng(11)
    for _ in range(40):
        yield random_problem(rng)


def test_privacy_scan_fails_wherever_the_all_pairs_oracle_fails():
    # The all-pairs scan on one uniform grid is sound but blind where the
    # sensitivity or the scale is small against the width; the scan on
    # pairs one sensitivity apart, each with its own equal-mass set grid,
    # must catch everything it catches, and never fail a private scale.
    grids = {"q_grid": 40, "set_grid": 40}
    oracle_fails = scan_fails = 0
    for domain, budget in _oracle_family():
        report = calibrate(domain, budget)
        for scale in (report.b0, report.b_star):
            mech = CalibratedMechanism(domain, budget, scale)
            res = check_privacy_inequality(mech, **grids)
            oracle_fail = all_pairs_uniform_scan(mech, **grids) > verification.PRIVACY_SLACK
            assert not oracle_fail or not res.passed, (domain, budget, scale)
            if achieved_epsilon(domain, scale, budget.delta) <= budget.epsilon:
                assert res.passed, (domain, budget, scale, res)
            oracle_fails += oracle_fail
            scan_fails += not res.passed
    assert scan_fails > 2 * oracle_fails > 0


@pytest.mark.parametrize("upper", [1.0, 1000.0])
@pytest.mark.parametrize("frac", [1e-4, 1e-3, 1e-2])
def test_privacy_scan_fails_baseline_at_small_sensitivity(frac, upper):
    # the sensitivity is at most two spacings of the default query grid and
    # b0 is far below the width: the all-pairs uniform scan passed b0 here
    domain = OutputDomain(0.0, upper, frac * upper)
    for eps in (0.01, 0.1, 1.0, 5.0, 50.0):
        for delta in (0.0, 1e-3):
            budget = PrivacyBudget(eps, delta)
            b0 = baseline_scale(domain, budget)
            res = check_privacy_inequality(CalibratedMechanism(domain, budget, b0))
            assert not res.passed and res.worst_margin > 0.0, (eps, delta, res)


def test_privacy_scan_drops_pairs_that_round_to_one_query():
    # q + sensitivity is a rounding tie at half an ulp of 1: it rounds to q
    # at grid points with an even last bit and away from q at the odd ones,
    # so the rows with a distinct partner are not one run
    u = 2.0**-52
    mech = CalibratedMechanism(OutputDomain(1.0, 1.0 + 7 * u, u / 2), BUDGET, u / 2)
    (up_q, up_p, *_), (down_q, down_p, *_) = _scan_grid(mech, q_grid=8, set_grid=5)
    assert ((up_q - 1.0) / u).tolist() == [1.0, 3.0, 5.0]
    assert ((down_q - 1.0) / u).tolist() == [1.0, 3.0, 5.0, 7.0]
    assert (up_p != up_q).all() and (down_p != down_q).all()


def test_privacy_scan_with_no_distinct_pair_reports():
    # one sensitivity moves no grid query by a representable amount
    domain = OutputDomain(1e6, 1e6 + 1e-6, 1e-15)
    res = check_privacy_inequality(calibrated(domain), **FAST)
    assert res.passed and res.worst_margin == -math.inf
    assert res.witness == {"q": None, "q_prime": None, "intervals": [],
                           "scale": calibrate(domain, BUDGET).b_star}


def test_interval_probabilities_match_quadrature():
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = CalibratedMechanism(domain, BUDGET, 0.7)
    for q, a, b in [(0.0, 0.1, 0.4), (0.5, 0.0, 1.0), (0.9, 0.85, 0.95)]:
        oracle = (laplace_mass_quadrature(domain, q, 0.7, a, b)
                  / laplace_mass_quadrature(domain, q, 0.7, 0.0, 1.0))
        assert mech.cdf(q, b) - mech.cdf(q, a) == pytest.approx(oracle, abs=1e-10)


# ------------------------------------------------------- sufficient condition


def test_sufficient_condition_equality_at_fixed_point():
    domain = OutputDomain(0.0, 1.0, 0.5)
    res = check_sufficient_condition(calibrated(domain))
    assert res.passed
    assert abs(res.witness["achieved_epsilon"] - BUDGET.epsilon) <= 1e-9


def test_sufficient_condition_gains_slack_above_fixed_point():
    domain = OutputDomain(0.0, 1.0, 0.5)
    b_star = calibrate(domain, BUDGET).b_star
    res = check_sufficient_condition(
        CalibratedMechanism(domain, BUDGET, b_star + 0.1))
    assert res.passed
    assert res.witness["achieved_epsilon"] < BUDGET.epsilon


def test_sufficient_condition_fails_at_baseline():
    domain = OutputDomain(0.0, 1.0, 0.5)
    res = check_sufficient_condition(
        CalibratedMechanism(domain, BUDGET, baseline_scale(domain, BUDGET)))
    assert not res.passed
    assert res.witness["achieved_epsilon"] > BUDGET.epsilon


def test_sufficient_condition_matches_exp_form_reference():
    # the exp form restates achieved_epsilon <= eps; off its overflow range
    # the two give the same verdict, at the fixed point and at the baseline
    rng = np.random.default_rng(2027)
    for _ in range(500):
        lower = rng.uniform(-1e3, 1e3)
        width = 10.0 ** rng.uniform(-3.0, 3.0)
        domain = OutputDomain(lower, lower + width, width * 10.0 ** rng.uniform(-4.0, 0.0))
        budget = PrivacyBudget(10.0 ** rng.uniform(-8.0, 2.8),
                               float(rng.choice([0.0, 1e-6, 0.1, 0.9])))
        for b in (calibrate(domain, budget).b_star, baseline_scale(domain, budget)):
            mech = CalibratedMechanism(domain, budget, b)
            assert (check_sufficient_condition(mech).passed
                    == reference_sufficient_condition(mech).passed), (domain, budget, b)


def test_sufficient_condition_at_epsilon_beyond_exp_range():
    # exp(eps - sensitivity/b) overflows here; achieved_epsilon is 0.075
    mech = CalibratedMechanism(OutputDomain(0.0, 1.0, 0.5), PrivacyBudget(1000.0), 10.0)
    res = check_sufficient_condition(mech)
    assert res.passed
    assert res.witness["achieved_epsilon"] == pytest.approx(0.075, abs=1e-3)


def _sufficient_condition_family():
    """The 2,500 default sweep cells, then 3,000 random problems: lower edge in
    [-1e3, 1e3], width 1e-3 to 1e3, sensitivity down to 1e-4 widths, eps from
    1e-8 to 10**1.5 and four deltas."""
    sensitivities, epsilons = default_sweep_grid()
    for dq in sensitivities:
        for eps in epsilons:
            yield OutputDomain(0.0, 1.0, float(dq)), PrivacyBudget(float(eps))
    rng = np.random.default_rng(2031)
    for _ in range(3000):
        lower = rng.uniform(-1e3, 1e3)
        width = 10.0 ** rng.uniform(-3.0, 3.0)
        domain = OutputDomain(lower, lower + width, width * 10.0 ** rng.uniform(-4.0, 0.0))
        yield domain, PrivacyBudget(10.0 ** rng.uniform(-8.0, 1.5),
                                    float(rng.choice([0.0, 1e-6, 0.1, 0.9])))


def test_sufficient_condition_passes_at_b_star_across_problem_family():
    # the allowance comes from an error bound, not from these margins
    for domain, budget in _sufficient_condition_family():
        res = check_sufficient_condition(calibrated(domain, budget))
        assert res.passed, (domain, budget, res)


def test_sufficient_condition_allowance_is_capped():
    # at eps = 1e8 the uncapped allowance is 4.4e-8, and one ulp of
    # achieved_epsilon 1.5e-8; a margin above PRIVACY_SLACK still fails
    domain, budget = OutputDomain(0.0, 1.0, 0.5), PrivacyBudget(1e8)
    b = calibrate(domain, budget).b_star
    while achieved_epsilon(domain, b) - budget.epsilon <= verification.PRIVACY_SLACK:
        b = math.nextafter(b, 0.0)
    res = check_sufficient_condition(CalibratedMechanism(domain, budget, b))
    assert res.worst_margin < verification.SUFFICIENT_ROUNDING * 2.0**-53 * budget.epsilon
    assert not res.passed


# --------------------------------------------------------- ratio monotonicity


def test_log_ratio_zero_offset_is_identity():
    ts = np.linspace(0.0, 1.0, 11)
    vals = verification._log_loss(1.0, 0.7, ts, 0.0)
    assert np.max(np.abs(vals)) == 0.0


def test_log_ratio_full_span_hits_exponential_bound():
    # with t = 0 and z = w the constants cancel, leaving z/b
    for b in (0.3, 1.0, 4.0):
        assert verification._log_loss(1.0, b, 0.0, 1.0) == pytest.approx(1.0 / b, rel=1e-12)


def test_ratio_monotonicity_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(15):
        domain, _ = random_problem(rng)
        b = domain.width * 10 ** rng.uniform(-1.3, 1.3)
        res = check_ratio_monotonicity(domain, b)
        assert res.passed, res


def _far_from_zero(rng):
    # q + z rounds at the scale of |lower|, many ulps of the width
    lower = rng.uniform(-1e6, 1e6)
    width = 10.0 ** rng.uniform(-3.0, 3.0)
    return OutputDomain(lower, lower + width, width / 2.0), BUDGET


def _small_scale(rng):
    # epsilon from 30 to 1000 puts b far below the width, where one ulp of
    # q + z divided by b, in the exponent, would outweigh FD_SLACK
    return (OutputDomain(0.0, 1.0, rng.uniform(0.05, 1.0)),
            PrivacyBudget(10.0 ** rng.uniform(1.5, 3.0)))


@pytest.mark.parametrize("family", [_far_from_zero, _small_scale])
def test_ratio_monotonicity_survives_rounding_of_q_plus_z(family):
    rng = np.random.default_rng(41)
    for _ in range(150):
        domain, budget = family(rng)
        for b in (calibrate(domain, budget).b_star, baseline_scale(domain, budget)):
            res = check_ratio_monotonicity(domain, b)
            assert res.passed, (domain, budget, b, res)


def test_ratio_monotonicity_far_domains_any_budget():
    # 800 checks; with slopes per unit of length rather than of width, the
    # narrow domains among them failed falsely
    rng = np.random.default_rng(43)
    for _ in range(400):
        lower = rng.uniform(-1e6, 1e6)
        width = 10.0 ** rng.uniform(-3.0, 3.0)
        domain = OutputDomain(lower, lower + width, width * rng.uniform(0.05, 1.0))
        budget = PrivacyBudget(10.0 ** rng.uniform(-2.0, 3.0))
        for b in (calibrate(domain, budget).b_star, baseline_scale(domain, budget)):
            res = check_ratio_monotonicity(domain, b)
            assert res.passed, (domain, budget, b, res)


def test_ratio_monotonicity_is_translation_invariant():
    # the grid holds offsets from the lower edge, so a domain gives the same
    # margin and witness as its translate to [0, width], bit for bit
    rng = np.random.default_rng(2031)
    for _ in range(300):
        lower = rng.uniform(-1e6, 1e6)
        width = 10.0 ** rng.uniform(-3.0, 3.0)
        domain = OutputDomain(lower, lower + width, width * rng.uniform(0.05, 1.0))
        at_zero = OutputDomain(0.0, domain.width, domain.sensitivity)
        budget = PrivacyBudget(10.0 ** rng.uniform(-2.0, 3.0))
        for b in (calibrate(domain, budget).b_star, baseline_scale(domain, budget)):
            got = check_ratio_monotonicity(domain, b)
            ref = check_ratio_monotonicity(at_zero, b)
            assert got.worst_margin == ref.worst_margin, (domain, budget, b)
            for key in ("derivative", "z", "slope"):
                assert got.witness[key] == ref.witness[key], (domain, budget, b, key)
            assert got.witness["q"] == domain.lower + ref.witness["q"]


@pytest.mark.parametrize("domain, budget", [
    (OutputDomain(0.0, 0.001, 0.0005), PrivacyBudget(50.0)),
    (OutputDomain(0.0, 0.001, 0.0005), BUDGET),
    (OutputDomain(0.0, 1.0, 0.5), BUDGET),
])
def test_ratio_monotonicity_fails_for_broken_normalizer(domain, budget, monkeypatch):
    # a C whose upper half mass decays twice as fast breaks the fall of the
    # ratio in z; slopes taken per unit of width must expose it on a narrow
    # domain too
    monkeypatch.setattr(verification, "_inside_mass", lambda left, right, b:
                        -0.5 * (np.expm1(-left / b) + np.expm1(-2.0 * right / b)))
    res = check_ratio_monotonicity(domain, calibrate(domain, budget).b_star)
    assert not res.passed
    assert res.worst_margin > 1e3 * verification.FD_SLACK


def test_ratio_monotonicity_stable_under_grid_refinement(monkeypatch):
    domain = OutputDomain(0.0, 2.0, 0.7)
    for grid in (40, 80):
        monkeypatch.setattr(verification, "MONOTONICITY_GRID", grid)
        assert check_ratio_monotonicity(domain, 0.9).passed


# ---------------------------------------------------- fixed point properties


def test_fixed_point_properties_strict_case():
    domain = OutputDomain(0.0, 1.0, 0.5)
    res = check_fixed_point_properties(domain, BUDGET)
    assert res.passed
    w = res.witness
    assert w["relative_gap"] > 0.0
    assert w["worst_f_slope"] < 0.0
    assert w["worst_ratio_slope"] < 0.0
    assert w["ratio_headroom"] < 0.0
    assert not w["sensitivity_spans_domain"]


def test_fixed_point_properties_degenerate_case_is_flat():
    domain = OutputDomain(0.0, 1.0, 1.0)
    res = check_fixed_point_properties(domain, BUDGET)
    assert res.passed
    w = res.witness
    assert w["relative_gap"] == 0.0
    assert w["worst_f_slope"] == 0.0
    assert w["worst_ratio_slope"] == 0.0
    assert w["sensitivity_spans_domain"]


def test_fixed_point_properties_random_draws():
    rng = np.random.default_rng(29)
    for _ in range(15):
        domain, budget = random_problem(rng)
        res = check_fixed_point_properties(domain, budget)
        assert res.passed, res


def test_fixed_point_properties_at_small_epsilon_and_sensitivity():
    # the update's exponent budget turns negative just below b0 = 1 here,
    # so a difference reaching below b0 would raise
    domain = OutputDomain(0.0, 1.0, 1e-7)
    res = check_fixed_point_properties(domain, PrivacyBudget(1e-7))
    assert res.passed
    assert res.witness["relative_gap"] > 0.0
    assert res.witness["worst_f_slope"] < 0.0 and res.witness["worst_ratio_slope"] < 0.0


def test_ratio_at_baseline_below_feasibility_bound():
    rng = np.random.default_rng(37)
    from bounded_laplace import normalizer_ratio
    for _ in range(15):
        domain, budget = random_problem(rng)
        b0 = baseline_scale(domain, budget)
        bound = budget.epsilon - math.log1p(-budget.delta)
        assert math.log(normalizer_ratio(domain, b0)) < bound


# ------------------------------------------------------- empirical estimator


def test_empirical_estimate_identical_queries_near_zero():
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    est = empirical_privacy_estimate(mech, 0.4, 0.4, samples=200_000,
                                     rng=np.random.default_rng(8)).witness
    assert est["reliable"]
    assert abs(est["estimate"]) <= 0.15


def test_empirical_estimate_bounded_by_epsilon_when_calibrated():
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    est = empirical_privacy_estimate(mech, 0.0, 0.5, samples=1_000_000,
                                     rng=np.random.default_rng(15)).witness
    assert est["reliable"]
    assert est["estimate"] <= BUDGET.epsilon + 0.05


def test_empirical_estimate_catches_miscalibration():
    domain = OutputDomain(0.0, 1.0, 0.5)
    b_bad = baseline_scale(domain, BUDGET) / 2.0
    mech = CalibratedMechanism(domain, BUDGET, b_bad)
    est = empirical_privacy_estimate(mech, 0.0, 0.5, samples=1_000_000,
                                     rng=np.random.default_rng(23)).witness
    # pointwise analytic oracle for the worst log density ratio
    xs = np.linspace(0.0, 1.0, 4001)
    oracle = np.max(np.log(mech.pdf(0.0, xs)) - np.log(mech.pdf(0.5, xs)))
    assert est["estimate"] > BUDGET.epsilon + 0.2
    assert est["estimate"] == pytest.approx(oracle, abs=0.15)


def test_empirical_estimate_flags_unreliable_runs():
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    est = empirical_privacy_estimate(mech, 0.0, 0.5, samples=100,
                                     rng=np.random.default_rng(4)).witness
    assert not est["reliable"]


def test_empirical_estimate_rejects_distant_pair():
    domain = OutputDomain(0.0, 1.0, 0.3)
    mech = calibrated(domain)
    with pytest.raises(ValueError):
        empirical_privacy_estimate(mech, 0.0, 0.9, samples=100,
                                   rng=np.random.default_rng(0))


@pytest.mark.parametrize("domain, budget", [
    (OutputDomain(0.0, 1.0, 0.5), BUDGET), (FAR_DOMAIN, FAR_BUDGET)])
@pytest.mark.parametrize("samples", [1, 65_535, 65_536, 65_537, 200_003])
def test_empirical_estimate_blocks_match_one_shot_draws(domain, budget, samples,
                                                        monkeypatch):
    mech = calibrated(domain, budget)
    q, q_prime = domain.worst_case_pair()
    edges = np.linspace(domain.lower, domain.upper, 51)
    want = reference_empirical_counts(mech, q, q_prime, np.random.default_rng(5),
                                      samples, edges)
    rng = np.random.default_rng(5)
    got = (_sampled_counts(mech, q, rng, samples, edges),
           _sampled_counts(mech, q_prime, rng, samples, edges))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert int(want[0].sum()) == samples

    est = empirical_privacy_estimate(mech, q, q_prime, samples=samples,
                                     rng=np.random.default_rng(5))
    # the same estimate, computed from the one-shot counts
    replay = iter(want)
    monkeypatch.setattr(verification, "_sampled_counts", lambda *args: next(replay))
    ref = empirical_privacy_estimate(mech, q, q_prime, samples=samples,
                                     rng=np.random.default_rng(5))
    assert repr(est) == repr(ref)  # repr: NaN estimates compare equal too


@pytest.mark.parametrize("domain, scale, q", [
    (OutputDomain(0.0, 1.0, 0.5), 0.7, 0.0),    # q at the lower edge: one branch
    (OutputDomain(0.0, 1.0, 0.5), 0.7, 0.3),    # q inside: both branches
    (OutputDomain(0.0, 1.0, 0.5), 1e-3, 0.4),   # width above 700 scales: log form
])
def test_sampled_counts_equal_histogram_of_sample_inverse(domain, scale, q):
    # a partial block follows two full ones, so a stale tail of the scratch
    # that sample_inverse reuses across blocks would be counted
    mech = CalibratedMechanism(domain, BUDGET, scale)
    samples = 2 * mechanism.BLOCK + 123
    edges = np.linspace(domain.lower, domain.upper, 51)
    got = _sampled_counts(mech, q, np.random.default_rng(17), samples, edges)
    draws = mech.sample_inverse(q, np.random.default_rng(17), size=samples)
    want = np.histogram(draws, edges)[0]
    assert got.dtype == want.dtype and np.array_equal(got, want)
    below = np.count_nonzero(draws < q)
    assert (below == 0) if q == domain.lower else (0 < below < samples)


class _ReplaySampler:
    """Stands in for a mechanism whose ``sample_inverse`` returns a fresh copy
    of the next ``size`` entries of a fixed array, at most ``BLOCK`` a call."""

    def __init__(self, values):
        self.values = values
        self.served = 0

    def sample_inverse(self, q, rng, size):
        assert 1 <= size <= mechanism.BLOCK
        out = self.values[self.served:self.served + size].copy()
        assert out.size == size
        self.served += size
        return out


@pytest.mark.parametrize("domain", [OutputDomain(0.0, 1.0, 0.5), FAR_DOMAIN])
def test_sampled_counts_match_histogram_on_exact_edges(domain):
    # every edge, its neighbouring doubles inside the domain and the domain
    # edges themselves, so each bin's closed or open end decides some counts;
    # about 70,000 values, so a block boundary falls among them
    edges = np.linspace(domain.lower, domain.upper, 51)
    below = np.nextafter(edges, -np.inf)
    above = np.nextafter(edges, np.inf)
    points = np.concatenate([edges, below[below >= domain.lower],
                             above[above <= domain.upper]])
    values = np.concatenate([np.tile(points, 400), np.full(5_000, domain.lower),
                             np.full(5_000, domain.upper)])
    np.random.default_rng(3).shuffle(values)
    stub = _ReplaySampler(values)
    got = _sampled_counts(stub, domain.lower, None, values.size, edges)
    want = np.histogram(values, edges)[0]
    assert stub.served == values.size > mechanism.BLOCK
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_empirical_estimate_memory_does_not_grow_with_samples():
    mech = calibrated(OutputDomain(0.0, 1.0, 0.5))
    q, q_prime = mech.domain.worst_case_pair()
    empirical_privacy_estimate(mech, q, q_prime, samples=1_000,
                               rng=np.random.default_rng(0))  # warm-up
    for samples in (1_000_000, 4_000_000):
        rng = np.random.default_rng(9)
        tracemalloc.start()
        try:
            empirical_privacy_estimate(mech, q, q_prime, samples=samples, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # drawing everything at once peaks at 26 MB per 1e6 samples
        assert peak < 4_000_000, (samples, peak)


# ------------------------------------------------------------------ full run


def test_run_all_checks_passes_when_calibrated():
    domain = OutputDomain(0.0, 1.0, 0.5)
    report = run_all_checks(domain, BUDGET, **FAST,
                            rng=np.random.default_rng(42), samples=200_000)
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "privacy_inequality",
        "sufficient_condition",
        "ratio_monotonicity",
        "fixed_point_properties",
        "empirical_privacy",
    ]


def test_run_all_checks_ends_with_empirical_estimate():
    domain = OutputDomain(0.0, 1.0, 0.5)
    report = run_all_checks(domain, BUDGET, **FAST,
                            rng=np.random.default_rng(42), samples=200_000)
    mech = calibrated(domain)
    assert report.checks[-1] == empirical_privacy_estimate(
        mech, *domain.worst_case_pair(), samples=200_000, rng=np.random.default_rng(42))


def test_run_all_checks_on_domain_far_from_zero():
    q, q_prime = FAR_DOMAIN.worst_case_pair()
    assert abs(q - q_prime) > FAR_DOMAIN.sensitivity + 8.0 * np.spacing(FAR_DOMAIN.width)
    report = run_all_checks(FAR_DOMAIN, FAR_BUDGET, **FAST,
                            rng=np.random.default_rng(25), samples=200_000)
    assert report.all_passed
    assert report.checks[-1].name == "empirical_privacy"


def test_run_all_checks_fails_on_baseline_scale():
    domain = OutputDomain(0.0, 1.0, 0.5)
    b0 = baseline_scale(domain, BUDGET)
    report = run_all_checks(domain, BUDGET, scale=b0, **FAST,
                            rng=np.random.default_rng(42), samples=200_000)
    assert not report.all_passed
    outcome = {c.name: c.passed for c in report.checks}
    # the scale-independent property checks still hold
    assert not outcome["privacy_inequality"]
    assert not outcome["sufficient_condition"]
    assert outcome["ratio_monotonicity"]
    assert outcome["fixed_point_properties"]


@pytest.mark.parametrize("domain", [OutputDomain(0.0, 1.0, 0.5), FAR_DOMAIN])
def test_run_all_checks_records_the_scale_it_checked(domain):
    budget = FAR_BUDGET if domain is FAR_DOMAIN else BUDGET
    b_star = calibrate(domain, budget).b_star
    b0 = baseline_scale(domain, budget)
    for scale, want in ((None, b_star), (b0, b0)):
        report = run_all_checks(domain, budget, scale=scale, q_grid=8, set_grid=8,
                                samples=0)
        assert report.scale == want
        assert report.checks[1].witness["scale"] == want
        assert list(report.to_dict()) == ["all_passed", "checks", "scale"]
        assert report.to_dict()["scale"] == want


def test_report_serializes_to_json():
    domain = OutputDomain(0.0, 1.0, 0.5)
    report = run_all_checks(domain, BUDGET, **FAST,
                            rng=np.random.default_rng(1), samples=50_000)
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["all_passed"] == report.all_passed
    assert len(parsed["checks"]) == len(report.checks)


def test_config_validation():
    mech = calibrated(OutputDomain(0.0, 1.0, 0.5))
    for grids in ({"q_grid": 1}, {"set_grid": 1}):
        with pytest.raises(ValueError, match="grid sizes must be at least 2"):
            check_privacy_inequality(mech, **grids)
