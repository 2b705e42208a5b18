import json
import math
import tracemalloc
from fractions import Fraction

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
    fixed_point_operator,
    run_all_checks,
)
from bounded_laplace import mechanism, verification
from bounded_laplace._kernels import worst_interval_margin
from bounded_laplace.verification import SCAN_GRID, _sampled_counts, _scan_grid
from helpers import (
    closed_form_empirical_margin,
    counts_at_or_below,
    laplace_mass_quadrature,
    mp_hockey_stick,
    mp_pair_delta,
    random_problem,
    reference_empirical_counts,
    reference_sufficient_condition,
)


BUDGET = PrivacyBudget(1.0, 0.0)
FAST = {"q_grid": 80}
# lower + sensitivity rounds at the scale of |lower| (about 10), far coarser
# than the width's ulp, and lands a few width ulps more than one sensitivity
# above lower, so the worst-case pair steps one ulp back
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
    # at the calibrated scale the witness is the paper's worst pair
    # (lower, lower + sensitivity), and its set is a lower set that ends
    # between the pair's queries, or the empty set [lower, lower]
    domain = OutputDomain(0.0, 1.0, 0.5)
    for budget in (BUDGET, PrivacyBudget(1.0, 1e-3), PrivacyBudget(30.0)):
        for b in (baseline_scale(domain, budget), calibrate(domain, budget).b_star):
            res = check_privacy_inequality(CalibratedMechanism(domain, budget, b), **FAST)
            q, q_prime = res.witness["q"], res.witness["q_prime"]
            (a, t), = res.witness["intervals"]
            assert a == domain.lower
            assert q <= t <= q_prime or t == domain.lower, res
    res = check_privacy_inequality(calibrated(domain), **FAST)
    assert (res.witness["q"], res.witness["q_prime"]) == domain.worst_case_pair()


def test_privacy_check_on_shifted_domain_with_delta():
    domain = OutputDomain(-4.0, -1.0, 1.2)
    budget = PrivacyBudget(0.8, 0.05)
    mech = calibrated(domain, budget)
    res = check_privacy_inequality(mech, **FAST)
    assert res.passed and res.worst_margin <= 1e-9
    base = CalibratedMechanism(domain, budget, baseline_scale(domain, budget))
    assert not check_privacy_inequality(base, **FAST).passed


def assert_lower_sets_suffice(mech, pairs):
    """The kernel's delta of each offset pair (a, z), a sup over lower sets,
    is the exact sup over every set, and so is its delta on the mirror domain
    at offset w - a - z for the reversed pair; returns the sups in turn."""
    d = mech.domain
    mirror = CalibratedMechanism(OutputDomain(-d.upper, -d.lower, d.sensitivity),
                                 mech.budget, mech.scale)
    exact = []
    for a, z in pairs:
        exact += [float(mp_hockey_stick(mech, a, z)), float(mp_hockey_stick(mech, a + z, -z))]
        for m, offset, h in ((mech, a, exact[-2]), (mirror, d.width - a - z, exact[-1])):
            kernel = worst_interval_margin(m, np.array([offset]), np.array([z]))[0]
            assert abs(kernel - h) <= 1e-9 * h + 1e-14, (m, offset, z, kernel, h)
    return exact


@pytest.mark.parametrize("domain, budget", [
    (OutputDomain(0.0, 1.0, 0.1), BUDGET),
    (OutputDomain(0.0, 1.0, 0.5), BUDGET),
    (OutputDomain(0.0, 1.0, 0.9), BUDGET),
    (OutputDomain(-4.0, -1.0, 1.2), PrivacyBudget(0.8, 0.05)),
    (OutputDomain(-9.993759296579928, -9.784134590603939, 0.1048123529879943),
     PrivacyBudget(0.6751111394352484, 0.0)),
], ids=["0.1", "0.5", "0.9", "shifted_with_delta", "far_from_zero"])
def test_single_intervals_suffice_for_privacy_scan(domain, budget):
    # the likelihood ratio is monotone in the output, so no set beats the
    # best lower set for q < q', or its mirror, an upper set, for q > q': on
    # the witness pair and sampled scan pairs, at b0 and b_star
    rng = np.random.default_rng(5)
    for scale in (baseline_scale(domain, budget), calibrate(domain, budget).b_star):
        mech = CalibratedMechanism(domain, budget, scale)
        a, z = _scan_grid(mech, q_grid=60)
        res = check_privacy_inequality(mech, q_grid=60)
        picks = [worst_interval_margin(mech, a, z)[1], *rng.choice(a.size, 6, replace=False)]
        exact = assert_lower_sets_suffice(mech, [(a[k], z[k]) for k in picks])
        assert res.worst_margin + budget.delta == pytest.approx(exact[0], rel=1e-9, abs=1e-14)
        # (a reversed pair mirrors to an offset w - a - z, not on the grid)
        assert res.worst_margin >= max(exact[::2]) - budget.delta - 1e-14


def test_privacy_check_stable_under_grid_refinement():
    domain = OutputDomain(0.0, 1.0, 0.3)
    mech_good = calibrated(domain)
    mech_bad = CalibratedMechanism(domain, BUDGET, baseline_scale(domain, BUDGET))
    for n in (50, 100):
        assert check_privacy_inequality(mech_good, q_grid=n).passed
        assert not check_privacy_inequality(mech_bad, q_grid=n).passed


def test_privacy_check_rejects_epsilon_beyond_exp_range():
    # e^709 is a finite double, e^710 and e^1000 are not; the grid check's
    # delta has no e^eps in it, so it passes b_star, as every other check
    # does, and fails b0 at its witness pair's exact delta
    domain = OutputDomain(0.0, 1.0, 0.5)
    for eps in (709.0, 710.0, 1000.0):
        budget = PrivacyBudget(eps)
        assert run_all_checks(domain, budget, **FAST, samples=0).all_passed, eps
        mech = CalibratedMechanism(domain, budget, baseline_scale(domain, budget))
        res = check_privacy_inequality(mech, **FAST)
        a, z = _scan_grid(mech, FAST["q_grid"])
        p = worst_interval_margin(mech, a, z)[1]
        exact = float(mp_pair_delta(mech, a[p], z[p])[0])
        assert res.witness["q"] == domain.lower + a[p]
        assert not res.passed and math.isfinite(res.worst_margin)
        assert res.worst_margin == pytest.approx(exact, rel=1e-9, abs=0.0), eps


def test_worst_pair_at_positive_delta_lies_between_grid_points():
    # ROADMAP item 17: the exact sup over every set at a = 0.001565, inside
    # the grid's first cell, exceeds delta = 0.08, while at a = 0 it does
    # not; the kernel agrees at both, but the check's grid misses the first
    mech = CalibratedMechanism(OutputDomain(0.0, 1.0, 0.01), PrivacyBudget(2.0, 0.08), 0.005)
    exact = assert_lower_sets_suffice(mech, [(0.001565, 0.01), (0.0, 0.01)])[::2]
    assert exact == [pytest.approx(0.096864, abs=5e-7), pytest.approx(0.071654, abs=5e-7)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17: the grid check's 199 offsets miss "
                   "the worst pair between them")
def test_privacy_scan_fails_the_scale_whose_worst_pair_lies_between_grid_points():
    mech = CalibratedMechanism(OutputDomain(0.0, 1.0, 0.01), PrivacyBudget(2.0, 0.08), 0.005)
    assert not check_privacy_inequality(mech).passed


def _oracle_family():
    """(domain, budget) of the scan's oracle comparison: three domains, the
    sensitivity from 1e-4 of the width to all of it, eps from 0.01 to 50,
    delta 0 and 1e-3, and seeded random problems.  Eps 30 and 35 are where
    an upper set's margin, a difference of two terms of size e^eps, rounds
    up to 2**-9 and more on private scales."""
    for lower, upper in ((0.0, 1.0), (0.0, 1000.0), (-4.0, -1.0)):
        for frac in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5, 0.9, 1.0):
            sensitivity = upper - lower if frac == 1.0 else frac * (upper - lower)
            for eps in (0.01, 0.1, 1.0, 5.0, 30.0, 35.0, 50.0):
                for delta in (0.0, 1e-3):
                    yield OutputDomain(lower, upper, sensitivity), PrivacyBudget(eps, delta)
    rng = np.random.default_rng(11)
    for _ in range(40):
        yield random_problem(rng)


def test_privacy_scan_fails_wherever_the_all_pairs_oracle_fails():
    # On a lower set the violation grows as q' moves away from q, so the
    # scan's farthest partner is the worst of all partners within one
    # sensitivity: on the witness and a sampled pair of 10 problems of the
    # family at b0, the exact sup over every set is no larger at a nearer
    # partner, so the scan fails wherever any pair fails.  And the scan
    # never fails a private scale.
    rng = np.random.default_rng(13)
    family = list(_oracle_family())
    sampled = set(rng.choice(len(family), 10, replace=False))
    nearer_is_less = scan_fails = 0
    for k, (domain, budget) in enumerate(family):
        report = calibrate(domain, budget)
        for scale in (report.b0, report.b_star):
            res = check_privacy_inequality(CalibratedMechanism(domain, budget, scale), q_grid=40)
            if achieved_epsilon(domain, scale, budget.delta) <= budget.epsilon:
                assert res.passed, (domain, budget, scale, res)
            scan_fails += not res.passed
        if k not in sampled:
            continue
        mech = CalibratedMechanism(domain, budget, report.b0)
        a, z = _scan_grid(mech, q_grid=40)
        for p in (worst_interval_margin(mech, a, z)[1], rng.integers(a.size)):
            farthest = mp_hockey_stick(mech, a[p], z[p])
            for frac in (0.25, 0.5, 0.99):
                nearer = mp_hockey_stick(mech, a[p], frac * z[p])
                assert nearer <= farthest, (domain, budget, a[p], z[p], frac, nearer, farthest)
                nearer_is_less += nearer < farthest
    assert scan_fails > 0 and nearer_is_less > 0


def test_privacy_scan_matches_the_all_intervals_oracle():
    # the exact sup over every measurable set, on the witness pair and a
    # sampled scan pair of 24 problems of the family, in both orders: the
    # kernel's lower and (by the mirror) upper sets attain it, and the check
    # reports it less delta, failing wherever that exceeds the slack
    rng = np.random.default_rng(17)
    family = list(_oracle_family())
    fails = 0
    for k in rng.choice(len(family), 24, replace=False):
        domain, budget = family[k]
        report = calibrate(domain, budget)
        for scale in (report.b0, report.b_star):
            mech = CalibratedMechanism(domain, budget, scale)
            res = check_privacy_inequality(mech, q_grid=40)
            a, z = _scan_grid(mech, q_grid=40)
            picks = (worst_interval_margin(mech, a, z)[1], rng.integers(a.size))
            oracle = max(assert_lower_sets_suffice(mech, [(a[p], z[p]) for p in picks])[::2])
            assert res.worst_margin + budget.delta == pytest.approx(oracle, rel=1e-9, abs=1e-14)
            assert oracle - budget.delta <= verification.PRIVACY_SLACK or not res.passed, res
            fails += not res.passed
    assert fails > 0


def test_privacy_scan_verdict_is_reflection_invariant():
    # x -> -x maps each pair q > q' of a domain and its upper sets onto a
    # pair q < q' of [-upper, -lower] and its lower sets, so scanning the
    # lower sets of one side must give the mirror domain the same verdict;
    # the mirror has the same width bits, so the scan's offsets and margin
    # are the same bits too
    grids = {"q_grid": 40}
    fails = 0
    for domain, budget in _oracle_family():
        mirror = OutputDomain(-domain.upper, -domain.lower, domain.sensitivity)
        assert mirror.width == domain.width
        report = calibrate(domain, budget)
        for scale in (report.b0, report.b_star):
            res = check_privacy_inequality(CalibratedMechanism(domain, budget, scale), **grids)
            ref = check_privacy_inequality(CalibratedMechanism(mirror, budget, scale), **grids)
            assert (res.passed, res.worst_margin) == (ref.passed, ref.worst_margin), (
                domain, budget, scale, res, ref)
            fails += not res.passed
    assert fails > 0


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


def test_privacy_scan_fails_every_scale_below_b_star_at_zero_delta():
    # at delta = 0 the paper's condition is exact, so every scale below b_star
    # is non-private, at the worst pair (lower, lower + sensitivity), which
    # the grid holds; the set-grid search passed 45 of these 300 scales, at
    # theta 0.9 and 0.99
    fails = 0
    for lower, upper in ((0.0, 1.0), (0.0, 1000.0), (-4.0, -1.0)):
        for frac in (1e-4, 1e-2, 0.1, 0.5, 0.9):
            domain = OutputDomain(lower, upper, frac * (upper - lower))
            for eps in (0.01, 0.1, 1.0, 5.0, 30.0):
                budget = PrivacyBudget(eps)
                report = calibrate(domain, budget)
                mech = CalibratedMechanism(domain, budget, report.b_star)
                assert check_privacy_inequality(mech).passed, (domain, budget)
                for theta in (0.0, 0.5, 0.9, 0.99):
                    b = report.b0 * (report.b_star / report.b0) ** theta
                    assert b < report.b_star
                    res = check_privacy_inequality(CalibratedMechanism(domain, budget, b))
                    assert not res.passed, (domain, budget, theta, res)
                    fails += 1
    assert fails == 300


def test_privacy_scan_pairs_are_admissible():
    # the scan's pairs are offsets one sensitivity apart, or ending at the
    # upper edge: nothing is rounded at the scale of the edges, and a + z <=
    # width holds exactly, an edge pair's z being the largest such double
    u = 2.0**-52
    tiny = OutputDomain(1.0, 1.0 + 7 * u, u / 2)
    mechs = [CalibratedMechanism(tiny, BUDGET, u / 2), calibrated(FAR_DOMAIN, FAR_BUDGET)]
    mechs += [calibrated(domain, budget) for domain, budget in _oracle_family()]
    for mech in mechs:
        d = mech.domain
        a, z = _scan_grid(mech, q_grid=200)
        assert a.size == 199 and (a >= 0.0).all() and (z > 0.0).all(), d
        assert (z <= d.sensitivity).all(), d
        assert all(Fraction(x) + Fraction(y) <= Fraction(d.width) for x, y in zip(a, z)), d
        assert all(Fraction(x) + Fraction(math.nextafter(y, math.inf)) > Fraction(d.width)
                   for x, y in zip(a, z) if y < d.sensitivity), d
        # the edge pair is a pair of doubles: min(lower + sensitivity,
        # upper), or the double below it where that rounds to more than one
        # sensitivity away
        q, q_prime = d.worst_case_pair()
        reach = min(d.lower + d.sensitivity, d.upper)
        assert q == d.lower and q_prime - q <= d.sensitivity, d
        assert q_prime in (reach, math.nextafter(reach, q)), d
    # half an ulp of 1: lower + sensitivity rounds to lower itself
    assert tiny.worst_case_pair() == (1.0, 1.0)
    # one and a half ulps: the sum rounds to two ulps away, so the partner
    # steps back one ulp
    assert OutputDomain(1.0, 1.0 + 7 * u, 1.5 * u).worst_case_pair() == (1.0, 1.0 + u)


def test_privacy_scan_with_no_distinct_pair_reports():
    # one sensitivity moves no grid query by a representable amount, yet the
    # scan's pairs are the real ones: b0 fails at a finite margin and b_star
    # passes, on a sensitivity of 1e-15 next to 1e6 and of 2**-53 next to 1
    u = 2.0**-52
    for domain in (OutputDomain(1e6, 1e6 + 1e-6, 1e-15), OutputDomain(1.0, 1.0 + 7 * u, u / 2)):
        report = calibrate(domain, BUDGET)
        res = check_privacy_inequality(CalibratedMechanism(domain, BUDGET, report.b0), **FAST)
        assert not res.passed and 0.0 < res.worst_margin < 1.0, (domain, res)
        assert res.witness["q"] == domain.lower and res.witness["scale"] == report.b0
        assert check_privacy_inequality(calibrated(domain), **FAST).passed, domain
    res = check_privacy_inequality(
        CalibratedMechanism(OutputDomain(1e6, 1e6 + 1e-6, 1e-15), BUDGET, 1e-15), **FAST)
    assert res.worst_margin == pytest.approx(0.0472, rel=1e-3)


@pytest.mark.parametrize("lower", [-3.0, 1e6, -7.25e8])
def test_privacy_scan_is_translation_invariant(lower):
    # the scan's pairs are offsets from lower, so a domain of width 1 gives
    # the same margins wherever it lies, bit for bit, and the same witness
    # relative to lower: q = lower + a and t = lower + (a + b kappa / 2)
    thetas = (0.0, 0.9, 1.0)
    fails = 0
    for frac in (1e-4, 0.1, 0.5, 0.9):
        ref_domain = OutputDomain(0.0, 1.0, frac)
        domain = OutputDomain(lower, lower + 1.0, frac)
        assert domain.width == 1.0
        for eps in (0.01, 1.0, 30.0):
            budget = PrivacyBudget(eps)
            report = calibrate(ref_domain, budget)
            for theta in thetas:
                b = report.b0 * (report.b_star / report.b0) ** theta if theta < 1 else report.b_star
                ref = check_privacy_inequality(CalibratedMechanism(ref_domain, budget, b), **FAST)
                res = check_privacy_inequality(CalibratedMechanism(domain, budget, b), **FAST)
                case = (lower, frac, eps, theta, res, ref)
                assert (res.passed, res.worst_margin) == (ref.passed, ref.worst_margin), case
                (lo, t), = res.witness["intervals"]
                assert res.witness["q"] == lower + ref.witness["q"], case
                assert (lo, t) == (lower, lower + ref.witness["intervals"][0][1]), case
                fails += not res.passed
    assert fails > 0


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
    # domain too.  The check's log ratio is replaced whole, both of its C's
    # broken, so the fault does not depend on how the core forms the ratio
    def broken(left, right, b):
        return -0.5 * (np.expm1(-left / b) + np.expm1(-2.0 * right / b))

    monkeypatch.setattr(verification, "_log_shift_ratio", lambda w, b, a, z:
                        np.log(broken(a + z, w - a - z, b) / broken(a, w - a, b)))
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


def test_fixed_point_witness_reports_the_unrounded_update():
    # calibrate's f_b0 is its bracket end, f(b0) rounded up one ulp; the
    # check reports f(b0) itself under another name, one ulp below it here
    domain, budget = OutputDomain(0.0, 1.0, 0.5), PrivacyBudget(1000.0)
    w = check_fixed_point_properties(domain, budget).witness
    assert "f_b0" not in w
    assert w["f_of_b0"] == fixed_point_operator(domain, budget, w["b0"])
    assert calibrate(domain, budget).f_b0 == math.nextafter(w["f_of_b0"], math.inf)


def test_fixed_point_check_fails_an_update_below_b0(monkeypatch):
    # the check tests f(b0) unrounded: the bracket's clamp to b0 and its
    # rounding up would hide an update that falls below b0
    domain = OutputDomain(0.0, 1.0, 0.5)
    b0 = baseline_scale(domain, BUDGET)

    def low_at_b0(d, budget, b):
        return math.nextafter(b0, 0.0) if b == b0 else fixed_point_operator(d, budget, b)

    monkeypatch.setattr(verification, "fixed_point_operator", low_at_b0)
    res = check_fixed_point_properties(domain, BUDGET)
    assert not res.passed
    assert res.witness["f_of_b0"] < res.witness["b0"] and res.witness["relative_gap"] < 0.0


def test_ratio_at_baseline_below_feasibility_bound():
    rng = np.random.default_rng(37)
    from bounded_laplace import normalizer_ratio
    for _ in range(15):
        domain, budget = random_problem(rng)
        b0 = baseline_scale(domain, budget)
        bound = budget.epsilon - math.log1p(-budget.delta)
        assert math.log(normalizer_ratio(domain, b0)) < bound


# ------------------------------------------------------- empirical estimator


def _assert_near_closed_form(res, mech, q, q_prime):
    # by two-sided DKW the margin is off by at most the resolution with
    # probability at least 1 - 2 EMPIRICAL_FALSE_ALARM
    closed = closed_form_empirical_margin(mech, q, q_prime)
    assert abs(res.worst_margin - closed) <= res.witness["resolution"], (res, closed)
    return closed


def test_empirical_estimate_identical_queries_near_zero():
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    res = empirical_privacy_estimate(mech, 0.4, 0.4, samples=200_000,
                                     rng=np.random.default_rng(8))
    assert res.passed
    assert abs(res.worst_margin) <= res.witness["resolution"]


def test_empirical_estimate_bounded_by_epsilon_when_calibrated():
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    res = empirical_privacy_estimate(mech, 0.0, 0.5, samples=1_000_000,
                                     rng=np.random.default_rng(15))
    assert res.passed
    assert abs(res.worst_margin) <= res.witness["resolution"]
    assert res.witness["samples"] == 1_000_000


def test_empirical_estimate_catches_miscalibration():
    domain = OutputDomain(0.0, 1.0, 0.5)
    b_bad = baseline_scale(domain, BUDGET) / 2.0
    mech = CalibratedMechanism(domain, BUDGET, b_bad)
    res = empirical_privacy_estimate(mech, 0.0, 0.5, samples=1_000_000,
                                     rng=np.random.default_rng(23))
    assert not res.passed
    closed = _assert_near_closed_form(res, mech, 0.0, 0.5)
    assert closed > 2.0 * res.witness["resolution"]
    lower, t = res.witness["set"]
    assert lower == 0.0 < t < 0.5


def test_empirical_estimate_flags_unreliable_runs():
    # no margin can reach 100 draws' resolution: e^-eps (P_q(A) - delta) is
    # at most e^-eps
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = CalibratedMechanism(domain, BUDGET, baseline_scale(domain, BUDGET) / 2.0)
    res = empirical_privacy_estimate(mech, 0.0, 0.5, samples=100,
                                     rng=np.random.default_rng(4))
    assert res.passed
    assert res.worst_margin <= math.exp(-BUDGET.epsilon) < res.witness["resolution"]
    eta = math.sqrt(math.log(2.0 / verification.EMPIRICAL_FALSE_ALARM) / 200.0)
    assert res.witness["resolution"] == (1.0 + math.exp(-BUDGET.epsilon)) * eta


def test_empirical_estimate_passes_calibrated_scales_at_any_delta():
    # delta up to 0.5; the check tests (eps, delta)-privacy, not a log ratio
    # against eps
    rng = np.random.default_rng(11)
    for k in range(40):
        domain, budget = random_problem(rng, eps_range=(0.05, 5.0))
        mech = calibrated(domain, budget)
        res = empirical_privacy_estimate(mech, *domain.worst_case_pair(), samples=200_000,
                                         rng=np.random.default_rng(k))
        assert res.passed, (domain, budget, res)


@pytest.mark.parametrize("domain, budget", [
    (OutputDomain(0.0, 1.0, 0.5), BUDGET),
    (OutputDomain(0.0, 1.0, 0.02), BUDGET),
    (OutputDomain(0.0, 1.0, 0.5), PrivacyBudget(1.0, 0.1)),
    (OutputDomain(-3.0, 5.0, 2.0), PrivacyBudget(3.0, 0.0)),
    (FAR_DOMAIN, FAR_BUDGET),
])
@pytest.mark.parametrize("at", ["b0", "b_star"])
def test_empirical_margin_matches_closed_form(domain, budget, at):
    scale = baseline_scale(domain, budget) if at == "b0" else calibrate(domain, budget).b_star
    mech = CalibratedMechanism(domain, budget, scale)
    q, q_prime = domain.worst_case_pair()
    for pair in ((q, q_prime), (q_prime, q)):  # lower sets, then upper sets
        res = empirical_privacy_estimate(mech, *pair, samples=200_000,
                                         rng=np.random.default_rng(31))
        _assert_near_closed_form(res, mech, *pair)


def test_empirical_estimate_refuses_nothing_at_huge_epsilon(recwarn):
    budget = PrivacyBudget(1000.0, 0.0)
    mech = calibrated(OutputDomain(0.0, 1.0, 0.5), budget)
    res = empirical_privacy_estimate(mech, 0.0, 0.5, samples=1_000,
                                     rng=np.random.default_rng(2))
    assert res.passed and math.isfinite(res.worst_margin)
    assert not recwarn.list


def test_empirical_estimate_rejects_distant_pair():
    domain = OutputDomain(0.0, 1.0, 0.3)
    mech = calibrated(domain)
    with pytest.raises(ValueError):
        empirical_privacy_estimate(mech, 0.0, 0.9, samples=100,
                                   rng=np.random.default_rng(0))
    # admission is exact: lower + sensitivity, a few ulps more than one
    # sensitivity above lower, is refused in either order
    mech = calibrated(FAR_DOMAIN, FAR_BUDGET)
    pair = (FAR_DOMAIN.lower, FAR_DOMAIN.lower + FAR_DOMAIN.sensitivity)
    for q, q_prime in (pair, pair[::-1]):
        with pytest.raises(ValueError, match="within one sensitivity"):
            empirical_privacy_estimate(mech, q, q_prime, samples=100,
                                       rng=np.random.default_rng(0))


@pytest.mark.parametrize("domain, budget", [
    (OutputDomain(0.0, 1.0, 0.5), BUDGET), (FAR_DOMAIN, FAR_BUDGET)])
@pytest.mark.parametrize("samples", [1, 65_535, 65_536, 65_537, 200_003])
def test_empirical_estimate_blocks_match_one_shot_draws(domain, budget, samples,
                                                        monkeypatch):
    mech = calibrated(domain, budget)
    q, q_prime = domain.worst_case_pair()
    # the check's edges for q < q': the set grid less the lower edge
    edges = mech.quantile(q, np.arange(1, SCAN_GRID) / (SCAN_GRID - 1))
    want = reference_empirical_counts(mech, q, q_prime, np.random.default_rng(5),
                                      samples, edges)
    rng = np.random.default_rng(5)
    got = (_sampled_counts(mech, q, rng, samples, edges),
           _sampled_counts(mech, q_prime, rng, samples, edges))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
        assert g[-1] == samples
    est = empirical_privacy_estimate(mech, q, q_prime, samples=samples,
                                     rng=np.random.default_rng(5))
    # the same check, computed from the one-shot counts
    replay = iter(want)
    monkeypatch.setattr(verification, "_sampled_counts", lambda *args: next(replay))
    ref = empirical_privacy_estimate(mech, q, q_prime, samples=samples,
                                     rng=np.random.default_rng(5))
    assert est == ref


@pytest.mark.parametrize("domain, scale, q", [
    (OutputDomain(0.0, 1.0, 0.5), 0.7, 0.0),    # q at the lower edge: one branch
    (OutputDomain(0.0, 1.0, 0.5), 0.7, 0.3),    # q inside: both branches
    (OutputDomain(0.0, 1.0, 0.5), 1e-3, 0.4),   # width above 700 scales: log form
])
def test_sampled_counts_equal_histogram_of_sample_inverse(domain, scale, q):
    # the cumulative histogram of one sample_inverse call; a partial block
    # follows two full ones, so a stale tail of the scratch that
    # sample_inverse reuses across blocks would be counted
    mech = CalibratedMechanism(domain, BUDGET, scale)
    samples = 2 * mechanism.BLOCK + 123
    edges = mech.quantile(q, np.arange(51) / 50)
    got = _sampled_counts(mech, q, np.random.default_rng(17), samples, edges)
    draws = mech.sample_inverse(q, np.random.default_rng(17), size=samples)
    want = counts_at_or_below(draws, edges)
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
    # edges themselves, so counting a value equal to an edge as at or below
    # it decides some counts; about 70,000 values, so a block boundary falls
    # among them
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
    want = counts_at_or_below(values, edges)
    assert stub.served == values.size > mechanism.BLOCK
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got[0] == 5_000 + 400 and got[-1] == values.size


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
    # set_grid sizes the empirical check's set grid
    domain = OutputDomain(0.0, 1.0, 0.5)
    report = run_all_checks(domain, BUDGET, **FAST, set_grid=40,
                            rng=np.random.default_rng(42), samples=200_000)
    mech = calibrated(domain)
    assert report.checks[-1] == empirical_privacy_estimate(
        mech, *domain.worst_case_pair(), samples=200_000, rng=np.random.default_rng(42),
        set_grid=40)
    assert report.checks[-1] != empirical_privacy_estimate(
        mech, *domain.worst_case_pair(), samples=200_000, rng=np.random.default_rng(42))


def test_run_all_checks_on_domain_far_from_zero():
    # lower + sensitivity lands more than one sensitivity above lower; the
    # worst-case pair steps one ulp back, and the empirical check admits it
    lower, sensitivity = FAR_DOMAIN.lower, FAR_DOMAIN.sensitivity
    assert (lower + sensitivity) - lower > sensitivity
    q, q_prime = FAR_DOMAIN.worst_case_pair()
    assert (q, q_prime) == (lower, math.nextafter(lower + sensitivity, lower))
    assert q_prime - q <= sensitivity
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
    # the empirical check samples the grid check's witness pair
    pair = report.checks[0].witness["q"], report.checks[0].witness["q_prime"]
    assert report.checks[-1] == empirical_privacy_estimate(
        CalibratedMechanism(domain, BUDGET, b0), *pair, samples=200_000,
        rng=np.random.default_rng(42))
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
        report = run_all_checks(domain, budget, scale=scale, q_grid=8, samples=0)
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
    domain = OutputDomain(0.0, 1.0, 0.5)
    mech = calibrated(domain)
    with pytest.raises(ValueError, match="grid sizes must be at least 2"):
        check_privacy_inequality(mech, q_grid=1)
    for samples in (0, 100):
        for grids in ({"q_grid": 1}, {"set_grid": 1}):
            with pytest.raises(ValueError, match="grid sizes must be at least 2"):
                run_all_checks(domain, BUDGET, samples=samples, **grids)
    with pytest.raises(ValueError, match="grid sizes must be at least 2"):
        empirical_privacy_estimate(mech, 0.0, 0.5, samples=100, set_grid=1)
