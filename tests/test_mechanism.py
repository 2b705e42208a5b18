import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from bounded_laplace import (
    CalibratedMechanism,
    OutputDomain,
    PrivacyBudget,
    UnsatisfiableBudgetError,
    calibrate,
    normalizer,
    normalizer_ratio,
    sample_truncated,
)
from bounded_laplace.mechanism import BLOCK
from helpers import laplace_mass_quadrature, reference_quantile, reference_rejection


UNIT = OutputDomain(0.0, 1.0, 0.5)
BUDGET = PrivacyBudget(1.0, 0.0)


def unit_mech(scale=0.7, sensitivity=0.5):
    return CalibratedMechanism(OutputDomain(0.0, 1.0, sensitivity), BUDGET, scale)


class _ScriptedLaplace:
    """Stand-in generator replaying fixed 'unbounded' draws."""

    def __init__(self, values):
        self.values = list(values)

    def laplace(self, loc, scale, size=None):
        n = 1 if size is None else int(size)
        out = np.asarray(self.values[:n], dtype=float)
        del self.values[:n]
        return out


# ---------------------------------------------------------------- validation


def test_budget_rejects_zero_zero():
    with pytest.raises(UnsatisfiableBudgetError):
        PrivacyBudget(0.0, 0.0)


def test_budget_rejects_delta_one():
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1.0)


def test_budget_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        PrivacyBudget(-0.1, 0.1)


def test_budget_allows_zero_epsilon_with_delta():
    assert PrivacyBudget(0.0, 0.3).delta == 0.3


def test_domain_rejects_inverted_interval():
    with pytest.raises(ValueError):
        OutputDomain(1.0, 0.0, 0.5)


def test_domain_rejects_oversized_sensitivity():
    with pytest.raises(ValueError):
        OutputDomain(0.0, 1.0, 1.0 + 1e-9)


def test_domain_rejects_nonpositive_sensitivity():
    with pytest.raises(ValueError):
        OutputDomain(0.0, 1.0, 0.0)


def test_domain_rejects_infinite_edges():
    with pytest.raises(ValueError):
        OutputDomain(0.0, math.inf, 1.0)


def test_domain_rejects_a_width_that_overflows():
    # both edges are finite, but upper - lower rounds to inf
    with pytest.raises(ValueError, match="width upper - lower must be finite, got inf"):
        OutputDomain(-1e308, 1e308, 1.0)


def test_query_outside_domain_rejected():
    with pytest.raises(ValueError):
        UNIT.require_query(1.5)
    with pytest.raises(ValueError):
        normalizer(UNIT, -0.1, 1.0)


def test_query_at_boundary_allowed():
    assert normalizer(UNIT, 0.0, 1.0) > 0.0
    assert normalizer(UNIT, 1.0, 1.0) > 0.0


@pytest.mark.parametrize("domain", [
    UNIT, OutputDomain(-9.993759296579928, -9.784134590603939, 0.1048123529879943)])
def test_require_query_scalar_verdicts_and_messages(domain):
    lo, hi = domain.lower, domain.upper
    not_finite = "query value must be finite, got {!r}"
    outside = f"query value {{!r}} outside the output domain [{lo}, {hi}]"
    cases = [(math.nan, not_finite), (math.inf, not_finite), (-math.inf, not_finite),
             (math.nextafter(lo, -math.inf), outside),
             (math.nextafter(hi, math.inf), outside),
             (lo, None), (hi, None), (math.nextafter(lo, hi), None)]
    for x, message in cases:
        # the scalar forms, and a one-element array on the array path
        for q in (x, np.float64(x), np.asarray(x), np.array([x])):
            if message is None:
                qa = domain.require_query(q)
                assert qa.dtype == np.float64 and qa.shape == np.shape(q)
                assert np.array_equal(qa, q)
            else:
                with pytest.raises(ValueError) as info:
                    domain.require_query(q)
                assert str(info.value) == message.format(q)


def test_mechanism_rejects_bad_scale():
    with pytest.raises(ValueError):
        CalibratedMechanism(UNIT, BUDGET, 0.0)


# ---------------------------------------------------------------- normalizer


def test_normalizer_quarter_at_lower_edge():
    # e^{-(u-l)/b} = 1/2 at b = 1/ln 2, so C = 1 - (1 + 1/2)/2 = 0.25
    b = 1.0 / math.log(2.0)
    assert normalizer(UNIT, 0.0, b) == pytest.approx(0.25, abs=1e-15)


def test_normalizer_half_at_midpoint():
    b = 0.5 / math.log(2.0)
    assert normalizer(UNIT, 0.5, b) == pytest.approx(0.5, abs=1e-15)


def test_normalizer_matches_quadrature():
    oracle = laplace_mass_quadrature(UNIT, 0.3, 0.7, 0.0, 1.0)
    assert normalizer(UNIT, 0.3, 0.7) == pytest.approx(oracle, abs=1e-10)


def test_normalizer_open_unit_interval_and_edge_minimum():
    qs = np.linspace(0.0, 1.0, 201)
    for b in (0.05, 0.5, 5.0, 500.0):
        c = normalizer(UNIT, qs, b)
        assert np.all((c > 0.0) & (c < 1.0))
        # minimised at the domain edges
        assert c.argmin() in (0, 200)
        assert c[0] == pytest.approx(c[-1], rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    lower=st.floats(-3.0, 3.0),
    width=st.floats(0.1, 50.0),
    q_frac=st.floats(0.0, 1.0),
    b_frac=st.floats(0.01, 100.0),
)
def test_normalizer_symmetric_about_midpoint(lower, width, q_frac, b_frac):
    upper = lower + width
    domain = OutputDomain(lower, upper, upper - lower)
    q = min(lower + q_frac * width, upper)
    # lower + (upper - q) avoids the cancellation of upper + lower - q
    mirror = min(max(lower + (upper - q), lower), upper)
    b = b_frac * width
    assert normalizer(domain, q, b) == pytest.approx(
        normalizer(domain, mirror, b), rel=1e-11)


# ----------------------------------------------------------- normalizer_ratio


def test_ratio_is_one_when_sensitivity_spans_domain():
    domain = OutputDomain(0.0, 1.0, 1.0)
    for b in (0.01, 0.3, 1.0, 42.0):
        assert normalizer_ratio(domain, b) == 1.0


def test_ratio_closed_form_at_half_width():
    # C_{0.5}(0.5) = 1 - e^{-1}, C_0(0.5) = (1 - e^{-2})/2
    expected = (1.0 - math.exp(-1.0)) / (0.5 * (1.0 - math.exp(-2.0)))
    assert normalizer_ratio(UNIT, 0.5) == pytest.approx(expected, rel=1e-14)


def test_ratio_dominates_grid_maximum():
    # worst pair over q in [l, u - dq] is the one starting at the lower edge
    for b in (0.1, 0.5, 2.0):
        qs = np.linspace(0.0, 0.5, 400)
        grid_max = np.max(
            normalizer(UNIT, qs + 0.5, b) / normalizer(UNIT, qs, b))
        assert normalizer_ratio(UNIT, b) >= grid_max - 1e-12


def test_ratio_at_least_one_random_domains():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lower = rng.uniform(-5, 5)
        width = rng.uniform(0.1, 10)
        sens = width * rng.uniform(0.05, 1.0)
        domain = OutputDomain(lower, lower + width, min(sens, width))
        b = width * 10 ** rng.uniform(-2, 2)
        assert normalizer_ratio(domain, b) >= 1.0


def test_privacy_loss_ratio_maximised_at_lower_edge_pair():
    # grid max of (C_q'/C_q) e^{|q'-q|/b} sits at (l, l+dq) or its exact
    # mirror (u, u-dq)
    domain = OutputDomain(-1.0, 3.0, 1.5)
    b = 0.9
    qs = np.linspace(domain.lower, domain.upper, 201)
    c = normalizer(domain, qs, b)
    sep = np.abs(qs[:, None] - qs[None, :])
    ratio = np.where(sep <= domain.sensitivity + 1e-12,
                     (c[None, :] / c[:, None]) * np.exp(sep / b), -np.inf)
    i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    cell = qs[1] - qs[0]
    near_low = abs(qs[i] - domain.lower) <= cell and \
        abs(qs[j] - (domain.lower + domain.sensitivity)) <= cell
    near_high = abs(qs[i] - domain.upper) <= cell and \
        abs(qs[j] - (domain.upper - domain.sensitivity)) <= cell
    assert near_low or near_high


# ----------------------------------------------------------------------- pdf


def test_pdf_zero_outside_domain():
    mech = unit_mech()
    assert mech.pdf(0.3, -0.01) == 0.0
    assert mech.pdf(0.3, 1.01) == 0.0


def test_pdf_mode_value():
    mech = unit_mech(scale=0.7)
    expected = 1.0 / (normalizer(UNIT, 0.3, 0.7) * 2.0 * 0.7)
    assert mech.pdf(0.3, 0.3) == pytest.approx(expected, rel=1e-14)


def test_pdf_integrates_to_one():
    for q, b in [(0.0, 0.2), (0.3, 0.7), (1.0, 1.5), (0.5, 0.05)]:
        mech = unit_mech(scale=b)
        total, _ = integrate.quad(lambda x: mech.pdf(q, x), 0.0, 1.0,
                                  points=[q], limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)


# ----------------------------------------------------------------------- cdf


def test_cdf_support_endpoints():
    mech = unit_mech()
    assert mech.cdf(0.3, 0.0) == 0.0
    assert mech.cdf(0.3, 1.0) == 1.0
    assert mech.cdf(0.3, -5.0) == 0.0
    assert mech.cdf(0.3, 5.0) == 1.0


def test_cdf_half_at_symmetric_midpoint():
    for b in (0.1, 0.8, 3.0):
        mech = unit_mech(scale=b)
        assert mech.cdf(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_cdf_matches_quadrature():
    for q, b, x in [(0.3, 0.7, 0.6), (0.0, 0.2, 0.1), (0.9, 1.4, 0.35),
                    (0.5, 0.05, 0.52)]:
        mech = unit_mech(scale=b)
        oracle = (laplace_mass_quadrature(UNIT, q, b, 0.0, x)
                  / laplace_mass_quadrature(UNIT, q, b, 0.0, 1.0))
        assert mech.cdf(q, x) == pytest.approx(oracle, abs=1e-10)


def test_cdf_strictly_increasing_inside():
    mech = unit_mech(scale=0.4)
    xs = np.linspace(0.0, 1.0, 500)
    vals = mech.cdf(0.25, xs)
    assert np.all(np.diff(vals) > 0.0)


# ------------------------------------------------------------------ quantile


def test_quantile_endpoints_and_median():
    mech = unit_mech(scale=0.8)
    assert mech.quantile(0.3, 0.0) == 0.0
    assert mech.quantile(0.3, 1.0) == 1.0
    assert mech.quantile(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    # exactly the edges at every query, also for scales far below the width
    qs = np.linspace(0.0, 1.0, 37)
    for b in np.geomspace(1e-6, 10.0, 36):
        mech = unit_mech(scale=b)
        assert np.all(mech.quantile(qs, 0.0) == 0.0)
        assert np.all(mech.quantile(qs, 1.0) == 1.0)


def test_quantile_rejects_out_of_range_p():
    mech = unit_mech()
    with pytest.raises(ValueError):
        mech.quantile(0.3, -0.001)
    with pytest.raises(ValueError):
        mech.quantile(0.3, 1.001)


def test_quantile_matches_root_find_oracle():
    # bracketing root-find on the cdf is the independent inverse
    for q, b, p in [(0.3, 0.7, 0.3), (0.8, 0.15, 0.9), (0.0, 2.0, 0.45),
                    (0.6, 0.05, 0.99)]:
        mech = unit_mech(scale=b)
        x = mech.quantile(q, p)
        root = optimize.brentq(lambda t: mech.cdf(q, t) - p, 0.0, 1.0,
                               xtol=1e-15)
        assert mech.cdf(q, x) == pytest.approx(p, abs=1e-12)
        assert x == pytest.approx(root, abs=1e-9)


def test_quantile_cdf_identity_on_grid():
    ps = np.linspace(0.0, 1.0, 201)
    for q, b in [(0.0, 0.3), (0.5, 1.0), (0.95, 0.08), (0.2, 15.0)]:
        mech = unit_mech(scale=b)
        back = mech.cdf(q, mech.quantile(q, ps))
        assert np.max(np.abs(back - ps)) <= 1e-10


def test_quantile_monotone_in_p():
    mech = unit_mech(scale=0.33)
    ps = np.linspace(0.0, 1.0, 400)
    xs = mech.quantile(0.7, ps)
    assert np.all(np.diff(xs) >= 0.0)


@settings(max_examples=200, deadline=None)
@given(
    lower=st.floats(-20.0, 20.0),
    width=st.floats(0.05, 50.0),
    q_frac=st.floats(0.0, 1.0),
    b_frac=st.floats(0.01, 100.0),
    p=st.floats(0.0, 1.0),
)
def test_quantile_cdf_roundtrip_property(lower, width, q_frac, b_frac, p):
    upper = lower + width
    domain = OutputDomain(lower, upper, upper - lower)
    mech = CalibratedMechanism(domain, BUDGET, b_frac * width)
    q = min(lower + q_frac * width, domain.upper)
    assert mech.cdf(q, mech.quantile(q, p)) == pytest.approx(p, abs=1e-10)


def test_quantile_bitwise_equal_to_reference_formula():
    rng = np.random.default_rng(31)
    domain = OutputDomain(-2.0, 3.0, 1.0)
    edges_and_inside = np.array([domain.lower, 0.7, domain.upper])
    for ratio in np.geomspace(1e-3, 1e3, 13):
        mech = CalibratedMechanism(domain, BUDGET, ratio * domain.width)
        cases = [(float(rng.uniform(domain.lower, domain.upper)), float(rng.random())),
                 (edges_and_inside[:, None], rng.random(64)[None, :])]
        for q in edges_and_inside:
            cases += [(q, rng.random(100_000)), (q, np.array([0.0, 0.5, 1.0]))]
        for q, p in cases:
            got, want = mech.quantile(q, p), reference_quantile(mech, q, p)
            assert type(got) is type(want)
            assert np.array_equal(got, want)


def test_sample_inverse_is_reference_quantile_of_its_uniforms():
    mech = unit_mech(scale=0.45)
    for size in (None, BLOCK + 1, 100_000):  # one block, then a 1-draw and a partial tail
        got = mech.sample_inverse(0.2, np.random.default_rng(7), size=size)
        u = np.random.default_rng(7).random(1 if size is None else size)
        assert np.all(u > 0.0)  # no zero redrawn: these are the uniforms used
        want = reference_quantile(mech, 0.2, u)
        if size is None:
            assert type(got) is float and got == want[0]
        else:
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        mech.sample_inverse(1.5, np.random.default_rng(7))
    with pytest.raises(ValueError):
        mech.sample_inverse(-0.1, np.random.default_rng(7), size=10)


def test_quantile_and_sampler_never_write_callers_arrays():
    mech = unit_mech(scale=0.45)
    rng = np.random.default_rng(12)
    bulk = rng.random(10_000)
    cases = [
        (0.0, bulk),                                 # every p above q: one branch
        (0.3, np.concatenate([bulk, [0.0, 1.0]])),   # a mixed mask
        (np.array([0.0, 0.3, 1.0])[:, None], bulk[None, :500]),  # broadcast
    ]
    for q, p in cases:
        arrays = [a for a in (q, p) if isinstance(a, np.ndarray)]
        saved = [a.copy() for a in arrays]
        for a in arrays:
            a.flags.writeable = False  # an in-place write raises
        got = mech.quantile(q, p)
        assert got.shape == np.broadcast_shapes(np.shape(q), p.shape)
        assert not any(np.shares_memory(got, a) for a in arrays)
        for a, before in zip(arrays, saved):
            assert np.array_equal(a, before)
    a = mech.sample_inverse(0.3, rng, size=1_000)
    b = mech.sample_inverse(0.3, rng, size=1_000)
    assert a is not b and not np.shares_memory(a, b)


def test_sample_inverse_scratch_does_not_grow_with_size():
    mech = unit_mech(scale=0.45)
    mech.sample_inverse(0.3, np.random.default_rng(0), size=BLOCK + 1)  # warm-up
    for size in (1_000_000, 2_000_000):
        tracemalloc.start()
        try:
            x = mech.sample_inverse(0.3, np.random.default_rng(0), size=size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the result, one block of scratch; drawing all at once took
        # 9 bytes of scratch per draw
        assert peak - x.nbytes < 2_000_000, (size, peak)


# ------------------------------------------------------------------ samplers


def test_sample_inverse_support_and_determinism():
    mech = unit_mech(scale=0.6)
    a = mech.sample_inverse(0.2, np.random.default_rng(123), size=1000)
    b = mech.sample_inverse(0.2, np.random.default_rng(123), size=1000)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert np.array_equal(a, b)
    single = mech.sample_inverse(0.2, np.random.default_rng(123))
    assert single == a[0]


def test_sample_inverse_ks_against_cdf():
    mech = unit_mech(scale=0.7)
    samples = mech.sample_inverse(0.3, np.random.default_rng(2024), size=100_000)
    stat = stats.kstest(samples, lambda x: mech.cdf(0.3, x))
    assert stat.pvalue > 0.05


def test_sample_rejection_support_draws_and_distribution():
    mech = unit_mech(scale=0.7)
    rng = np.random.default_rng(77)
    values, draws = mech.sample_rejection(0.3, rng, size=100_000)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert draws.min() >= 1

    c = normalizer(UNIT, 0.3, 0.7)
    expected = 1.0 / c
    se = math.sqrt((1.0 - c) / c**2 / draws.size)
    assert abs(draws.mean() - expected) <= 3.0 * se

    inverse = mech.sample_inverse(0.3, np.random.default_rng(78), size=100_000)
    assert stats.ks_2samp(values, inverse).pvalue > 0.01


def test_sample_rejection_scalar_form():
    mech = unit_mech(scale=0.4)
    value, draws = mech.sample_rejection(0.5, np.random.default_rng(5))
    assert 0.0 <= value <= 1.0
    assert draws >= 1


@pytest.mark.parametrize("epsilon, sensitivity, scale, size", [
    # acceptance about 0.005: the calibrated scale at a small budget
    (0.01, 1.0, None, 20_000),
    (0.01, 1.0, None, None),
    # acceptance about 0.38 at the edges and 0.50 inside
    (1.0, 0.5, 0.7, 5_000),
    (1.0, 0.5, 0.7, None),
])
@pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
def test_sample_rejection_bitwise_equal_to_reference(epsilon, sensitivity, scale,
                                                     size, q):
    domain = OutputDomain(0.0, 1.0, sensitivity)
    budget = PrivacyBudget(epsilon)
    if scale is None:
        scale = calibrate(domain, budget).b_star
    mech = CalibratedMechanism(domain, budget, scale)
    got = mech.sample_rejection(q, np.random.default_rng(31), size=size)
    want = reference_rejection(mech, q, np.random.default_rng(31), size=size)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.array_equal(g, w)
        if size is not None:
            assert g.dtype == w.dtype


def test_sample_truncated_clamps_to_lower_bound():
    # an unbounded draw of -1.71 on a count-style domain projects to 0
    domain = OutputDomain(0.0, 10.0, 1.0)
    rng = _ScriptedLaplace([-1.71])
    assert sample_truncated(domain, 0.0, 1.0, rng) == 0.0


def test_sample_truncated_identity_inside_domain():
    domain = OutputDomain(0.0, 10.0, 1.0)
    rng = _ScriptedLaplace([2.31])
    assert sample_truncated(domain, 0.0, 1.0, rng) == 2.31


def test_sample_truncated_boundary_point_mass():
    domain = OutputDomain(0.0, 1.0, 0.5)
    q, b, n = 0.25, 0.5, 100_000
    x = sample_truncated(domain, q, b, np.random.default_rng(11), size=n)
    assert np.all((x >= 0.0) & (x <= 1.0))
    p_low = 0.5 * math.exp(-(q - 0.0) / b)  # unbounded lower tail mass
    frac = np.mean(x == 0.0)
    se = math.sqrt(p_low * (1.0 - p_low) / n)
    assert abs(frac - p_low) <= 3.0 * se
