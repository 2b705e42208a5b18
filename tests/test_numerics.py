"""The closed-form masses against an mpmath oracle at every scale.

Scales run from 1e-9 to 1e12 times the domain width, with the query at both
edges and at the midpoint, on a unit domain, a negative one and one far from
zero.  Tolerances are fixed: relative 1e-12 for the CDF where it is at least
1e-290, 1e-14 of the width for the quantile, one ulp for the normalizer
ratio and relative 1e-14 for the epsilon it implies.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounded_laplace import (
    CalibratedMechanism,
    OutputDomain,
    PrivacyBudget,
    achieved_epsilon,
    normalizer_ratio,
)
from helpers import mp_cdf, mp_normalizer_ratio, mp_quantile

DOMAINS = [
    OutputDomain(0.0, 1.0, 0.5),
    OutputDomain(-4.0, -1.0, 1.2),
    OutputDomain(10.0, 12.0, 0.7),
]
DOMAIN_IDS = ["unit", "negative", "far_from_zero"]
RATIOS = np.geomspace(1e-9, 1e12, 22)  # scale / width
X_FRACS = [0.0, 1e-7, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-7, 1.0]
PS = [0.0, 1e-300, 1e-12, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6, 1.0 - 2.0**-52, 1.0]


def queries(domain):
    return domain.lower, domain.lower + 0.5 * domain.width, domain.upper


def mechanism(domain, ratio):
    return CalibratedMechanism(domain, PrivacyBudget(1.0), float(ratio) * domain.width)


def assert_cdf_exact(mech, q, x):
    want = mp_cdf(mech.domain, q, mech.scale, x)
    if want >= mpmath.mpf("1e-290"):
        got = mech.cdf(q, x)
        assert abs(got - want) <= 1e-12 * want, (mech.scale, q, x, got, float(want))


def assert_quantile_exact(mech, q, p):
    want = mp_quantile(mech.domain, q, mech.scale, p)
    got = mech.quantile(q, p)
    assert abs(got - want) <= 1e-14 * mech.domain.width, (mech.scale, q, p, got, float(want))


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_cdf_matches_mpmath_at_every_scale(domain):
    for ratio in RATIOS:
        mech = mechanism(domain, ratio)
        for q in queries(domain):
            for f in X_FRACS:
                assert_cdf_exact(mech, q, domain.lower + f * domain.width)


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_quantile_matches_mpmath_at_every_scale(domain):
    for ratio in RATIOS:
        mech = mechanism(domain, ratio)
        for q in queries(domain):
            for p in PS:
                assert_quantile_exact(mech, q, p)


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_normalizer_ratio_matches_mpmath_at_every_scale(domain):
    for ratio in RATIOS:
        b = float(ratio) * domain.width
        want = mp_normalizer_ratio(domain, b)
        got = normalizer_ratio(domain, b)
        assert abs(got - want) <= np.spacing(got), b
        # the epsilon of that ratio, log(ratio) + sensitivity / b, to the
        # same relative precision even where log(ratio) is far below 1e-16
        eps = mpmath.log(want) + mpmath.mpf(domain.sensitivity) / b
        assert abs(achieved_epsilon(domain, b) - eps) <= 1e-14 * eps, b


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(0, len(DOMAINS) - 1),
    log_ratio=st.floats(-9.0, 12.0),
    q_at=st.sampled_from([0.0, 0.5, 1.0]),
    frac=st.floats(0.0, 1.0),
)
def test_cdf_and_quantile_match_mpmath_property(k, log_ratio, q_at, frac):
    domain = DOMAINS[k]
    mech = mechanism(domain, 10.0 ** log_ratio)
    q = min(domain.lower + q_at * domain.width, domain.upper)
    assert_cdf_exact(mech, q, domain.lower + frac * domain.width)
    assert_quantile_exact(mech, q, frac)
