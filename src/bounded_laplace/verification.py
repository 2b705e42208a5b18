"""Numerical certification of the privacy guarantee and its supporting claims.

The headline check brute-forces the differential-privacy inequality over a
grid of query pairs and a grid family of output intervals; the remaining
checks validate the scalar sufficient condition, the monotonicity facts
behind the worst-case pair location, and the fixed-point facts behind the
calibration bracket, all by direct evaluation or central finite differences.
A failing check is a report outcome, never an exception.

Scope caveat: the privacy guarantee quantifies over all measurable output
sets, while the grid check searches single intervals at finite resolution.
Single intervals lose nothing: the likelihood ratio of two queries is
monotone in the output, so the worst set is an interval.  The grid check is
a sound falsifier: any witness it reports is a real violation, but a pass is
strong evidence rather than a proof.

Checks are pure given their inputs; the empirical estimator takes its own
random generator.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import worst_interval_margin
from .calibration import baseline_scale, calibrate, fixed_point_operator
from .mechanism import CalibratedMechanism, _normalizer, _require_scale, normalizer_ratio

__all__ = [
    "PrivacyCheckConfig",
    "CheckResult",
    "VerificationReport",
    "EmpiricalEstimate",
    "privacy_loss_log_ratio",
    "check_privacy_inequality",
    "check_sufficient_condition",
    "check_ratio_monotonicity",
    "check_fixed_point_properties",
    "empirical_privacy_estimate",
    "run_all_checks",
]

# Central-difference step, relative to the natural scale of the variable.
FD_STEP = 1e-6
# Default slack for finite-difference sign checks; absorbs the cancellation
# noise of double-precision differences at FD_STEP-sized steps.
FD_SLACK = 1e-8
# Absolute slack allowed on the empirical max log-ratio estimate.
EMPIRICAL_SLACK = 0.05
# Draws counted at a time by the empirical estimate.  A block of float64
# draws is 512 KB, so it stays in cache while it is sorted and searched, and
# the estimate's memory does not grow with the sample count.
EMPIRICAL_BLOCK = 65_536


@dataclass(frozen=True)
class PrivacyCheckConfig:
    """Grid resolution and tolerance for the brute-force privacy check.

    ``slack`` is the numeric tolerance added to delta when deciding
    pass/fail.  The output sets searched are the single intervals between
    points of a ``set_grid_size`` grid over the domain.
    """

    q_grid_size: int = 200
    set_grid_size: int = 200
    slack: float = 1e-9

    def __post_init__(self):
        if self.q_grid_size < 2 or self.set_grid_size < 2:
            raise ValueError("grid sizes must be at least 2")
        if self.slack < 0.0:
            raise ValueError(f"slack must be nonnegative, got {self.slack}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    witness: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _pair_tolerance(domain):
    """Rounding allowance on ``|q - q'| <= sensitivity``.

    Grid points and ``lower + sensitivity`` are rounded at the scale of the
    larger domain edge, which can far exceed the width.
    """
    return 8.0 * np.spacing(max(abs(domain.lower), abs(domain.upper), domain.width))


def _scan_grid(mech, config):
    """Query grid ``qs``, set grid ``xs``, the table ``cdf[r, k] = F_{qs[r]}(xs[k])``
    and the admissible pairs ``(pair_a, pair_b)`` of rows of the privacy scan."""
    d = mech.domain
    qs = np.linspace(d.lower, d.upper, config.q_grid_size)
    xs = np.linspace(d.lower, d.upper, config.set_grid_size)
    cdf = mech.cdf(qs[:, None], xs[None, :])
    pair_a, pair_b = np.nonzero(
        np.abs(qs[:, None] - qs[None, :]) <= d.sensitivity + _pair_tolerance(d)
    )
    return qs, xs, cdf, pair_a, pair_b


def check_privacy_inequality(mech, config=None) -> CheckResult:
    """Brute-force the DP inequality over grids of query pairs and intervals.

    For every grid pair (q, q') within one sensitivity of each other and
    every grid interval A, asserts
    ``P(W_q in A) - e^eps * P(W_q' in A) <= delta + slack`` using closed-form
    CDF differences for the interval probabilities.  The worst margin and
    the point achieving it are recorded either way.
    """
    config = config or PrivacyCheckConfig()
    budget = mech.budget
    qs, xs, cdf, pair_a, pair_b = _scan_grid(mech, config)
    raw, pair_idx, intervals = worst_interval_margin(
        cdf, pair_a, pair_b, math.exp(budget.epsilon))
    margin = raw - budget.delta
    witness = {
        "q": float(qs[pair_a[pair_idx]]),
        "q_prime": float(qs[pair_b[pair_idx]]),
        "intervals": [[float(xs[i]), float(xs[j])] for i, j in intervals],
        "scale": float(mech.scale),
    }
    return CheckResult("privacy_inequality", bool(margin <= config.slack),
                       float(margin), witness)


def check_sufficient_condition(mech, slack: float = 1e-9) -> CheckResult:
    """Evaluate the scalar sufficient condition for privacy at the mechanism's scale.

    Passes iff ``exp(eps - sensitivity/b) / ratio(b) + delta >= 1 - slack``;
    the value sits exactly at 1 when b is the calibrated fixed point and
    grows with b.
    """
    d, budget = mech.domain, mech.budget
    value = (
        math.exp(budget.epsilon - d.sensitivity / mech.scale)
        / normalizer_ratio(d, mech.scale)
        + budget.delta
    )
    margin = 1.0 - value
    witness = {"value": float(value), "scale": float(mech.scale)}
    return CheckResult("sufficient_condition", bool(margin <= slack),
                       float(margin), witness)


def privacy_loss_log_ratio(domain, b, q, z):
    """log of (C(q+z)/C(q)) * e^(z/b), broadcast over q and z.

    Working on the log keeps the value finite where e^(z/b) would overflow;
    the monotonicity sign claims are unchanged by the log.
    """
    b = _require_scale(b)
    qa = domain.require_query(q)
    za = np.asarray(z, dtype=float)
    if np.any(za < 0.0):
        raise ValueError("offset z must be nonnegative")
    overshoot = (qa + za) - domain.upper
    if np.any(overshoot > 1e-9 * domain.width):
        raise ValueError("q + z must stay inside the domain")
    shifted = np.minimum(qa + za, domain.upper)
    out = (
        np.log(_normalizer(domain, shifted, b))
        - np.log(_normalizer(domain, qa, b))
        + za / b
    )
    return float(out) if np.ndim(out) == 0 else out


def check_ratio_monotonicity(domain, b, grid: int = 64,
                             slack: float = FD_SLACK) -> CheckResult:
    """Finite-difference sign check of the privacy-loss ratio surface.

    On a grid of (q, z) with q + z inside the domain, the ratio
    (C(q+z)/C(q)) e^(z/b) must be nondecreasing in z and nonincreasing in q;
    both slopes are measured by central differences of the log ratio with a
    step of ``FD_STEP`` times the domain width.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    b = _require_scale(b)
    h = FD_STEP * domain.width
    qs = np.linspace(domain.lower + h, domain.upper - 2.0 * h, grid)
    t = np.linspace(0.0, 1.0, grid)
    q2 = np.broadcast_to(qs[:, None], (grid, grid))
    span = np.maximum(domain.upper - qs[:, None] - 2.0 * h, 0.0)
    z2 = h + t[None, :] * span
    dz = (privacy_loss_log_ratio(domain, b, q2, z2 + h)
          - privacy_loss_log_ratio(domain, b, q2, z2 - h)) / (2.0 * h)
    dq = (privacy_loss_log_ratio(domain, b, q2 + h, z2)
          - privacy_loss_log_ratio(domain, b, q2 - h, z2)) / (2.0 * h)
    kz = np.unravel_index(np.argmin(dz), dz.shape)
    kq = np.unravel_index(np.argmax(dq), dq.shape)
    margin_z = float(-dz[kz])
    margin_q = float(dq[kq])
    if margin_z >= margin_q:
        witness = {"derivative": "z", "q": float(q2[kz]), "z": float(z2[kz]),
                   "slope": float(dz[kz]), "scale": b}
    else:
        witness = {"derivative": "q", "q": float(q2[kq]), "z": float(z2[kq]),
                   "slope": float(dq[kq]), "scale": b}
    margin = max(margin_z, margin_q)
    return CheckResult("ratio_monotonicity", bool(margin <= slack), margin, witness)


def check_fixed_point_properties(domain, budget, grid: int = 40,
                                 slack: float = FD_SLACK) -> CheckResult:
    """Check the facts that make the calibration bracket work.

    Asserts that the update map at the baseline scale does not fall below it
    (with equality exactly when the sensitivity spans the domain), that the
    map and the normalizer ratio are nonincreasing in the scale along a
    log-spaced grid of scales, and that the ratio at the baseline scale
    stays below e^eps / (1 - delta) so the update is well defined.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    b0 = baseline_scale(domain, budget)
    f_b0 = fixed_point_operator(domain, budget, b0)
    rel_gap = (f_b0 - b0) / b0
    spans = domain.sensitivity >= domain.width * (1.0 - 1e-12)

    bs = np.geomspace(b0, 100.0 * b0, grid)
    f_slopes = np.empty(grid)
    ratio_slopes = np.empty(grid)
    for k, b in enumerate(bs):
        h = FD_STEP * b
        f_slopes[k] = (fixed_point_operator(domain, budget, b + h)
                       - fixed_point_operator(domain, budget, b - h)) / (2.0 * h)
        # scaled by b so the margin is dimensionless like the others
        ratio_slopes[k] = b * (normalizer_ratio(domain, b + h)
                               - normalizer_ratio(domain, b - h)) / (2.0 * h)
    # Written as -sensitivity/f(b0) so the sign cannot be lost to rounding.
    headroom = -domain.sensitivity / f_b0

    init_margin = -rel_gap
    f_margin = float(f_slopes.max())
    ratio_margin = float(ratio_slopes.max())
    margin = max(init_margin, f_margin, ratio_margin, headroom)
    passed = margin <= slack and headroom < 0.0
    if spans:
        passed = passed and abs(rel_gap) <= 1e-12 \
            and float(np.abs(f_slopes).max()) <= slack \
            and float(np.abs(ratio_slopes).max()) <= slack
    else:
        passed = passed and rel_gap > 0.0
    witness = {
        "b0": float(b0),
        "f_b0": float(f_b0),
        "relative_gap": float(rel_gap),
        "worst_f_slope": float(f_slopes.max()),
        "worst_f_slope_scale": float(bs[int(f_slopes.argmax())]),
        "worst_ratio_slope": float(ratio_slopes.max()),
        "ratio_headroom": float(headroom),
        "sensitivity_spans_domain": bool(spans),
    }
    return CheckResult("fixed_point_properties", bool(passed), float(margin), witness)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Sampled max log-ratio of binned output frequencies.

    ``reliable`` is False when fewer than half the bins had at least
    ``floor`` samples on both sides.
    """

    estimate: float
    reliable: bool
    bins_used: int
    witness_bin: tuple | None


def _sampled_counts(mech, q, rng, samples, edges):
    """Histogram over ``edges`` of ``samples`` inverse-transform draws at q,
    drawn and counted ``EMPIRICAL_BLOCK`` at a time.

    Each block is sorted in place and the edges are located in it by binary
    search, as ``np.histogram`` does for explicit edges but without its copy
    of the block: ``cum[k]`` counts the draws below ``edges[k]``, and the last
    entry those up to and including ``edges[-1]``, so every bin is half-open
    except the last, which is closed.
    """
    cum = np.zeros(edges.size, dtype=np.intp)
    for start in range(0, samples, EMPIRICAL_BLOCK):
        block = mech.sample_inverse(q, rng, size=min(EMPIRICAL_BLOCK, samples - start))
        block.sort()  # sample_inverse returns a fresh array, ours to reorder
        cum[:-1] += block.searchsorted(edges[:-1], "left")
        cum[-1:] += block.searchsorted(edges[-1:], "right")
    return np.diff(cum)


def empirical_privacy_estimate(mech, q, q_prime, samples: int = 1_000_000,
                               bins: int = 50, rng=None,
                               floor: int = 10) -> EmpiricalEstimate:
    """Monte-Carlo sanity check complementing the analytic privacy check.

    Draws ``samples`` outputs for each of q and q', bins them over the
    domain, and returns the max over bins of log(freq_q / freq_q') among
    bins where both counts reach ``floor``.  For a private mechanism the
    estimate should not exceed epsilon by more than sampling noise.

    The draws are counted in blocks of ``EMPIRICAL_BLOCK``, each sorted in
    place, so working memory is O(block + bins) whatever ``samples`` is.  The
    counts are those of ``np.histogram`` over ``edges``.  The blocks continue
    one generator stream, so the counts equal those of drawing all samples at
    once (unless the generator returns an exact 0.0, whose redraw then comes
    from a later stream position).
    """
    d = mech.domain
    q = float(d.require_query(q))
    q_prime = float(d.require_query(q_prime))
    if abs(q - q_prime) > d.sensitivity + _pair_tolerance(d):
        raise ValueError("q and q_prime must be within one sensitivity of each other")
    if samples < 1 or bins < 1:
        raise ValueError("samples and bins must be positive")
    if rng is None:
        rng = np.random.default_rng()
    edges = np.linspace(d.lower, d.upper, bins + 1)
    count_q = _sampled_counts(mech, q, rng, samples, edges)
    count_p = _sampled_counts(mech, q_prime, rng, samples, edges)
    used = (count_q >= floor) & (count_p >= floor)
    if not used.any():
        return EmpiricalEstimate(math.nan, False, 0, None)
    log_ratio = np.log(count_q[used]) - np.log(count_p[used])
    k = int(np.argmax(log_ratio))
    used_idx = np.nonzero(used)[0]
    bin_idx = int(used_idx[k])
    reliable = int(used.sum()) >= max(1, bins // 2)
    return EmpiricalEstimate(
        estimate=float(log_ratio[k]),
        reliable=bool(reliable),
        bins_used=int(used.sum()),
        witness_bin=(float(edges[bin_idx]), float(edges[bin_idx + 1])),
    )


def run_all_checks(domain, budget, scale=None, config=None, rng=None,
                   samples: int = 1_000_000, bins: int = 50) -> VerificationReport:
    """Run the full check suite against one mechanism.

    ``scale=None`` calibrates first; passing the baseline scale instead is
    the canonical way to reproduce the non-guarantee.  ``samples=0`` skips
    the empirical estimate.
    """
    config = config or PrivacyCheckConfig()
    if scale is None:
        scale = calibrate(domain, budget).b_star
    mech = CalibratedMechanism(domain, budget, scale)
    checks = [
        check_privacy_inequality(mech, config),
        check_sufficient_condition(mech, slack=config.slack),
        check_ratio_monotonicity(domain, mech.scale),
        check_fixed_point_properties(domain, budget),
    ]
    if samples:
        q, q_prime = domain.worst_case_pair()
        est = empirical_privacy_estimate(mech, q, q_prime, samples=samples,
                                         bins=bins, rng=rng)
        margin = est.estimate - budget.epsilon
        passed = (not est.reliable) or margin <= EMPIRICAL_SLACK
        checks.append(CheckResult(
            "empirical_privacy",
            bool(passed),
            float(margin),
            {
                "estimate": est.estimate,
                "epsilon": float(budget.epsilon),
                "reliable": est.reliable,
                "bins_used": est.bins_used,
                "witness_bin": list(est.witness_bin) if est.witness_bin else None,
                "samples": int(samples),
            },
        ))
    return VerificationReport(tuple(checks))
