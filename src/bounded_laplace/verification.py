"""Numerical certification of the privacy guarantee and its supporting claims.

The headline check scans the differential-privacy inequality over query
pairs exactly one sensitivity apart and a family of output intervals; the
remaining checks validate the scalar sufficient condition through
``achieved_epsilon``, the monotonicity facts behind the worst-case pair
location (on offsets from the lower edge, so every translate of a domain
gets the same result), and the fixed-point facts behind the calibration
bracket, all by direct evaluation or central finite differences, and
sample the worst-case pair.  Every check returns a ``CheckResult``; a
failing check is a report outcome, never an exception.

Scope caveat: the privacy guarantee quantifies over all measurable output
sets and all query pairs, while the grid check searches single intervals
at finite resolution.  Single intervals lose nothing: the likelihood ratio
of two queries is monotone in the output, so the worst set is an interval.
Each grid query q is paired with ``min(q + sensitivity, upper)`` and
``max(q - sensitivity, lower)``: for q < q' the worst set is a lower
interval, on which the violation grows with q', so the farthest admissible
partner is the worst.  Each q has its own set grid, the quantiles of q's law
at equal steps of probability, so the grid follows the law however small the
sensitivity or the scale is against the width.  The grid check is a sound
falsifier: any witness it reports is a real violation, up to the rounding
of the closed-form masses; a pass is evidence at the grid's resolution, not
a proof.

Grid sizes and the sample count are plain ints defaulting to ``SCAN_GRID``
and ``EMPIRICAL_SAMPLES``, as the CLI's flags do; all else is a constant.

Checks are pure given their inputs; the empirical estimator takes its own
random generator.
"""

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import worst_interval_margin
from .calibration import achieved_epsilon, baseline_scale, calibrate, fixed_point_operator
from .mechanism import (BLOCK, CalibratedMechanism, _inside_mass, _require_scale,
                        normalizer_ratio)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_privacy_inequality",
    "check_sufficient_condition",
    "check_ratio_monotonicity",
    "check_fixed_point_properties",
    "empirical_privacy_estimate",
    "run_all_checks",
]

# Points of the privacy scan's query grid and of its output-set grid.
SCAN_GRID = 200
# Slack on the privacy inequality, added to delta; absorbs the rounding of
# the closed-form masses.  It also caps the sufficient condition's allowance.
PRIVACY_SLACK = 1e-9
# The sufficient condition's allowance in units of u * eps', with u = 2**-53
# and eps' = eps - log1p(-delta).  Evaluating achieved_epsilon errs by at most
# 4u * eps' (s/b, log R, their sum, log1p(-delta), the last sum).
SUFFICIENT_ROUNDING = 4
# Central-difference step, relative to the natural scale of the variable.
FD_STEP = 1e-6
# Slack for finite-difference sign checks; absorbs the cancellation noise of
# double-precision differences at FD_STEP-sized steps.
FD_SLACK = 1e-8
# Points of each axis of the (q, z) grid of the ratio-monotonicity check.
MONOTONICITY_GRID = 64
# Log-spaced scales at which the fixed-point slopes are differenced.
FIXED_POINT_GRID = 40
# Draws per query of the empirical estimate.
EMPIRICAL_SAMPLES = 1_000_000
# Absolute slack allowed on the empirical max log-ratio estimate.
EMPIRICAL_SLACK = 0.05
# Equal-width bins of the empirical estimate, and the count both queries
# need in a bin for it to enter the estimate.
EMPIRICAL_BINS = 50
EMPIRICAL_FLOOR = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_margin: float
    witness: dict

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    """The results of :func:`run_all_checks` in order, and the scale checked."""

    checks: tuple
    scale: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
            "scale": self.scale,
        }


def _pair_tolerance(domain):
    """Rounding allowance on ``|q - q'| <= sensitivity``.

    Grid points and ``lower + sensitivity`` are rounded at the scale of the
    larger domain edge, which can far exceed the width.
    """
    return 8.0 * np.spacing(max(abs(domain.lower), abs(domain.upper), domain.width))


def _scan_grid(mech, q_grid, set_grid):
    """The tables of the privacy scan, one side at a time.

    Queries ``qs`` form a ``q_grid`` linspace of the domain.  Query ``qs[r]``
    has its own set grid ``xs[r, k] = quantile(qs[r], k / (set_grid - 1))``,
    equal-mass under ``qs[r]`` with the domain edges at both ends, and the
    table ``F_{qs[r]}(xs[r])`` is built once.  Each query is paired with
    ``min(q + sensitivity, upper)`` and with ``max(q - sensitivity, lower)``,
    a pair with q' == q dropped.  Returns ``(q, q_prime, xs, rows_q,
    rows_q_prime)`` per side that has a pair, the q + sensitivity side
    first: one entry per pair, ``rows_q_prime = F_{q'}`` at the pair's grid
    points.
    """
    if q_grid < 2 or set_grid < 2:
        raise ValueError("grid sizes must be at least 2")
    d = mech.domain
    qs = np.linspace(d.lower, d.upper, q_grid)
    xs = mech.quantile(qs[:, None], np.arange(set_grid) / (set_grid - 1))
    cdf = mech.cdf(qs[:, None], xs)
    sides = []
    for partner in (np.minimum(qs + d.sensitivity, d.upper),
                    np.maximum(qs - d.sensitivity, d.lower)):
        rows = np.flatnonzero(partner != qs)
        if rows.size == 0:
            continue
        if rows[-1] - rows[0] + 1 == rows.size:  # the usual run: views, not copies
            rows = slice(rows[0], rows[-1] + 1)
        sides.append((qs[rows], partner[rows], xs[rows], cdf[rows],
                      mech.cdf(partner[rows, None], xs[rows])))
    return sides


def check_privacy_inequality(mech, q_grid: int = SCAN_GRID,
                             set_grid: int = SCAN_GRID) -> CheckResult:
    """Scan the DP inequality over query pairs one sensitivity apart and intervals.

    Queries form a ``q_grid`` grid, and each is paired with the queries one
    sensitivity above and below it, clipped to the domain.  Output sets are
    the intervals of each query's own ``set_grid``-point equal-mass grid
    (see ``_scan_grid``).  For every pair (q, q') and interval A it asserts
    ``P(W_q in A) - e^eps * P(W_q' in A) <= delta + PRIVACY_SLACK`` using
    closed-form CDF differences for the interval probabilities.  The worst
    margin and the point achieving it are recorded either way; ties go to
    the q + sensitivity side, then to the first pair and interval.

    The farthest partner suffices: for q < q' the worst set is a lower
    interval, and on it ``P_q(A) - e^eps P_q'(A)`` does not decrease as q'
    rises.  When rounding leaves no pair with q' != q, no two grid queries
    can be told apart and the check passes with a margin of -inf and no
    witness pair.

    For eps above log(DBL_MAX) it refuses before any CDF is evaluated, and
    fails with a NaN margin and the refusal in its witness: e^eps is then not
    a finite double, and CDF entries far from q' underflow to 0, so no clamped
    e^eps is sound.  Raises ``ValueError`` for a grid below 2 points.
    """
    budget = mech.budget
    eps_limit = math.log(sys.float_info.max)
    if budget.epsilon > eps_limit:
        refusal = (f"the grid privacy check needs a finite e^epsilon: epsilon "
                   f"{budget.epsilon} exceeds log(DBL_MAX) = {eps_limit}")
        return CheckResult("privacy_inequality", False, math.nan,
                           {"refused": refusal, "scale": float(mech.scale)})
    amp = math.exp(budget.epsilon)
    raw, q, q_prime, intervals = -math.inf, None, None, []
    for qs, partners, xs, rows_q, rows_q_prime in _scan_grid(mech, q_grid, set_grid):
        v, p, i, j = worst_interval_margin(rows_q, rows_q_prime, amp)
        if q is None or v > raw:
            raw, q, q_prime = v, float(qs[p]), float(partners[p])
            intervals = [[float(xs[p, i]), float(xs[p, j])]]
    margin = raw - budget.delta
    witness = {"q": q, "q_prime": q_prime, "intervals": intervals,
               "scale": float(mech.scale)}
    return CheckResult("privacy_inequality", bool(margin <= PRIVACY_SLACK),
                       float(margin), witness)


def check_sufficient_condition(mech) -> CheckResult:
    """Evaluate the scalar sufficient condition for privacy at the mechanism's scale.

    The margin is ``achieved_epsilon(b) - eps``: it sits at 0 when b is the
    calibrated fixed point and falls as b grows.  The check passes iff it is
    at most ``SUFFICIENT_ROUNDING * 2**-53 * eps'``, capped at ``PRIVACY_SLACK``.
    """
    budget = mech.budget
    achieved = achieved_epsilon(mech.domain, mech.scale, budget.delta)
    margin = achieved - budget.epsilon
    eps_prime = budget.epsilon - math.log1p(-budget.delta)
    allowance = min(SUFFICIENT_ROUNDING * 2.0**-53 * eps_prime, PRIVACY_SLACK)
    witness = {"achieved_epsilon": float(achieved), "epsilon": float(budget.epsilon),
               "scale": float(mech.scale)}
    return CheckResult("sufficient_condition", bool(margin <= allowance),
                       float(margin), witness)


def _log_loss(w, b, t, z):
    """log of (C(t+z)/C(t)) * e^(z/b), broadcast over t and z, with C(t) the
    mass of Laplace(0, b) on [-t, w - t]: t is an offset from the lower edge.

    The log stays finite where e^(z/b) would overflow, and keeps the signs
    of the slopes.
    """
    left = t + z
    return (np.log(_inside_mass(left, w - left, b)) - np.log(_inside_mass(t, w - t, b))
            + z / b)


def check_ratio_monotonicity(domain, b) -> CheckResult:
    """Finite-difference sign check of the privacy-loss ratio surface.

    On a square ``MONOTONICITY_GRID`` grid of (q, z) with q + z inside the
    domain, the ratio (C(q+z)/C(q)) e^(z/b) must be nondecreasing in z and
    nonincreasing in q; both slopes are measured by central differences of
    the log ratio with a step of ``FD_STEP`` times the domain width, and
    taken per unit of width (multiplied by it), so ``FD_SLACK`` bounds the
    same rounding noise on every domain.  The grid holds offsets
    t = q - lower, so q + z is never rounded at the scale of the edges and
    the result depends only on the width and b: every translate of a domain
    gets the same margin and witness slope.
    """
    b = _require_scale(b)
    grid = MONOTONICITY_GRID
    w = domain.width
    h = FD_STEP * w
    ts = np.linspace(h, w - 2.0 * h, grid)
    frac = np.linspace(0.0, 1.0, grid)
    t2 = ts[:, None]
    span = np.maximum(w - t2 - 2.0 * h, 0.0)
    z2 = h + frac[None, :] * span
    dz = w * (_log_loss(w, b, t2, z2 + h) - _log_loss(w, b, t2, z2 - h)) / (2.0 * h)
    dq = w * (_log_loss(w, b, t2 + h, z2) - _log_loss(w, b, t2 - h, z2)) / (2.0 * h)
    kz = np.unravel_index(np.argmin(dz), dz.shape)
    kq = np.unravel_index(np.argmax(dq), dq.shape)
    margin_z = float(-dz[kz])
    margin_q = float(dq[kq])
    k, derivative, slope = (kz, "z", dz) if margin_z >= margin_q else (kq, "q", dq)
    witness = {"derivative": derivative, "q": float(domain.lower + ts[k[0]]),
               "z": float(z2[k]), "slope": float(slope[k]), "scale": b}
    margin = max(margin_z, margin_q)
    return CheckResult("ratio_monotonicity", bool(margin <= FD_SLACK), margin, witness)


def check_fixed_point_properties(domain, budget) -> CheckResult:
    """Check the facts that make the calibration bracket work.

    Asserts that the update map at the baseline scale does not fall below it
    (with equality exactly when the sensitivity spans the domain), that the
    map and the normalizer ratio are nonincreasing in the scale along a
    log-spaced grid of scales from just above b0 to 100 b0, and that the
    ratio at the baseline scale stays below e^eps / (1 - delta) so the update
    is well defined.
    """
    b0 = baseline_scale(domain, budget)
    f_b0 = fixed_point_operator(domain, budget, b0)
    rel_gap = (f_b0 - b0) / b0
    spans = domain.sensitivity >= domain.width * (1.0 - 1e-12)

    # the grid starts 2 steps above b0, so no difference reaches below b0,
    # where the update can be undefined
    bs = np.geomspace(b0 * (1.0 + 2.0 * FD_STEP), 100.0 * b0, FIXED_POINT_GRID)
    f_slopes = np.empty(bs.size)
    ratio_slopes = np.empty(bs.size)
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
    passed = margin <= FD_SLACK and headroom < 0.0
    if spans:
        passed = passed and abs(rel_gap) <= 1e-12 \
            and float(np.abs(f_slopes).max()) <= FD_SLACK \
            and float(np.abs(ratio_slopes).max()) <= FD_SLACK
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


def _sampled_counts(mech, q, rng, samples, edges):
    """Histogram over ``edges`` of ``samples`` draws of ``mech.sample_inverse``
    at q, drawn and counted ``BLOCK`` at a time.

    Each block is sorted in place and the edges are located in it by binary
    search, as ``np.histogram`` does for explicit edges but without its copy
    of the block: ``cum[k]`` counts the draws below ``edges[k]``, and the
    last entry those up to and including ``edges[-1]``, so every bin is
    half-open except the last, which is closed.
    """
    cum = np.zeros(edges.size, dtype=np.intp)
    for start in range(0, samples, BLOCK):
        block = mech.sample_inverse(q, rng, size=min(BLOCK, samples - start))
        block.sort()
        cum[:-1] += block.searchsorted(edges[:-1], "left")
        cum[-1:] += block.searchsorted(edges[-1:], "right")
    return np.diff(cum)


def empirical_privacy_estimate(mech, q, q_prime, samples: int = EMPIRICAL_SAMPLES,
                               rng=None) -> CheckResult:
    """Monte-Carlo sanity check complementing the analytic privacy check.

    Draws ``samples`` outputs for each of q and q', bins them into
    ``EMPIRICAL_BINS`` equal bins over the domain, and estimates the max over
    bins of log(freq_q / freq_q') among bins where both counts reach
    ``EMPIRICAL_FLOOR``.  The margin is that estimate minus epsilon; it is
    NaN when no bin qualifies.  The estimate is ``reliable`` when at least
    half the bins qualify, and the check fails only for a reliable estimate
    more than ``EMPIRICAL_SLACK`` above epsilon.

    The draws are made by ``mech.sample_inverse``, the sampler users call,
    and counted a block at a time, so working memory is O(block + bins)
    whatever ``samples`` is.  The counts are those of ``np.histogram`` over
    ``edges`` of one ``sample_inverse`` call of ``samples`` draws from the
    same generator state.
    """
    d = mech.domain
    q = float(d.require_query(q))
    q_prime = float(d.require_query(q_prime))
    if abs(q - q_prime) > d.sensitivity + _pair_tolerance(d):
        raise ValueError("q and q_prime must be within one sensitivity of each other")
    if samples < 1:
        raise ValueError("samples must be positive")
    if rng is None:
        rng = np.random.default_rng()
    edges = np.linspace(d.lower, d.upper, EMPIRICAL_BINS + 1)
    count_q = _sampled_counts(mech, q, rng, samples, edges)
    count_p = _sampled_counts(mech, q_prime, rng, samples, edges)
    used = (count_q >= EMPIRICAL_FLOOR) & (count_p >= EMPIRICAL_FLOOR)
    bins_used = int(used.sum())
    estimate, witness_bin = math.nan, None
    if bins_used:
        log_ratio = np.log(count_q[used]) - np.log(count_p[used])
        k = int(np.argmax(log_ratio))
        bin_idx = int(np.nonzero(used)[0][k])
        estimate = float(log_ratio[k])
        witness_bin = [float(edges[bin_idx]), float(edges[bin_idx + 1])]
    reliable = bins_used >= EMPIRICAL_BINS // 2
    margin = estimate - mech.budget.epsilon
    witness = {"estimate": estimate, "epsilon": float(mech.budget.epsilon),
               "reliable": reliable, "bins_used": bins_used, "witness_bin": witness_bin,
               "samples": int(samples)}
    return CheckResult("empirical_privacy", bool(not reliable or margin <= EMPIRICAL_SLACK),
                       float(margin), witness)


def _mechanism_at(domain, budget, scale):
    """The mechanism at ``scale``, or at ``calibrate(domain, budget).b_star``
    when it is None: the default scale of ``run_all_checks`` and ``sample``."""
    if scale is None:
        scale = calibrate(domain, budget).b_star
    return CalibratedMechanism(domain, budget, scale)


def run_all_checks(domain, budget, scale=None, q_grid: int = SCAN_GRID,
                   set_grid: int = SCAN_GRID, rng=None,
                   samples: int = EMPIRICAL_SAMPLES) -> VerificationReport:
    """Run the full check suite against one mechanism.

    ``scale=None`` checks ``calibrate(domain, budget).b_star``, as ``sample``
    draws at; the baseline scale instead reproduces the non-guarantee.  The
    report records the scale checked.  ``q_grid`` and ``set_grid`` size the
    grid check.  ``samples=0`` skips the empirical estimate, which runs on
    the worst-case pair.
    """
    mech = _mechanism_at(domain, budget, scale)
    checks = [
        check_privacy_inequality(mech, q_grid, set_grid),
        check_sufficient_condition(mech),
        check_ratio_monotonicity(domain, mech.scale),
        check_fixed_point_properties(domain, budget),
    ]
    if samples:
        checks.append(empirical_privacy_estimate(mech, *domain.worst_case_pair(),
                                                 samples=samples, rng=rng))
    return VerificationReport(tuple(checks), mech.scale)
