"""Numerical certification of the privacy guarantee and its supporting claims.

The headline check tests the differential-privacy inequality on query
pairs q < q' exactly one sensitivity apart at their worst output sets; the
remaining checks validate the scalar sufficient condition through
``achieved_epsilon``, the monotonicity facts behind the worst-case pair
location (on offsets from the lower edge, so every translate of a domain
gets the same result), and the fixed-point facts behind the calibration
bracket, all by direct evaluation or central finite differences, and
sample the grid check's worst pair.  Every check returns a
``CheckResult``; a failing check is a report outcome, never an exception.

Scope caveat: the privacy guarantee quantifies over all measurable output
sets and all query pairs, while the grid check tests each pair q < q' of a
finite query grid on its worst set, the lower interval ``[lower, t]`` that
``_kernels`` solves for; the mirror x -> lower + upper - x maps every pair
q > q' with its worst set, an upper interval, onto one of these, so a grid
pair's margin is its exact delta less the budget's.  The grid holds offsets
a from the lower edge, each paired with ``a + z``, z = min(sensitivity,
width - a) and a + z <= width exactly (on a lower set the violation grows
with q', so the farthest admissible partner is the worst): no pair is
rounded at the scale of the edges, and every translate of a domain gets the
same margins.  The empirical check admits the pairs of doubles with
``|q - q'| <= sensitivity`` and samples the grid check's witness pair.
The grid check is a sound falsifier: any witness it reports is a real
violation, up to the rounding of the closed-form delta; queries between
grid points are not scanned, so a pass is evidence at the query grid's
resolution, not a proof.

The empirical check tests the same inequality with sampled frequencies on
sets that end at q's quantiles, so it also tests the sampler as run.  Its
one allowance is the DKW bound with Massart's constant: each sampled CDF
strays from its law by more than sqrt(ln(2 / alpha) / (2 samples)) on the
side that raises the margin with probability at most alpha / 2, so a
private mechanism fails with probability at most alpha =
``EMPIRICAL_FALSE_ALARM``.  A FAIL is a violation at that confidence;
excesses below the resolution in its witness cannot be told from noise,
and one above twice it fails w.p. >= 1 - alpha.

Grid sizes and the sample count are plain ints defaulting to ``SCAN_GRID``
and ``EMPIRICAL_SAMPLES``, as the CLI's flags do; all else is a constant.

Checks are pure given their inputs; the empirical estimator takes its own
random generator.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import worst_interval_margin
from .calibration import achieved_epsilon, baseline_scale, calibrate, fixed_point_operator
from .errors import CalibrationInfeasibleError
from .mechanism import (BLOCK, CalibratedMechanism, _log_shift_ratio, _query_pair,
                        _require_scale, normalizer_ratio)

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

# Points of the privacy scan's query grid and of the empirical check's set grid.
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
# Draws per query of the empirical check.
EMPIRICAL_SAMPLES = 1_000_000
# Largest chance that the empirical check fails a private mechanism; its
# allowance is the DKW bound at this probability.
EMPIRICAL_FALSE_ALARM = 1e-6


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


def _require_grid(points):
    if points < 2:
        raise ValueError("grid sizes must be at least 2")


def _scan_grid(mech, q_grid):
    """The scan's pairs as offsets ``(a, z)`` from the lower edge: each a of a
    ``q_grid`` linspace of [0, width] but the last, with ``z = min(sensitivity,
    width - a)`` > 0 and a + z <= width exactly: width - a steps one ulp down
    where TwoSum finds that it rounded up."""
    _require_grid(q_grid)
    w = mech.domain.width
    a = np.linspace(0.0, w, q_grid)[:-1]
    rest = w - a
    up = (w - (rest - (rest - w))) - (a + (rest - w)) < 0.0
    return a, np.minimum(mech.domain.sensitivity, np.where(up, np.nextafter(rest, 0.0), rest))


def check_privacy_inequality(mech, q_grid: int = SCAN_GRID) -> CheckResult:
    """Test the DP inequality on pairs q < q' = q + sensitivity at each one's worst set.

    The pairs are ``_scan_grid``'s offsets.  For each pair it asserts
    ``P(W_q in A) - e^eps * P(W_q' in A) <= delta + PRIVACY_SLACK`` on the
    worst set A, where the left side is the pair's exact delta, solved in
    closed form by ``_kernels.worst_interval_margin``.  The worst margin,
    its pair (as doubles by ``mechanism._query_pair``, so the empirical check
    admits it) and its set are recorded either way; ties go to the first pair.

    These pairs and sets suffice (see the module docstring), and they are
    the accurate side of the mirror: an upper set's margin
    ``(1 - e^eps) - (F_q(t) - e^eps F_q'(t))`` rounds to a multiple of
    ulp(e^eps), while a lower set's delta is a sum of two non-negative terms
    with no e^eps in it, finite at every eps.  Raises ``ValueError`` for a
    grid below 2 points.
    """
    a, z = _scan_grid(mech, q_grid)
    raw, p, t = worst_interval_margin(mech, a, z)
    d = mech.domain
    q, q_prime = _query_pair(d, d.lower + float(a[p]), float(z[p]))
    margin = raw - mech.budget.delta
    witness = {"q": q, "q_prime": q_prime, "intervals": [[d.lower, t]],
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
    """log((C(t+z)/C(t)) e^(z/b)) for offsets t from lower; finite where e^(z/b) is not."""
    return _log_shift_ratio(w, b, t, z) + z / b


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
    is well defined; an update undefined in double fails it with a NaN margin.
    """
    b0 = baseline_scale(domain, budget)
    # the grid starts 2 steps above b0, so no difference reaches below b0,
    # where the update can be undefined
    bs = np.geomspace(b0 * (1.0 + 2.0 * FD_STEP), 100.0 * b0, FIXED_POINT_GRID)
    f_slopes = np.empty(bs.size)
    ratio_slopes = np.empty(bs.size)
    try:
        f_of_b0 = fixed_point_operator(domain, budget, b0)
        for k, b in enumerate(bs):
            h = FD_STEP * b
            f_slopes[k] = (fixed_point_operator(domain, budget, b + h)
                           - fixed_point_operator(domain, budget, b - h)) / (2.0 * h)
            # scaled by b so the margin is dimensionless like the others
            ratio_slopes[k] = b * (normalizer_ratio(domain, b + h)
                                   - normalizer_ratio(domain, b - h)) / (2.0 * h)
    except CalibrationInfeasibleError as exc:
        return CheckResult("fixed_point_properties", False, math.nan, {"refused": str(exc)})
    rel_gap = (f_of_b0 - b0) / b0
    spans = domain.sensitivity >= domain.width * (1.0 - 1e-12)
    # Written as -sensitivity/f(b0) so the sign cannot be lost to rounding.
    headroom = -domain.sensitivity / f_of_b0

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
        "f_of_b0": float(f_of_b0),
        "relative_gap": float(rel_gap),
        "worst_f_slope": float(f_slopes.max()),
        "worst_f_slope_scale": float(bs[int(f_slopes.argmax())]),
        "worst_ratio_slope": float(ratio_slopes.max()),
        "ratio_headroom": float(headroom),
        "sensitivity_spans_domain": bool(spans),
    }
    return CheckResult("fixed_point_properties", bool(passed), float(margin), witness)


def _sampled_counts(mech, q, rng, samples, edges):
    """How many of ``samples`` draws of ``mech.sample_inverse`` at q lie at or
    below each of ``edges``, drawn ``BLOCK`` at a time; each block is sorted
    in place and the edges are found in it by binary search."""
    below = np.zeros(edges.size, dtype=np.intp)
    for start in range(0, samples, BLOCK):
        block = mech.sample_inverse(q, rng, size=min(BLOCK, samples - start))
        block.sort()
        below += block.searchsorted(edges, "right")
    return below


def empirical_privacy_estimate(mech, q, q_prime, samples: int = EMPIRICAL_SAMPLES,
                               rng=None, set_grid: int = SCAN_GRID) -> CheckResult:
    """The grid check's inequality on sampled CDFs (see the module docstring).

    Draws ``samples`` outputs for each of q and q' by ``mech.sample_inverse``,
    the sampler users call, and counts them at the edges t of q's
    ``set_grid``-point equal-mass grid (from lower to upper).  The sets are
    ``[lower, t]`` when q <= q' and ``(t, upper]`` when q > q', the null set
    left out; a grid below 2 points raises ``ValueError``.  The margin is the
    largest ``e^-eps (P_q(A) - delta) - P_q'(A)`` with sampled frequencies
    for P: the grid check's margin times e^-eps, in units of probability
    under q', finite at any eps.  It passes iff the margin is at most
    ``resolution = (1 + e^-eps) sqrt(ln(2 / alpha) / (2 samples))``, alpha
    being ``EMPIRICAL_FALSE_ALARM``.  The witness holds the worst set (an
    upper set is open at t), the resolution and ``samples``.  Working memory
    is O(block + grid) whatever ``samples`` is, and the counts are those of
    one ``sample_inverse`` call of ``samples`` draws.
    """
    d = mech.domain
    q = float(d.require_query(q))
    q_prime = float(d.require_query(q_prime))
    if abs(q - q_prime) > d.sensitivity:
        raise ValueError("q and q_prime must be within one sensitivity of each other")
    if samples < 1:
        raise ValueError("samples must be positive")
    _require_grid(set_grid)
    if rng is None:
        rng = np.random.default_rng()
    lower_sets = q <= q_prime
    # the set grid less its null set, [lower, lower] or (upper, upper]
    ks = np.arange(1, set_grid) if lower_sets else np.arange(set_grid - 1)
    edges = mech.quantile(q, ks / (set_grid - 1))
    cdf_q = _sampled_counts(mech, q, rng, samples, edges) / samples
    cdf_p = _sampled_counts(mech, q_prime, rng, samples, edges) / samples
    if not lower_sets:  # the masses of the upper sets (t, upper]
        cdf_q, cdf_p = 1.0 - cdf_q, 1.0 - cdf_p
    shrink = math.exp(-mech.budget.epsilon)
    gains = shrink * (cdf_q - mech.budget.delta) - cdf_p
    k = int(np.argmax(gains))
    t, margin = float(edges[k]), float(gains[k])
    eta = math.sqrt(math.log(2.0 / EMPIRICAL_FALSE_ALARM) / (2.0 * samples))
    witness = {"set": [float(d.lower), t] if lower_sets else [t, float(d.upper)],
               "resolution": (1.0 + shrink) * eta, "samples": int(samples)}
    return CheckResult("empirical_privacy", margin <= witness["resolution"], margin,
                       witness)


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
    report records the scale checked.  ``q_grid`` sizes the grid check and
    ``set_grid`` the empirical one, which samples the grid check's witness
    pair unless ``samples=0``; grids and ``samples`` are validated first.
    """
    _require_grid(set_grid)
    if samples < 0:
        raise ValueError("samples must be non-negative")
    mech = _mechanism_at(domain, budget, scale)
    checks = [
        check_privacy_inequality(mech, q_grid),
        check_sufficient_condition(mech),
        check_ratio_monotonicity(domain, mech.scale),
        check_fixed_point_properties(domain, budget),
    ]
    if samples:
        pair = checks[0].witness["q"], checks[0].witness["q_prime"]
        checks.append(empirical_privacy_estimate(mech, *pair, samples=samples, rng=rng,
                                                 set_grid=set_grid))
    return VerificationReport(tuple(checks), mech.scale)
