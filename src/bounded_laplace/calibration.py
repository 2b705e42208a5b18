"""Noise-scale calibration for the bounded mechanism.

Restricting the Laplace density to a bounded interval makes the normalizing
constant depend on the query answer, so the scale that is private for the
unbounded mechanism generally is not private here.  The minimal private
scale is the unique fixed point of an update map on ``[b0, f(b0)]``; this
module finds it by bisection and also answers the inverse question (the
epsilon achieved by a given scale).

Everything here is pure and stateless; independent calibrations may run
concurrently.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CalibrationInfeasibleError, UnsatisfiableBudgetError
from .mechanism import OutputDomain, PrivacyBudget, _log_ratio, _require_scale

__all__ = [
    "CalibrationReport",
    "SweepCell",
    "baseline_scale",
    "fixed_point_operator",
    "calibrate",
    "achieved_epsilon",
    "epsilon_ratio_grid",
    "default_sweep_grid",
]


@dataclass(frozen=True)
class CalibrationReport:
    """Result of a calibration run.

    ``b0`` is the unbounded-mechanism scale, ``[b0, f_b0]`` the search
    bracket, ``b_star`` the fixed point, ``residual`` the final
    ``|f(b_star) - b_star|`` and ``effective_epsilon`` the budget actually
    spent by the underlying Laplace distribution
    (``epsilon - log(normalizer_ratio(b_star))``).  For delta > 0 the
    effective epsilon is a diagnostic, not a standalone privacy claim.
    """

    b0: float
    f_b0: float
    b_star: float
    residual: float
    iterations: int
    effective_epsilon: float

    def to_dict(self) -> dict:
        return asdict(self)


def baseline_scale(domain, budget) -> float:
    """Scale making the unbounded mechanism private: sensitivity / (eps - log(1 - delta)).

    The budget's own validation guarantees the denominator is positive
    (epsilon and delta are not both zero, delta < 1).  Raises
    ``UnsatisfiableBudgetError`` if the quotient overflows or underflows to 0.
    """
    eps_prime = budget.epsilon - math.log1p(-budget.delta)
    b0 = domain.sensitivity / eps_prime
    if not 0.0 < b0 < math.inf:
        raise UnsatisfiableBudgetError(
            f"baseline scale sensitivity / epsilon' = {domain.sensitivity!r} / "
            f"{eps_prime!r} {'overflows' if b0 else 'underflows'} a double")
    return b0


def fixed_point_operator(domain, budget, b) -> float:
    """Update map whose unique fixed point is the minimal private scale.

    Nonincreasing in b, and at least ``b0`` when evaluated at ``b0``.  The
    denominator is positive everywhere at or above ``b0``; the guard below
    covers smaller scales, where the update can be undefined.  It divides by
    ``epsilon - log(ratio)`` in long double, which keeps the residual at the
    scale's own ulp even far above the domain width.
    """
    b = _require_scale(b)
    log_ratio = _log_ratio(domain, b)
    if log_ratio == 0.0:
        return baseline_scale(domain, budget)
    gap = (
        np.longdouble(budget.epsilon)
        - log_ratio
        - np.log1p(np.longdouble(-budget.delta))
    )
    if gap <= 0.0:
        raise CalibrationInfeasibleError(
            f"fixed-point update undefined at scale {b}: exponent budget "
            f"{float(gap)} <= 0"
        )
    return float(np.longdouble(domain.sensitivity) / gap)


def calibrate(domain, budget):
    """Find the minimal private scale by bisecting ``f(b) - b`` on ``[b0, f(b0)]``.

    Bisection halves the bracket until ``f(mid) = mid`` or ``lo`` and ``hi``
    are adjacent doubles, and returns the end with the smaller residual
    ``|f(b_star) - b_star|``.  The stop needs no tolerance: each step halves
    ``hi - lo`` up to the rounding of ``mid``, and doubles above ``b0`` lie
    at least ``b0 * 2**-53`` apart, so ``iterations <= 55 + log2(f_b0 / b0)``.
    """
    b0 = baseline_scale(domain, budget)
    # f(b0) >= b0 mathematically; clamp sub-ulp rounding dust so the
    # reported bracket is well ordered
    f_b0 = max(fixed_point_operator(domain, budget, b0), b0)
    lo, hi = b0, f_b0
    g_lo = f_b0 - lo
    g_hi = fixed_point_operator(domain, budget, hi) - hi
    iterations = 0
    while g_lo != 0.0:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles
        g_mid = fixed_point_operator(domain, budget, mid) - mid
        if g_mid >= 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
        iterations += 1
    b_star, residual = (lo, abs(g_lo)) if abs(g_lo) <= abs(g_hi) else (hi, abs(g_hi))
    return CalibrationReport(
        b0=b0,
        f_b0=f_b0,
        b_star=b_star,
        residual=residual,
        iterations=iterations,
        effective_epsilon=budget.epsilon - float(_log_ratio(domain, b_star)),
    )


def achieved_epsilon(domain, b, delta: float = 0.0) -> float:
    """Smallest epsilon for which the scale b is private at the given delta."""
    b = _require_scale(b)
    if not 0.0 <= float(delta) < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    return (
        domain.sensitivity / b
        + float(_log_ratio(domain, b))
        + math.log1p(-float(delta))
    )


@dataclass(frozen=True)
class SweepCell:
    """One (sensitivity, epsilon) cell of a budget-inflation sweep.

    ``ratio`` is ``epsilon / effective_epsilon``; NaN with ``error`` set if
    the cell failed to calibrate.
    """

    sensitivity: float
    epsilon: float
    b_star: float
    effective_epsilon: float
    ratio: float
    error: str | None = None


def _log_axis(start, stop, steps):
    """``steps >= 1`` log-spaced points from exactly ``start`` to exactly
    ``stop``, which ``10 ** log10`` can miss by an ulp; one step is ``[start]``."""
    axis = np.logspace(math.log10(start), math.log10(stop), steps)
    axis[-1], axis[0] = stop, start  # in this order, so one step is [start]
    return axis


# The default sweep axes as (first, last, steps), the sweep flags' defaults.
SWEEP_SENSITIVITIES = (1e-3, 1.0, 50)
SWEEP_EPSILONS = (1e-2, 10.0, 50)


def default_sweep_grid():
    """The CLI's default sweep axes, log-spaced from ``SWEEP_SENSITIVITIES``
    and ``SWEEP_EPSILONS`` and each exact at both ends."""
    return _log_axis(*SWEEP_SENSITIVITIES), _log_axis(*SWEEP_EPSILONS)


def epsilon_ratio_grid(domain_width, sensitivities, epsilons):
    """Calibrate every (sensitivity, epsilon) cell on [0, width] with delta = 0.

    Returns cells in the given axis order (sensitivity-major).  A failing
    cell is recorded with NaN values and its error message instead of
    aborting the sweep.
    """
    width = _finite_width(domain_width)
    cells = []
    for dq in sensitivities:
        for eps in epsilons:
            try:
                domain = OutputDomain(0.0, width, float(dq))
                report = calibrate(domain, PrivacyBudget(float(eps), 0.0))
                cells.append(SweepCell(
                    sensitivity=float(dq),
                    epsilon=float(eps),
                    b_star=report.b_star,
                    effective_epsilon=report.effective_epsilon,
                    ratio=float(eps) / report.effective_epsilon,
                ))
            except (ValueError, ArithmeticError) as exc:
                cells.append(SweepCell(
                    sensitivity=float(dq),
                    epsilon=float(eps),
                    b_star=math.nan,
                    effective_epsilon=math.nan,
                    ratio=math.nan,
                    error=str(exc),
                ))
    return cells


def _finite_width(width):
    w = float(width)
    if not (math.isfinite(w) and w > 0.0):
        raise ValueError(f"domain width must be finite and positive, got {width!r}")
    return w
