"""Laplace noise on a bounded output interval: calibration, sampling, checks.

Renormalising a Laplace density to a finite interval keeps every release
inside the interval, but the scale that is private for the unbounded
mechanism generally is not private for the renormalised one.  This package
computes the minimal private scale via a bracketed fixed-point search,
samples the resulting distribution, and numerically certifies the privacy
guarantee and the facts the search relies on.
"""

from .calibration import (
    CalibrationReport,
    SweepCell,
    achieved_epsilon,
    baseline_scale,
    calibrate,
    default_sweep_grid,
    epsilon_ratio_grid,
    fixed_point_operator,
)
from .errors import (
    BoundedLaplaceError,
    CalibrationInfeasibleError,
    UnsatisfiableBudgetError,
)
from .mechanism import (
    CalibratedMechanism,
    OutputDomain,
    PrivacyBudget,
    normalizer,
    normalizer_ratio,
    sample_truncated,
)
from .verification import (
    CheckResult,
    VerificationReport,
    check_fixed_point_properties,
    check_privacy_inequality,
    check_ratio_monotonicity,
    check_sufficient_condition,
    empirical_privacy_estimate,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedLaplaceError",
    "CalibratedMechanism",
    "CalibrationInfeasibleError",
    "CalibrationReport",
    "CheckResult",
    "OutputDomain",
    "PrivacyBudget",
    "SweepCell",
    "UnsatisfiableBudgetError",
    "VerificationReport",
    "achieved_epsilon",
    "baseline_scale",
    "calibrate",
    "check_fixed_point_properties",
    "check_privacy_inequality",
    "check_ratio_monotonicity",
    "check_sufficient_condition",
    "default_sweep_grid",
    "empirical_privacy_estimate",
    "epsilon_ratio_grid",
    "fixed_point_operator",
    "normalizer",
    "normalizer_ratio",
    "run_all_checks",
    "sample_truncated",
]
