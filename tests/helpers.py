"""Shared helpers for the test suite: random problem generation and oracles."""

import math

import numpy as np
from scipy import integrate

from bounded_laplace import OutputDomain, PrivacyBudget, fixed_point_operator, baseline_scale


def random_problem(rng, span_fraction=None, eps_range=(1e-2, 10.0), delta_max=0.5):
    """A random valid (domain, budget) tuple.

    ``span_fraction`` pins sensitivity/width; by default it is drawn from
    (0.05, 0.95] with a 1-in-10 chance of exactly 1 (sensitivity == width).
    """
    lower = rng.uniform(-10.0, 10.0)
    width = rng.uniform(0.1, 20.0)
    upper = lower + width
    if span_fraction is None:
        span_fraction = 1.0 if rng.random() < 0.1 else rng.uniform(0.05, 0.95)
    sensitivity = (upper - lower) if span_fraction == 1.0 else width * span_fraction
    epsilon = 10.0 ** rng.uniform(math.log10(eps_range[0]), math.log10(eps_range[1]))
    delta = rng.uniform(0.0, delta_max)
    return OutputDomain(lower, upper, sensitivity), PrivacyBudget(epsilon, delta)


def laplace_mass_quadrature(domain, q, b, lo, hi):
    """Adaptive-quadrature mass of an unbounded Laplace(q, b) on [lo, hi]."""
    points = [q] if lo < q < hi else None
    val, _ = integrate.quad(
        lambda x: math.exp(-abs(x - q) / b) / (2.0 * b), lo, hi,
        points=points, limit=200,
    )
    return val


def damped_fixed_point(domain, budget, rel_tol=1e-14, max_steps=200_000):
    """Independent fixed-point oracle: damped iteration from the baseline scale.

    Deliberately not bisection; halves the damping whenever the residual
    stops shrinking.
    """
    b = baseline_scale(domain, budget)
    lam = 0.5
    prev = math.inf
    for _ in range(max_steps):
        fb = fixed_point_operator(domain, budget, b)
        res = abs(fb - b)
        if res <= rel_tol * max(b, 1.0):
            return b
        if res >= prev:
            lam *= 0.5
        prev = res
        b = b + lam * (fb - b)
    raise AssertionError("damped fixed-point iteration did not converge")


def reference_quantile(mech, q, p):
    """Oracle for ``CalibratedMechanism.quantile``: its formula as first
    written, with a fresh temporary for every step."""
    qa = mech.domain.require_query(q)
    pa = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(pa)) or np.any((pa < 0.0) | (pa > 1.0)):
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    d, b = mech.domain, mech.scale
    h_lo = 0.5 * np.exp(-(qa - d.lower) / b)
    h_hi = 0.5 * np.exp(-(d.upper - qa) / b)
    c = 1.0 - h_lo - h_hi
    t = h_lo + pa * c
    with np.errstate(divide="ignore"):
        below = qa + b * np.log(2.0 * t)
        above = qa - b * np.log(2.0 * (h_hi + (1.0 - pa) * c))
    out = np.clip(np.where(t <= 0.5, below, above), d.lower, d.upper)
    return float(out) if out.ndim == 0 else out
