"""Distribution core for Laplace noise restricted to a bounded output interval.

A query answer ``q`` inside a finite interval ``[lower, upper]`` is released
by drawing from a Laplace density centred at ``q`` and renormalised to the
interval, so every released value is a legal output.  This module holds the
normalizing constant, the density/CDF/quantile triple and the samplers; the
noise-scale search lives in :mod:`bounded_laplace.calibration`.

All operations are pure functions of their arguments and safe to call
concurrently.  Samplers mutate only the generator passed to them; do not
share one generator across concurrent samplers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsatisfiableBudgetError

__all__ = [
    "PrivacyBudget",
    "OutputDomain",
    "CalibratedMechanism",
    "normalizer",
    "normalizer_ratio",
    "sample_truncated",
]


def _finite(name, value):
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def _require_scale(b):
    b = _finite("scale", b)
    if b <= 0.0:
        raise ValueError(f"scale must be positive, got {b}")
    return b


@dataclass(frozen=True)
class PrivacyBudget:
    """Privacy parameters (epsilon, delta).

    ``delta = 1`` is rejected because ``log(1 - delta)`` diverges, and
    ``epsilon = delta = 0`` is rejected because no finite noise scale can
    satisfy it.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _finite("epsilon", self.epsilon))
        object.__setattr__(self, "delta", _finite("delta", self.delta))
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.epsilon == 0.0 and self.delta == 0.0:
            raise UnsatisfiableBudgetError("epsilon and delta cannot both be zero")


@dataclass(frozen=True)
class OutputDomain:
    """Closed output interval [lower, upper] plus the query sensitivity.

    The sensitivity must not exceed the interval width; clamping it silently
    would change the privacy guarantee, so oversized values are rejected.
    """

    lower: float
    upper: float
    sensitivity: float

    def __post_init__(self):
        object.__setattr__(self, "lower", _finite("lower", self.lower))
        object.__setattr__(self, "upper", _finite("upper", self.upper))
        object.__setattr__(self, "sensitivity", _finite("sensitivity", self.sensitivity))
        if not self.lower < self.upper:
            raise ValueError(f"domain requires lower < upper, got [{self.lower}, {self.upper}]")
        if not 0.0 < self.sensitivity <= self.width:
            raise ValueError(
                f"sensitivity must lie in (0, {self.width}], got {self.sensitivity}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def require_query(self, q):
        """Validate that q (scalar or array) lies inside the domain."""
        qa = np.asarray(q, dtype=float)
        if not np.all(np.isfinite(qa)):
            raise ValueError(f"query value must be finite, got {q!r}")
        if np.any(qa < self.lower) or np.any(qa > self.upper):
            raise ValueError(
                f"query value {q!r} outside the output domain [{self.lower}, {self.upper}]"
            )
        return qa

    def worst_case_pair(self) -> tuple:
        """The query pair (lower, lower + sensitivity) with the largest privacy loss."""
        return self.lower, min(self.lower + self.sensitivity, self.upper)


def normalizer(domain, q, b):
    """Mass of an unbounded Laplace(q, b) that falls inside the domain.

    Vectorised over ``q``.  The value is always in (0, 1) for finite
    positive ``b``; ``expm1`` keeps it accurate when ``b`` is much larger
    than the domain width.
    """
    b = _require_scale(b)
    qa = domain.require_query(q)
    c = -0.5 * (np.expm1(-(qa - domain.lower) / b) + np.expm1(-(domain.upper - qa) / b))
    return float(c) if np.ndim(qa) == 0 else c


def normalizer_ratio(domain, b):
    """Worst-case ratio of normalizing constants one sensitivity step apart.

    Always >= 1, with equality exactly when the sensitivity spans the whole
    domain (the two constants then coincide by symmetry).
    """
    b = _require_scale(b)
    shifted = min(domain.lower + domain.sensitivity, domain.upper)
    return normalizer(domain, shifted, b) / normalizer(domain, domain.lower, b)


def _unbounded_cdf(x, q, b):
    z = (np.asarray(x, dtype=float) - q) / b
    h = 0.5 * np.exp(-np.abs(z))
    return np.where(z <= 0.0, h, 1.0 - h)


@dataclass(frozen=True)
class CalibratedMechanism:
    """A noise scale bound to an output domain and a privacy budget.

    The constructor deliberately does not require ``scale`` to satisfy the
    privacy condition: the verification module constructs miscalibrated
    instances on purpose.  Use :meth:`privacy_slack` / :meth:`is_private`
    to test the condition; scales produced by
    :func:`bounded_laplace.calibration.calibrate` always satisfy it.
    """

    domain: OutputDomain
    budget: PrivacyBudget
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "scale", _require_scale(self.scale))

    def privacy_slack(self) -> float:
        """epsilon - sensitivity/scale - log(ratio) - log(1 - delta).

        Nonnegative iff the scale makes the mechanism private at its budget.
        """
        d, p = self.domain, self.budget
        return (
            p.epsilon
            - d.sensitivity / self.scale
            - math.log(normalizer_ratio(d, self.scale))
            - math.log1p(-p.delta)
        )

    def is_private(self, tolerance: float = 1e-9) -> bool:
        return self.privacy_slack() >= -tolerance

    def normalizer(self, q):
        return normalizer(self.domain, q, self.scale)

    def pdf(self, q, x):
        """Density at x: zero outside the domain, renormalised Laplace inside.

        Broadcasts over q and x.
        """
        qa = self.domain.require_query(q)
        xa = np.asarray(x, dtype=float)
        d, b = self.domain, self.scale
        c = -0.5 * (np.expm1(-(qa - d.lower) / b) + np.expm1(-(d.upper - qa) / b))
        inside = (xa >= d.lower) & (xa <= d.upper)
        dens = np.exp(-np.abs(xa - qa) / b) / (2.0 * b * c)
        out = np.where(inside, dens, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, q, x):
        """P(output <= x); 0 at the lower edge, 1 at the upper edge.

        Broadcasts over q and x.
        """
        qa = self.domain.require_query(q)
        xa = np.asarray(x, dtype=float)
        d, b = self.domain, self.scale
        g_lo = _unbounded_cdf(d.lower, qa, b)
        g_hi = _unbounded_cdf(d.upper, qa, b)
        out = np.clip((_unbounded_cdf(xa, qa, b) - g_lo) / (g_hi - g_lo), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q, p):
        """Inverse of :meth:`cdf` in p, evaluated piecewise around q.

        Accepts p in [0, 1] (scalar or array); p = 0 and p = 1 map to the
        domain edges.
        """
        qa = self.domain.require_query(q)
        pa = np.asarray(p, dtype=float)
        if np.any(~np.isfinite(pa)) or np.any((pa < 0.0) | (pa > 1.0)):
            raise ValueError(f"probability must lie in [0, 1], got {p!r}")
        out = self._quantile(qa, pa)
        return float(out) if out.ndim == 0 else out

    def _quantile(self, qa, pa):
        """:meth:`quantile` on validated arrays, built in two output buffers."""
        d, b = self.domain, self.scale
        h_lo = 0.5 * np.exp(-(qa - d.lower) / b)
        h_hi = 0.5 * np.exp(-(d.upper - qa) / b)
        c = 1.0 - h_lo - h_hi
        # Mass below the target point, measured on the unbounded distribution;
        # the upper branch is computed from the upper tail to avoid cancellation.
        t = np.asarray(pa * c)
        t += h_lo
        use_below = t <= 0.5
        above = np.subtract(1.0, pa, out=np.empty_like(t))
        with np.errstate(divide="ignore"):
            # below = q + b * log(2 * t), in the buffer of t
            below = np.log(np.multiply(t, 2.0, out=t), out=t)
            below *= b
            below += qa
            # above = q - b * log(2 * (h_hi + (1 - p) * c))
            above *= c
            above += h_hi
            above *= 2.0
            np.log(above, out=above)
            above *= b
            np.subtract(qa, above, out=above)
        np.copyto(above, below, where=use_below)
        return np.clip(above, d.lower, d.upper, out=above)

    def sample_inverse(self, q, rng, size=None):
        """Inverse-transform sample(s) using uniforms from the open (0, 1).

        Exact zeros from the generator are redrawn so p = 0 can never leak a
        domain endpoint.  Returns a float for ``size=None``, else an array.
        """
        n = _sample_count(size)
        qa = self.domain.require_query(q)
        u = rng.random(n)
        while True:
            zero = u == 0.0
            if not zero.any():
                break
            u[zero] = rng.random(int(zero.sum()))
        x = self._quantile(qa, u)
        return float(x[0]) if size is None else x

    def sample_rejection(self, q, rng, size=None):
        """Redraw unbounded Laplace(q, scale) until a draw lands in the domain.

        Returns ``(value, draws)`` where ``draws`` counts the attempts for
        each sample; it is geometric with mean ``1 / normalizer(q)``.  There
        is no draw cap: termination has probability one.
        """
        qa = float(self.domain.require_query(q))
        n = _sample_count(size)
        d, b = self.domain, self.scale
        values = np.empty(n)
        draws = np.zeros(n, dtype=np.int64)
        pending = np.arange(n)
        while pending.size:
            x = rng.laplace(qa, b, size=pending.size)
            draws[pending] += 1
            ok = (x >= d.lower) & (x <= d.upper)
            values[pending[ok]] = x[ok]
            pending = pending[~ok]
        if size is None:
            return float(values[0]), int(draws[0])
        return values, draws


def _sample_count(size):
    if size is None:
        return 1
    n = int(size)
    if n < 1:
        raise ValueError(f"size must be a positive integer, got {size!r}")
    return n


def sample_truncated(domain, q, b, rng, size=None):
    """Baseline comparison sampler: clamp unbounded Laplace(q, b) to the domain.

    Unlike the renormalised mechanism this puts point masses at the domain
    edges equal to the unbounded tail masses.
    """
    qa = float(domain.require_query(q))
    b = _require_scale(b)
    n = _sample_count(size)
    x = np.clip(rng.laplace(qa, b, size=n), domain.lower, domain.upper)
    return float(x[0]) if size is None else x
