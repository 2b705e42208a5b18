"""Distribution core for Laplace noise restricted to a bounded output interval.

A query answer ``q`` inside a finite interval ``[lower, upper]`` is released
by drawing from a Laplace density centred at ``q`` and renormalised to the
interval, so every released value is a legal output.  This module holds the
normalizing constant, the density/CDF/quantile triple and the samplers; the
noise-scale search lives in :mod:`bounded_laplace.calibration`.

One closed-form core gives every mass: ``C(q)`` (:func:`_normalizer`), the
log ratio ``log C(lower + sensitivity) / C(lower)`` (:func:`_log_ratio`) and
the tail masses of ``cdf`` and their inverse in ``quantile``.  Each is a sum
or product of same-sign ``exp``/``expm1`` terms, so nothing cancels; tests
hold them to an mpmath oracle for scale/width ratios from 1e-9 to 1e12.

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
        """Validate that q (scalar or array) lies inside the domain.

        Returns ``q`` as a float array; a scalar becomes a 0-d array.
        """
        qa = np.asarray(q, dtype=float)
        if qa.ndim == 0:  # plain float tests: np.all/np.any cost ~15 µs a call
            x = float(qa)
            finite, inside = math.isfinite(x), self.lower <= x <= self.upper
        else:
            finite = np.all(np.isfinite(qa))
            inside = not (np.any(qa < self.lower) or np.any(qa > self.upper))
        if not finite:
            raise ValueError(f"query value must be finite, got {q!r}")
        if not inside:
            raise ValueError(
                f"query value {q!r} outside the output domain [{self.lower}, {self.upper}]"
            )
        return qa

    def worst_case_pair(self) -> tuple:
        """The query pair (lower, lower + sensitivity) with the largest privacy loss."""
        return self.lower, min(self.lower + self.sensitivity, self.upper)


def _normalizer(domain, q, b):
    """C(q) on validated inputs."""
    return _inside_mass(q - domain.lower, domain.upper - q, b)


def _inside_mass(left, right, b):
    """Mass of Laplace(0, b) on [-left, right]: two half masses, each through expm1."""
    return -0.5 * (np.expm1(-left / b) + np.expm1(-right / b))


def _log_ratio(domain, b):
    """``log(C(lower + s) / C(lower))`` in long double, for sensitivity ``s``.

    With width ``w``, ``C(lower + s) - C(lower) = expm1(-s/b) expm1(-(w-s)/b) / 2``
    and ``C(lower) = -expm1(-w/b) / 2``; no term cancels, so the value keeps
    its relative precision at every scale and is exactly 0 when ``s = w``.
    """
    b = np.longdouble(b)
    w = np.longdouble(domain.width)
    s = np.longdouble(domain.sensitivity)
    return np.log1p(np.expm1(-s / b) * np.expm1(-(w - s) / b) / -np.expm1(-w / b))


def normalizer(domain, q, b):
    """Mass of an unbounded Laplace(q, b) that falls inside the domain.

    Vectorised over ``q``.  The value is always in (0, 1) for finite
    positive ``b``; ``expm1`` keeps it accurate when ``b`` is much larger
    than the domain width.
    """
    b = _require_scale(b)
    qa = domain.require_query(q)
    c = _normalizer(domain, qa, b)
    return float(c) if np.ndim(qa) == 0 else c


def normalizer_ratio(domain, b):
    """Worst-case ratio ``C(lower + sensitivity) / C(lower)`` of normalizing constants.

    The exponential of a nonnegative closed-form log ratio, so >= 1 by
    construction, with equality exactly when the sensitivity spans the
    whole domain (the two constants then coincide by symmetry).
    """
    return float(np.exp(_log_ratio(domain, _require_scale(b))))


@dataclass(frozen=True)
class CalibratedMechanism:
    """A noise scale bound to an output domain and a privacy budget.

    The constructor deliberately does not require ``scale`` to satisfy the
    privacy condition: the verification module constructs miscalibrated
    instances on purpose.  The condition is
    ``achieved_epsilon(domain, scale, delta) <= epsilon``
    (:func:`bounded_laplace.calibration.achieved_epsilon`), and
    :func:`bounded_laplace.verification.check_sufficient_condition` checks
    it; scales produced by :func:`bounded_laplace.calibration.calibrate`
    always satisfy it.
    """

    domain: OutputDomain
    budget: PrivacyBudget
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "scale", _require_scale(self.scale))

    def pdf(self, q, x):
        """Density at x: zero outside the domain, renormalised Laplace inside.

        Broadcasts over q and x.
        """
        qa = self.domain.require_query(q)
        xa = np.asarray(x, dtype=float)
        d, b = self.domain, self.scale
        c = _normalizer(d, qa, b)
        inside = (xa >= d.lower) & (xa <= d.upper)
        dens = np.exp(-np.abs(xa - qa) / b) / (2.0 * b * c)
        out = np.where(inside, dens, 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, q, x):
        """P(output <= x); 0 at the lower edge, 1 at the upper edge.

        Broadcasts over q and x.  Below q the mass is the product
        ``e^{-(q-x)/b} (1 - e^{-(x-lower)/b}) / 2``, above q the sum of the
        masses on either side of q; with no cancellation in either, the
        value has small relative error at every scale.
        """
        qa = self.domain.require_query(q)
        d, b = self.domain, self.scale
        xa = np.clip(np.asarray(x, dtype=float), d.lower, d.upper)
        dist = np.abs(xa - qa) / b
        below = -0.5 * np.exp(-dist) * np.expm1(-(xa - d.lower) / b)
        above = -0.5 * (np.expm1(-(qa - d.lower) / b) + np.expm1(-dist))
        out = np.clip(np.where(xa <= qa, below, above) / _normalizer(d, qa, b), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q, p):
        """Inverse of :meth:`cdf` in p, evaluated piecewise around q.

        Accepts p in [0, 1] (scalar or array); p = 0 and p = 1 map exactly
        to the domain edges.
        """
        qa = self.domain.require_query(q)
        pa = np.asarray(p, dtype=float)
        if np.any(~np.isfinite(pa)) or np.any((pa < 0.0) | (pa > 1.0)):
            raise ValueError(f"probability must lie in [0, 1], got {p!r}")
        with np.errstate(divide="ignore"):  # log(0) at p = 0 or 1, mapped below
            out = self._quantile(qa, pa)
        np.copyto(out, self.domain.lower, where=pa == 0.0)
        np.copyto(out, self.domain.upper, where=pa == 1.0)
        return float(out) if out.ndim == 0 else out

    def _quantile(self, qa, pa):
        """:meth:`quantile` on validated arrays, built in two output buffers.

        Below q it inverts the lower tail mass of :meth:`cdf`,
        ``x = lower + b log1p(2 p C e^{(q-lower)/b})``; above q, the mirror
        image from the upper edge with ``1 - p``.  Where the width exceeds
        700 scales, so that ``e^{(q-edge)/b}`` could overflow, the same inverse
        is anchored at q, ``x = q + b log(e^{-(q-lower)/b} + 2 p C)``.
        """
        d, b = self.domain, self.scale
        qa = qa[()]  # a 0-d query becomes a scalar, which is faster to work on
        c = _normalizer(d, qa, b)
        a_lo, a_hi = (qa - d.lower) / b, (d.upper - qa) / b
        if d.width <= 700.0 * b:
            log, anchors, shifts = np.log1p, (d.lower, d.upper), (0.0, 0.0)
            gains = (2.0 * c * np.exp(a_lo), 2.0 * c * np.exp(a_hi))
        else:
            log, anchors, shifts = np.log, (qa, qa), (np.exp(-a_lo), np.exp(-a_hi))
            gains = (2.0 * c, 2.0 * c)
        use_below = pa <= -0.5 * np.expm1(-a_lo) / c  # p <= F(q)
        below = np.asarray(pa * gains[0])
        above = np.subtract(1.0, pa, out=np.empty_like(below))
        above *= gains[1]
        for t, anchor, shift, scale in zip((below, above), anchors, shifts, (b, -b)):
            t += shift
            log(t, out=t)
            t *= scale
            t += anchor
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
        draws = np.empty(n, dtype=np.int64)
        pending = np.arange(n)
        rounds = 0
        while pending.size:
            # every pending sample draws once a round, so its draw count is
            # the round that accepts it
            rounds += 1
            x = rng.laplace(qa, b, size=pending.size)
            ok = (x >= d.lower) & (x <= d.upper)
            accepted = np.flatnonzero(ok)
            if accepted.size:  # a round that accepts nothing changes nothing
                done = pending[accepted]
                values[done] = x[accepted]
                draws[done] = rounds
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
