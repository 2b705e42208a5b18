"""The benchmark's three workloads: inputs drawn from a seed, one pass, checks.

Every workload drives the package through its public API only: ``cli.main``,
``calibrate``, ``achieved_epsilon``, the ``CalibratedMechanism`` samplers and
``sample_truncated``.  Names are looked up on their module at call time so the
tracer's rebinding takes effect.  An *op* is one sweep cell, one verification
or one release request; an op fails if it raises or if its output fails the
workload's check.  The work done by one pass does not depend on the seed.
"""

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import bounded_laplace as bl
from bounded_laplace import cli

clock = time.perf_counter


@dataclass
class PassResult:
    """What one pass did.  ``program_s`` is the time spent inside package
    calls; ``latencies_s`` holds one entry per request the client made."""

    program_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)
    stdout_bytes: int = 0
    unexpected_verdicts: int = 0
    errors: list = field(default_factory=list)


def run_cli(argv):
    """``cli.main(argv)`` in-process with stdout captured: (code, stdout, seconds)."""
    buf = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), clock() - t0


# ---------------------------------------------------------------------------
# sweep: the paper's 50x50 budget-inflation grid, then the inverse question


SWEEP_STEPS = 50  # the CLI's default axis length
RATIO_MIN = 1e-3  # the CLI's default --dq-min for a unit-width domain
INVERSE_RTOL = 1e-9


def check_sweep(code, stdout, achieved):
    """Number of failed cells of one sweep pass.

    ``achieved[k]`` is ``achieved_epsilon(domain, b_star)`` for the k-th row,
    or None when the row could not be parsed.  A cell fails if it is ``NA``,
    its ratio lies outside ``[1, 2)`` or its achieved epsilon differs from
    its epsilon by more than ``INVERSE_RTOL`` relative.  The ratio may fall
    below 1 by ``INVERSE_RTOL``: where the last sensitivity lands an ulp
    below the width, rounding leaves it at 1 - 1e-15.  A nonzero exit code
    or a wrong row count fails every cell.
    """
    cells = SWEEP_STEPS * SWEEP_STEPS
    rows = list(csv.reader(io.StringIO(stdout)))[1:]
    if code != 0 or len(rows) != cells or len(achieved) != cells:
        return cells
    failed = 0
    for row, eps_achieved in zip(rows, achieved):
        try:
            _, eps, _, _, ratio = (float(v) for v in row)
        except ValueError:
            failed += 1
            continue
        if eps_achieved is None or not 1.0 - INVERSE_RTOL <= ratio < 2.0 \
                or not abs(eps_achieved - eps) <= INVERSE_RTOL * eps:
            failed += 1
    return failed


class Sweep:
    """``cli sweep`` on [0, width] at the default axes; the seed draws the width."""

    name = "sweep"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.width = float(10.0 ** rng.uniform(-1.0, 1.0))
        self.argv = ["sweep", "--width", repr(self.width),
                     "--dq-min", repr(RATIO_MIN * self.width)]

    def work(self):
        cells = SWEEP_STEPS * SWEEP_STEPS
        return {"ops": cells, "calibrations": cells, "values": cells,
                "query_pairs": 0, "candidate_sets": 0, "input_bytes": 0}

    def warm_up(self):
        run_cli(self.argv + ["--dq-steps", "2", "--eps-steps", "2"])
        bl.achieved_epsilon(bl.OutputDomain(0.0, self.width, self.width), 1.0)

    def run_pass(self, index):
        res = PassResult(attempted=SWEEP_STEPS * SWEEP_STEPS)
        code, out, res.program_s = run_cli(self.argv)
        res.stdout_bytes = len(out.encode())
        achieved = []
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            try:
                sensitivity, b_star = float(row[0]), float(row[2])
            except (ValueError, IndexError):
                achieved.append(None)
                continue
            t0 = clock()
            try:
                domain = bl.OutputDomain(0.0, self.width, sensitivity)
                eps = bl.achieved_epsilon(domain, b_star)
            except Exception as exc:  # a raising op is a failed op
                eps = None
                res.errors.append(repr(exc))
            dt = clock() - t0
            res.latencies_s.append(dt)
            res.program_s += dt
            achieved.append(eps)
        res.failed = check_sweep(code, out, achieved)
        return res


# ---------------------------------------------------------------------------
# verify: the non-guarantee reproduction at the CLI's default grids


VERIFY_GRID = 200  # the CLI's default --q-grid and --set-grid
VERIFY_RATIO = 0.5  # sensitivity / width; fixes the number of query pairs
LOWER_SPAN = 10.0  # lower is uniform in [-10, 10], the largest width drawn


def draw_domain(rng):
    """(lower, upper) of a seeded domain.

    The width is log-uniform in [0.1, 10] and the position is drawn apart
    from it, on the same scale, so narrow domains can lie up to a hundred
    widths from 0.
    """
    width = float(10.0 ** rng.uniform(-1.0, 1.0))
    lower = float(rng.uniform(-LOWER_SPAN, LOWER_SPAN))
    return lower, lower + width


def check_verdict(code, stdout, expect_private):
    """True if one ``verify --format json`` run gave the expected verdict.

    At the calibrated scale every check must pass with exit code 0; at the
    baseline scale the run must exit 1 with ``privacy_inequality`` failing
    at a positive margin.
    """
    try:
        report = json.loads(stdout)
        checks = {c["name"]: c for c in report["checks"]}
        inequality = checks["privacy_inequality"]
    except (ValueError, KeyError, TypeError):
        return False
    if expect_private:
        return code == 0 and report["all_passed"] is True \
            and all(c["passed"] is True for c in checks.values())
    return code == 1 and inequality["passed"] is False \
        and inequality["worst_margin"] > 0.0


def query_pairs(lower, upper, sensitivity, grid=VERIFY_GRID):
    """Admissible query pairs of the privacy scan, counted as the verifier does."""
    qs = np.linspace(lower, upper, grid)
    tol = 8.0 * np.spacing(max(abs(lower), abs(upper), upper - lower))
    return int(np.count_nonzero(np.abs(qs[:, None] - qs[None, :]) <= sensitivity + tol))


class Verify:
    """``cli verify`` of one problem at ``b_star`` and again at ``b0``.

    The seed draws the domain, epsilon and the sampling seed; sensitivity is
    half the width so the scanned pairs do not change between seeds.
    """

    name = "verify"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.lower, self.upper = draw_domain(rng)
        self.sensitivity = VERIFY_RATIO * (self.upper - self.lower)
        self.epsilon = float(10.0 ** rng.uniform(math.log10(0.5), math.log10(2.0)))
        sample_seed = int(rng.integers(2**32))
        problem = ["--lower", repr(self.lower), "--upper", repr(self.upper),
                   "--sensitivity", repr(self.sensitivity),
                   "--epsilon", repr(self.epsilon)]
        self.argv = ["verify", *problem, "--seed", str(sample_seed), "--format", "json"]
        domain = bl.OutputDomain(self.lower, self.upper, self.sensitivity)
        b0 = bl.calibrate(domain, bl.PrivacyBudget(self.epsilon)).b0
        self.runs = ((self.argv, True), (self.argv + ["--b", repr(b0)], False))

    def work(self):
        pairs = len(self.runs) * query_pairs(self.lower, self.upper, self.sensitivity)
        cdf_bytes = len(self.runs) * VERIFY_GRID * VERIFY_GRID * 8
        return {"ops": len(self.runs), "calibrations": 1, "values": 5 * len(self.runs),
                "query_pairs": pairs,
                "candidate_sets": pairs * VERIFY_GRID * (VERIFY_GRID - 1) // 2,
                "input_bytes": cdf_bytes + 2 * 8 * pairs}

    def warm_up(self):
        run_cli(self.argv + ["--q-grid", "8", "--set-grid", "8", "--samples", "1000"])

    def run_pass(self, index):
        res = PassResult(attempted=len(self.runs))
        for argv, expect_private in self.runs:
            code, out, dt = run_cli(argv)
            res.program_s += dt
            res.latencies_s.append(dt)
            res.stdout_bytes += len(out.encode())
            if not check_verdict(code, out, expect_private):
                res.failed += 1
                res.unexpected_verdicts += 1
        return res


# ---------------------------------------------------------------------------
# release: a closed-loop client sending release requests


RELEASE_GRID = 10  # per axis: 100 configurations, so about 10% of requests calibrate
RATIOS = np.logspace(-3.0, 0.0, RELEASE_GRID)  # sensitivity / width
EPSILONS = np.logspace(-2.0, 1.0, RELEASE_GRID)
SAMPLERS = ("inverse", "rejection", "truncated")
SINGLES = 333  # single-value requests per sampler; an equal share, for want of usage data
Q_GRID = 200  # single queries cycle over the verifier's query grid, edges included
BULK_SIZE = 100_000  # the sample size of the package's sampler-fidelity tests
# one bulk request per sampler, at sensitivity/width 1 and epsilon 0.01, where
# rejection needs about 200 draws per value, and at the domain's lower edge
BULK_CONFIG = (RELEASE_GRID - 1) * RELEASE_GRID
REQUESTS = len(SAMPLERS) * (SINGLES + 1)  # the p99 needs at least 1000
ECDF_POINTS = (0.25, 0.5, 0.75)  # fractions of the width
ECDF_SIGMAS = 5.0


@dataclass(frozen=True)
class Config:
    lower: float
    upper: float
    sensitivity: float
    epsilon: float


@dataclass(frozen=True)
class Request:
    config: int
    q: float
    sampler: str
    size: int | None  # None asks for one value as a float


def _laplace_cdf(x, q, b):
    return 0.5 * math.exp((x - q) / b) if x < q else 1.0 - 0.5 * math.exp(-(x - q) / b)


def check_release(req, mech, values, draws):
    """True if one release response is well formed and plausible.

    Values are finite, inside the domain and as many as requested; rejection
    attempts are at least one per value; a bulk response's empirical CDF at
    a few points lies within ``ECDF_SIGMAS`` standard errors of the
    mechanism's CDF (of the clamped Laplace CDF for ``sample_truncated``).
    """
    d = mech.domain
    n = 1 if req.size is None else req.size
    if req.size is None and not isinstance(values, float):
        return False
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.shape != (n,) or not np.all(np.isfinite(v)) \
            or v.min() < d.lower or v.max() > d.upper:
        return False
    if draws is not None:
        dr = np.atleast_1d(np.asarray(draws))
        if dr.shape != (n,) or dr.min() < 1:
            return False
    if req.size is None:
        return True
    for frac in ECDF_POINTS:
        x = d.lower + frac * d.width
        if req.sampler == "truncated":
            expected = _laplace_cdf(x, req.q, mech.scale)
        else:
            expected = float(mech.cdf(req.q, x))
        se = math.sqrt(max(expected * (1.0 - expected), 1.0 / n) / n)
        if abs(float(np.mean(v <= x)) - expected) > ECDF_SIGMAS * se:
            return False
    return True


class Release:
    """Closed-loop stream of release requests from one client.

    Each pass is a fresh session of ``REQUESTS`` requests over 100
    configurations on a fixed (sensitivity/width, epsilon) grid; the seed
    draws each configuration's domain, which request gets which sampler,
    configuration and query grid point, the order of the requests and the
    sampling stream.  The mix of samplers, single and bulk requests and
    query grid points is fixed.  The first request for a configuration
    calibrates it.
    """

    name = "release"

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 0])

    def plan(self, index):
        """Configurations and requests of pass ``index`` (warm-up uses -1)."""
        rng = np.random.default_rng([self.seed, 1, index + 1])
        configs = []
        for ratio in RATIOS:
            for eps in EPSILONS:
                lower, upper = draw_domain(rng)
                configs.append(Config(lower, upper, float(ratio) * (upper - lower), float(eps)))
        singles = len(SAMPLERS) * SINGLES
        samplers = rng.permutation(np.repeat(SAMPLERS, SINGLES))
        fracs = rng.permutation(np.arange(singles) % Q_GRID / (Q_GRID - 1))
        owners = rng.permutation(np.arange(singles) % len(configs))
        requests = [Request(int(k), _query(configs[k], f), str(s), None)
                    for k, f, s in zip(owners, fracs, samplers)]
        lower = configs[BULK_CONFIG].lower
        requests += [Request(BULK_CONFIG, lower, s, BULK_SIZE) for s in SAMPLERS]
        order = rng.permutation(len(requests))
        return configs, [requests[i] for i in order]

    def work(self):
        configs, requests = self.plan(0)
        return {"ops": len(requests),
                "calibrations": len({r.config for r in requests}),
                "values": sum(1 if r.size is None else r.size for r in requests),
                "query_pairs": 0, "candidate_sets": 0, "input_bytes": 0}

    def warm_up(self):
        configs, requests = self.plan(-1)
        self._serve_all(configs, [r for r in requests if r.size is None][:50])

    def run_pass(self, index):
        return self._serve_all(*self.plan(index))

    def _serve_all(self, configs, requests):
        res = PassResult(attempted=len(requests))
        session = {}
        for req in requests:
            t0 = clock()
            try:
                mech, values, draws = self._serve(req, configs, session)
            except Exception as exc:  # a raising op is a failed op
                mech = None
                res.errors.append(repr(exc))
            dt = clock() - t0
            res.latencies_s.append(dt)
            res.program_s += dt
            if mech is None or not check_release(req, mech, values, draws):
                res.failed += 1
        return res

    def _serve(self, req, configs, session):
        mech = session.get(req.config)
        if mech is None:
            c = configs[req.config]
            domain = bl.OutputDomain(c.lower, c.upper, c.sensitivity)
            budget = bl.PrivacyBudget(c.epsilon)
            report = bl.calibrate(domain, budget)
            if not report.b_star >= report.b0:
                raise ArithmeticError(f"b_star {report.b_star} below b0 {report.b0}")
            mech = session[req.config] = bl.CalibratedMechanism(domain, budget, report.b_star)
        draws = None
        if req.sampler == "inverse":
            values = mech.sample_inverse(req.q, self.rng, size=req.size)
        elif req.sampler == "rejection":
            values, draws = mech.sample_rejection(req.q, self.rng, size=req.size)
        else:
            values = bl.sample_truncated(mech.domain, req.q, mech.scale, self.rng, size=req.size)
        return mech, values, draws


def _query(config, frac):
    if frac <= 0.0:
        return config.lower
    if frac >= 1.0:
        return config.upper
    return min(config.lower + frac * (config.upper - config.lower), config.upper)


WORKLOADS = {w.name: w for w in (Sweep, Verify, Release)}
