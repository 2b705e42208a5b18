"""Command-line front end: calibrate, sample, verify, sweep.

Exit codes: 0 on success, 1 on a failing verification or a sweep with NA
cells, 2 on usage errors and invalid or infeasible inputs, 141 when the
reader closes stdout early, the code a shell gives a process killed by
SIGPIPE.  Output is a pure function of the flags plus the seed; when no
seed is given one is drawn from system entropy and echoed on stderr so the
run can be reproduced.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .calibration import (SWEEP_EPSILONS, SWEEP_SENSITIVITIES, _log_axis, calibrate,
                          epsilon_ratio_grid)
from .mechanism import OutputDomain, PrivacyBudget, sample_truncated
from .verification import EMPIRICAL_SAMPLES, SCAN_GRID, _mechanism_at, run_all_checks


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json(obj, **kwargs) -> str:
    """``json.dumps`` writing every non-finite float as ``null``: strict RFC 8259."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:  # a NaN or infinity; the round trip turns its token into None
        return json.dumps(json.loads(json.dumps(obj), parse_constant=lambda _: None),
                          **kwargs)


def _domain_budget(args):
    return (
        OutputDomain(args.lower, args.upper, args.sensitivity),
        PrivacyBudget(args.epsilon, args.delta),
    )


def _make_rng(seed):
    if seed is None:
        seed = int(np.random.SeedSequence().entropy)
        print(f"seed: {seed}", file=sys.stderr)
    return np.random.default_rng(seed)


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\r\n")


def _cmd_calibrate(args) -> int:
    values = calibrate(*_domain_budget(args)).to_dict()
    if args.format == "json":
        print(_json(values))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(values)
        w.writerow([_fmt(v) for v in values.values()])
    else:
        for k, v in values.items():
            print(f"{k} = {_fmt(v)}")
    return 0


def _cmd_sample(args) -> int:
    domain, budget = _domain_budget(args)
    q = float(domain.require_query(args.q))
    mech = _mechanism_at(domain, budget, args.b)
    rng = _make_rng(args.seed)
    if args.sampler == "truncated":
        values = sample_truncated(domain, q, mech.scale, rng, size=args.n)
    elif args.sampler == "rejection":
        values, _ = mech.sample_rejection(q, rng, size=args.n)
    else:
        values = mech.sample_inverse(q, rng, size=args.n)
    if args.format == "json":
        print(_json({"scale": mech.scale, "values": [float(v) for v in values]}))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(["value"])
        for v in values:
            w.writerow([_fmt(v)])
    else:
        for v in values:
            print(_fmt(v))
    return 0


def _cmd_verify(args) -> int:
    rng = _make_rng(args.seed) if args.samples > 0 else None
    report = run_all_checks(*_domain_budget(args), scale=args.b, q_grid=args.q_grid,
                            set_grid=args.set_grid, rng=rng, samples=args.samples)
    if args.format == "json":
        print(_json(report.to_dict()))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(["name", "passed", "worst_margin", "witness"])
        for c in report.checks:
            w.writerow([c.name, str(c.passed).lower(), _fmt(c.worst_margin),
                        _json(c.witness, separators=(",", ":"))])
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            witness = _json(c.witness, separators=(",", ":"))
            print(f"{c.name}: {status} worst_margin={_fmt(c.worst_margin)} witness={witness}")
        print(f"overall: {'PASS' if report.all_passed else 'FAIL'} scale={_fmt(report.scale)}")
    return 0 if report.all_passed else 1


def _cmd_sweep(args) -> int:
    if args.dq_steps < 1 or args.eps_steps < 1:
        raise ValueError("--dq-steps and --eps-steps must be at least 1")
    dq_max = args.dq_max if args.dq_max is not None else args.width
    for flag, value in (("--width", args.width), ("--dq-min", args.dq_min),
                        ("--dq-max", dq_max), ("--eps-min", args.eps_min),
                        ("--eps-max", args.eps_max)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{flag} must be finite and positive, got {value}")
    for flag, value in (("--dq-min", args.dq_min), ("--dq-max", dq_max)):
        if value > args.width:
            raise ValueError(f"{flag} {value} exceeds the domain width {args.width}")
    cells = epsilon_ratio_grid(args.width, _log_axis(args.dq_min, dq_max, args.dq_steps),
                               _log_axis(args.eps_min, args.eps_max, args.eps_steps))
    w = _csv_writer()
    w.writerow(["sensitivity", "epsilon", "b_star", "effective_epsilon", "ratio"])
    for c in cells:  # a cell that failed to calibrate prints NA for its results
        results = ["NA"] * 3 if c.error is not None else [
            _fmt(c.b_star), _fmt(c.effective_epsilon), _fmt(c.ratio)]
        w.writerow([_fmt(c.sensitivity), _fmt(c.epsilon), *results])
    return 1 if any(c.error is not None for c in cells) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bounded-laplace",
        description="Calibrate, sample and verify Laplace noise restricted "
                    "to a bounded output interval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--epsilon", type=float, required=True, help="privacy loss bound")
        p.add_argument("--delta", type=float, default=0.0, help="failure probability")
        p.add_argument("--lower", type=float, required=True, help="domain lower edge")
        p.add_argument("--upper", type=float, required=True, help="domain upper edge")
        p.add_argument("--sensitivity", type=float, required=True,
                       help="query sensitivity")

    def add_format_flag(p):
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = sub.add_parser("calibrate", help="solve for the minimal private scale")
    add_problem_flags(p)
    add_format_flag(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("sample", help="draw noisy releases of a query answer")
    add_problem_flags(p)
    add_format_flag(p)
    p.add_argument("--q", type=float, required=True, help="true query answer")
    p.add_argument("--n", type=int, default=1, help="number of samples")
    p.add_argument("--b", type=float, default=None,
                   help="scale override (default: calibrate)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sampler", choices=["inverse", "rejection", "truncated"],
                   default="inverse")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run the numerical check suite")
    add_problem_flags(p)
    add_format_flag(p)
    p.add_argument("--b", type=float, default=None,
                   help="scale override (default: calibrate); pass the "
                        "baseline scale to reproduce the non-guarantee")
    p.add_argument("--q-grid", type=int, default=SCAN_GRID, dest="q_grid")
    p.add_argument("--set-grid", type=int, default=SCAN_GRID, dest="set_grid")
    p.add_argument("--samples", type=int, default=EMPIRICAL_SAMPLES,
                   help="empirical-check sample count (0 skips it)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="budget-inflation grid as CSV")
    dq_min, width, dq_steps = SWEEP_SENSITIVITIES
    eps_min, eps_max, eps_steps = SWEEP_EPSILONS
    p.add_argument("--width", type=float, default=width, help="domain width (lower=0)")
    p.add_argument("--dq-min", type=float, default=dq_min, dest="dq_min")
    p.add_argument("--dq-max", type=float, dest="dq_max", help="default: the domain width")
    p.add_argument("--dq-steps", type=int, default=dq_steps, dest="dq_steps")
    p.add_argument("--eps-min", type=float, default=eps_min, dest="eps_min")
    p.add_argument("--eps-max", type=float, default=eps_max, dest="eps_max")
    p.add_argument("--eps-steps", type=int, default=eps_steps, dest="eps_steps")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send stdout to devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
