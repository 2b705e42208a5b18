"""Command-line front end: calibrate, sample, verify, sweep.

Exit codes: 0 on success, 1 on a failing verification or a sweep with NA
cells, 2 on usage errors and invalid or infeasible inputs.  Output is a pure
function of the flags plus the seed; when no seed is given one is drawn from
system entropy and echoed on stderr so the run can be reproduced.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from .calibration import calibrate, epsilon_ratio_grid
from .mechanism import CalibratedMechanism, OutputDomain, PrivacyBudget, sample_truncated
from .verification import PrivacyCheckConfig, run_all_checks


def _fmt(x) -> str:
    return format(float(x), ".17g")


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
    domain, budget = _domain_budget(args)
    report = calibrate(domain, budget)
    fields = ["b0", "f_b0", "b_star", "residual", "iterations", "effective_epsilon"]
    values = report.to_dict()
    if args.format == "json":
        print(json.dumps({k: values[k] for k in fields}))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(fields)
        w.writerow([_fmt(values[k]) if k != "iterations" else str(values[k])
                    for k in fields])
    else:
        for k in fields:
            v = str(values[k]) if k == "iterations" else _fmt(values[k])
            print(f"{k} = {v}")
    return 0


def _cmd_sample(args) -> int:
    domain, budget = _domain_budget(args)
    q = float(domain.require_query(args.q))
    scale = args.b if args.b is not None else calibrate(domain, budget).b_star
    rng = _make_rng(args.seed)
    if args.sampler == "truncated":
        values = sample_truncated(domain, q, scale, rng, size=args.n)
    else:
        mech = CalibratedMechanism(domain, budget, scale)
        if args.sampler == "rejection":
            values, _ = mech.sample_rejection(q, rng, size=args.n)
        else:
            values = mech.sample_inverse(q, rng, size=args.n)
    if args.format == "json":
        print(json.dumps({"scale": float(scale), "values": [float(v) for v in values]}))
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
    domain, budget = _domain_budget(args)
    scale = args.b if args.b is not None else calibrate(domain, budget).b_star
    config = PrivacyCheckConfig(
        q_grid_size=args.q_grid,
        set_grid_size=args.set_grid,
        slack=args.slack,
    )
    rng = _make_rng(args.seed) if args.samples else None
    report = run_all_checks(domain, budget, scale=scale, config=config,
                            rng=rng, samples=args.samples, bins=args.bins)
    if args.format == "json":
        out = report.to_dict()
        out["scale"] = float(scale)
        print(json.dumps(out))
    elif args.format == "csv":
        w = _csv_writer()
        w.writerow(["name", "passed", "worst_margin", "witness"])
        for c in report.checks:
            w.writerow([c.name, str(c.passed).lower(), _fmt(c.worst_margin),
                        json.dumps(c.witness, separators=(",", ":"))])
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            witness = json.dumps(c.witness, separators=(",", ":"))
            print(f"{c.name}: {status} worst_margin={_fmt(c.worst_margin)} witness={witness}")
        print(f"overall: {'PASS' if report.all_passed else 'FAIL'} scale={_fmt(scale)}")
    return 0 if report.all_passed else 1


def _cmd_sweep(args) -> int:
    if args.dq_steps < 1 or args.eps_steps < 1:
        raise ValueError("--dq-steps and --eps-steps must be at least 1")
    dq_max = args.dq_max if args.dq_max is not None else args.width
    sensitivities = np.logspace(math.log10(args.dq_min), math.log10(dq_max),
                                args.dq_steps)
    if sensitivities.size > 1:
        # 10 ** log10(dq_max) can miss dq_max by an ulp, and land above the width
        sensitivities[-1] = dq_max
    epsilons = np.logspace(math.log10(args.eps_min), math.log10(args.eps_max),
                           args.eps_steps)
    cells = epsilon_ratio_grid(args.width, sensitivities, epsilons)
    w = _csv_writer()
    w.writerow(["sensitivity", "epsilon", "b_star", "effective_epsilon", "ratio"])
    failed = False
    for cell in cells:
        if cell.error is not None:
            failed = True
            w.writerow([_fmt(cell.sensitivity), _fmt(cell.epsilon), "NA", "NA", "NA"])
        else:
            w.writerow([_fmt(cell.sensitivity), _fmt(cell.epsilon),
                        _fmt(cell.b_star), _fmt(cell.effective_epsilon),
                        _fmt(cell.ratio)])
    return 1 if failed else 0


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
    p.add_argument("--q-grid", type=int, default=200, dest="q_grid")
    p.add_argument("--set-grid", type=int, default=200, dest="set_grid")
    p.add_argument("--slack", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="empirical-check sample count (0 skips it)")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="budget-inflation grid as CSV")
    p.add_argument("--width", type=float, default=1.0, help="domain width (lower=0)")
    p.add_argument("--dq-min", type=float, default=1e-3, dest="dq_min")
    p.add_argument("--dq-max", type=float, default=None, dest="dq_max",
                   help="default: the domain width")
    p.add_argument("--dq-steps", type=int, default=50, dest="dq_steps")
    p.add_argument("--eps-min", type=float, default=1e-2, dest="eps_min")
    p.add_argument("--eps-max", type=float, default=10.0, dest="eps_max")
    p.add_argument("--eps-steps", type=int, default=50, dest="eps_steps")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
