#!/usr/bin/env python3
"""Benchmark of the bounded-laplace package: one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, 10 s each, untraced

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the run's metadata.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  A table of the metrics
goes to standard error.  Workloads, metrics and what each per-layer metric
should move are described in ``perfbench/METRICS.md``.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BACKEND_VAR = "BOUNDED_LAPLACE_BACKEND"
SETUP_PROBES = 4  # before and again after the timed passes, to sample two machine states
MIN_PASSES = 2  # an untraced run always times at least two passes
READY = "ready"
WORKLOAD_NAMES = ("sweep", "verify", "release")


def git_sha(root):
    """Commit of the checkout; None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env():
    env = dict(os.environ)
    env.pop(BACKEND_VAR, None)
    return env


def setup_probe(workload, seed):
    """Time one set-up in a fresh interpreter: import, inputs and warm-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line != READY or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def timed_passes(workload, seconds, first_index, min_passes, tracer=None):
    """Run passes until the next one would end after ``seconds``."""
    passes, walls = [], []
    start = time.perf_counter()
    index = first_index
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            res = workload.run_pass(index)
        else:
            with tracer.span("bench"):
                res = workload.run_pass(index)
        walls.append(time.perf_counter() - t0)
        passes.append(res)
        index += 1
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return passes, walls


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def pass_time(passes):
    """Program time of one pass, as the 90th percentile over the passes.

    The shared host runs this program at one of two speeds about 1.5x apart,
    switching within seconds, and the share of fast time differs from run to
    run; a median over passes jumps with that share.  The slower state shows
    up in nearly every run, so per-pass figures are summarised by the 90th
    percentile (the 10th for rates).
    """
    return percentile([p.program_s for p in passes], 90)


def end_to_end(passes, setup_s, work):
    """The end-to-end metrics of an untraced run.  ``values_per_s`` counts the
    values a pass is asked for, so it is never 0; failed ops show in
    ``failed`` instead."""
    latencies = [x for p in passes for x in p.latencies_s]
    pass_p50 = [percentile(p.latencies_s, 50) for p in passes]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_time(passes), "s"),
        "values_per_s": (percentile([work["values"] / p.program_s for p in passes], 10), "1/s"),
        "request_p50_ms": (1e3 * percentile(pass_p50, 90), "ms"),
        "request_p99_ms": (1e3 * percentile(latencies, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced, walls, work):
    n = len(traced)

    def per_pass(x):
        return x / n

    m = {}
    for name, *_ in tracer.spans:
        st = tracer.stat(name)
        m[f"{name}.calls"] = (per_pass(st.calls), "count")
        m[f"{name}.self_s"] = (per_pass(st.self_s), "s")
    inverse = tracer.stat("mechanism.sample_inverse").counts
    rejection = tracer.stat("mechanism.sample_rejection").counts
    truncated = tracer.stat("mechanism.sample_truncated").counts
    m["calibration.bisection_iterations"] = (
        per_pass(tracer.stat("calibration.calibrate").counts.get("iterations", 0)), "count")
    m["mechanism.sample_inverse.values"] = (per_pass(inverse.get("values", 0)), "count")
    m["mechanism.sample_rejection.values"] = (per_pass(rejection.get("values", 0)), "count")
    m["mechanism.sample_rejection.attempts"] = (per_pass(rejection.get("attempts", 0)), "count")
    m["mechanism.sample_truncated.values"] = (per_pass(truncated.get("values", 0)), "count")
    attempts = rejection.get("attempts", 0)
    m["mechanism.rejection_acceptance"] = (
        rejection.get("values", 0) / attempts if attempts else 0.0, "ratio")
    scan_s = tracer.stat("verification.check_privacy_inequality").total_s
    m["kernels.query_pairs"] = (work["query_pairs"], "count")
    m["kernels.candidate_sets"] = (work["candidate_sets"], "count")
    m["kernels.candidate_sets_per_s"] = (
        work["candidate_sets"] * n / scan_s if scan_s else 0.0, "1/s")
    m["kernels.input_bytes"] = (work["input_bytes"], "B")
    m["verification.unexpected_verdicts"] = (
        per_pass(sum(p.unexpected_verdicts for p in traced)), "count")
    m["cli.stdout_bytes"] = (per_pass(sum(p.stdout_bytes for p in traced)), "B")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (per_pass(sum(
            st.self_s for name, st in tracer.stats.items()
            if name.split(".")[0] == layer)), "s")
    # the layers' self times, bench.self_s included, add up to this
    m["trace.wall_s"] = (per_pass(sum(walls)), "s")
    m["trace.overhead_ratio"] = (pass_time(traced) / pass_time(untraced), "ratio")
    return m


def metadata(args, backend_env):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        BACKEND_VAR: backend_env,
    }


def run_one(args, backend_env):
    def probes():
        return [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    setups = [] if args.trace else probes()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    meta = metadata(args, backend_env)
    meta["work_per_pass"] = work = workload.work()
    meta["setup_probes_s"] = setups
    if not args.trace:
        passes, _ = timed_passes(workload, args.seconds, 0, MIN_PASSES)
        setups += probes()
        metrics = end_to_end(passes, statistics.median(setups), work)
        meta["request_samples"] = sum(len(p.latencies_s) for p in passes)
        trace_ok = True
    else:
        untraced, _ = timed_passes(workload, args.seconds / 2, 0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes, walls = timed_passes(workload, args.seconds / 2, len(untraced), 1, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, passes, untraced, walls, work)
        self_sum = sum(st.self_s for st in tracer.stats.values())
        meta["absent_spans"] = tracer.absent
        meta["trace_self_sum_s"] = self_sum
        meta["trace_wall_sum_s"] = sum(walls)
        # self times of all spans, the benchmark's own included, must add up
        # to the traced wall time
        trace_ok = abs(self_sum - sum(walls)) <= 1e-3 * sum(walls)
        passes = passes + untraced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    meta["passes"] = len(passes)
    meta["pass_program_s"] = [round(p.program_s, 6) for p in passes]
    meta["pass_p50_s"] = [round(percentile(p.latencies_s, 50), 9) for p in passes]
    meta["error_rate"] = failed / attempted
    meta["errors"] = sorted({e for p in passes for e in p.errors})[:5]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:45s} {value:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:8s} {'error_rate':45s} {failed}/{attempted}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    return {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; metric names gain a workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "bounded_laplace" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    backend_env = os.environ.pop(BACKEND_VAR, None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    elif args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).warm_up()
        print(READY, flush=True)
        return 0
    else:
        import bounded_laplace

        if Path(bounded_laplace.__file__).resolve().parent != SRC / "bounded_laplace":
            print(f"error: bounded_laplace imported from {bounded_laplace.__file__}",
                  file=sys.stderr)
            return 2
        result = run_one(args, backend_env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
