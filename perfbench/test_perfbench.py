"""Tests of the benchmark itself: inputs, work counts, checks and tracing.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bounded_laplace as bl  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from bounded_laplace import calibration, cli, verification  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def inputs(workload):
    if isinstance(workload, wl.Release):
        return [workload.plan(i) for i in (-1, 0, 3)]
    if isinstance(workload, wl.Verify):
        return workload.runs
    return workload.argv


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    cls = wl.WORKLOADS[name]
    assert inputs(cls(7)) == inputs(cls(7))
    assert inputs(cls(7)) != inputs(cls(8))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_work_per_pass_does_not_depend_on_seed(name):
    cls = wl.WORKLOADS[name]
    works = [cls(seed).work() for seed in (0, 1, 2, 12345)]
    assert all(w == works[0] for w in works)
    assert works[0]["ops"] > 0 and works[0]["calibrations"] > 0 and works[0]["values"] > 0


def test_release_mix_is_fixed_across_passes():
    def mix(requests):
        return sorted((r.sampler, r.size is None) for r in requests)

    release = wl.Release(3)
    _, first = release.plan(0)
    for index in (1, 7):
        configs, requests = release.plan(index)
        assert mix(requests) == mix(first)
        assert len({r.config for r in requests}) == len(configs)
        edges = sum(r.q in (configs[r.config].lower, configs[r.config].upper)
                    for r in requests if r.size is None)
        grid_points = np.arange(len(wl.SAMPLERS) * wl.SINGLES) % wl.Q_GRID
        assert edges == np.count_nonzero(grid_points % (wl.Q_GRID - 1) == 0)


def test_verify_work_counts_the_scan():
    work = wl.Verify(0).work()
    m = wl.VERIFY_GRID
    assert work["candidate_sets"] == work["query_pairs"] * m * (m - 1) // 2
    # |i - j| <= 99 on a 200-point grid, for both problems of a pass
    assert work["query_pairs"] == 2 * sum(min(i + 99, m - 1) - max(i - 99, 0) + 1
                                          for i in range(m))


# --- correctness checks count planted wrong outputs --------------------------


def sweep_output(rows):
    lines = ["sensitivity,epsilon,b_star,effective_epsilon,ratio"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\r\n".join(lines) + "\r\n"


def good_sweep():
    eps = np.logspace(-2, 1, wl.SWEEP_STEPS * wl.SWEEP_STEPS)
    rows = [[0.1, e, 1.0, e / 1.5, 1.5] for e in eps]
    return rows, list(eps)


def test_sweep_check_accepts_good_output():
    rows, achieved = good_sweep()
    assert wl.check_sweep(0, sweep_output(rows), achieved) == 0
    rows[-1][4] = 0.99999999999999911  # rounding at sensitivity == width
    assert wl.check_sweep(0, sweep_output(rows), achieved) == 0


@pytest.mark.parametrize("plant", ["na", "ratio_high", "ratio_low", "inverse", "unparsed"])
def test_sweep_check_counts_a_bad_cell(plant):
    rows, achieved = good_sweep()
    if plant == "na":
        rows[5] = [0.1, rows[5][1], "NA", "NA", "NA"]
    elif plant == "ratio_high":
        rows[5][4] = 2.0
    elif plant == "ratio_low":
        rows[5][4] = 0.999
    elif plant == "inverse":
        achieved[5] *= 1.0 + 1e-8
    else:
        achieved[5] = None
    assert wl.check_sweep(0, sweep_output(rows), achieved) == 1


def test_sweep_check_fails_every_cell_on_bad_exit_or_missing_rows():
    rows, achieved = good_sweep()
    cells = wl.SWEEP_STEPS * wl.SWEEP_STEPS
    assert wl.check_sweep(1, sweep_output(rows), achieved) == cells
    assert wl.check_sweep(0, sweep_output(rows[:-1]), achieved[:-1]) == cells


def report(privacy_passed, margin, others_pass=True):
    checks = [{"name": "privacy_inequality", "passed": privacy_passed,
               "worst_margin": margin, "witness": {}}]
    checks += [{"name": n, "passed": others_pass, "worst_margin": -1.0, "witness": {}}
               for n in ("sufficient_condition", "ratio_monotonicity")]
    return json.dumps({"all_passed": privacy_passed and others_pass, "checks": checks})


def test_verdict_check():
    assert wl.check_verdict(0, report(True, -1e-5), expect_private=True)
    assert wl.check_verdict(1, report(False, 0.03, False), expect_private=False)
    # b0 reported as private
    assert not wl.check_verdict(0, report(True, -1e-5), expect_private=False)
    assert not wl.check_verdict(1, report(False, 0.0), expect_private=False)
    # b_star reported as not private, or a pass with a failing exit code
    assert not wl.check_verdict(1, report(False, 0.03), expect_private=True)
    assert not wl.check_verdict(0, report(True, -1e-5, others_pass=False), expect_private=True)
    assert not wl.check_verdict(1, report(True, -1e-5), expect_private=True)
    assert not wl.check_verdict(0, "not json", expect_private=True)


@pytest.fixture(scope="module")
def mech():
    domain = bl.OutputDomain(0.0, 1.0, 0.1)
    budget = bl.PrivacyBudget(1.0)
    return bl.CalibratedMechanism(domain, budget, bl.calibrate(domain, budget).b_star)


def test_release_check_accepts_real_outputs(mech):
    rng = np.random.default_rng(0)
    single = wl.Request(0, 0.5, "inverse", None)
    assert wl.check_release(single, mech, mech.sample_inverse(0.0, rng), None)
    bulk = wl.Request(0, 0.0, "rejection", 20_000)
    assert wl.check_release(bulk, mech, *mech.sample_rejection(0.0, rng, size=20_000))
    bulk = wl.Request(0, 1.0, "truncated", 20_000)
    values = bl.sample_truncated(mech.domain, 1.0, mech.scale, rng, size=20_000)
    assert wl.check_release(bulk, mech, values, None)


@pytest.mark.parametrize("plant", ["outside", "nan", "array_for_single", "short", "no_draws",
                                   "wrong_distribution"])
def test_release_check_counts_a_bad_response(mech, plant):
    rng = np.random.default_rng(1)
    single = wl.Request(0, 0.5, "rejection", None)
    bulk = wl.Request(0, 0.5, "inverse", 20_000)
    if plant == "outside":
        args = (single, mech, 1.5, 1)
    elif plant == "nan":
        args = (single, mech, math.nan, 1)
    elif plant == "array_for_single":
        args = (single, mech, np.array([0.5]), 1)
    elif plant == "short":
        args = (bulk, mech, mech.sample_inverse(0.5, rng, size=19_999), None)
    elif plant == "no_draws":
        args = (single, mech, 0.5, 0)
    else:
        args = (bulk, mech, rng.uniform(0.0, 1.0, 20_000), None)
    assert not wl.check_release(*args)


def test_values_per_s_counts_the_requested_values():
    failed = wl.PassResult(program_s=2.0, attempted=2, failed=2, latencies_s=[1.0, 1.0])
    metrics = bench.end_to_end([failed, failed], 0.3, {"values": 10})
    assert metrics["values_per_s"][0] == 5.0


def test_raising_request_counts_as_failed():
    configs = [wl.Config(0.0, 1.0, 2.0, 1.0)]  # sensitivity above the width
    res = wl.Release(0)._serve_all(configs, [wl.Request(0, 0.5, "inverse", None)])
    assert res.attempted == 1 and res.failed == 1
    assert "sensitivity" in res.errors[0]


def test_release_pass_is_correct():
    res = wl.Release(0).run_pass(0)
    assert res.failed == 0 and res.attempted == wl.REQUESTS
    assert len(res.latencies_s) == wl.REQUESTS


# --- tracing ------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    original = calibration.calibrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = calibration.calibrate
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert cli.calibrate is wrapped and verification.calibrate is wrapped
        assert bl.calibrate is wrapped
        assert bl.CalibratedMechanism.cdf.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert calibration.calibrate is original and cli.calibrate is original
    assert not hasattr(bl.CalibratedMechanism.cdf, "__wrapped__")
    assert tracer.absent == []


def test_self_times_add_up_to_the_wall_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench"):
            wl.run_cli(["sweep", "--dq-steps", "3", "--eps-steps", "3"])
    finally:
        tracer.uninstall()
    total = tracer.stat("bench").total_s
    assert sum(st.self_s for st in tracer.stats.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.stat("calibration.calibrate").calls == 9
    assert tracer.stat("calibration.calibrate").counts["iterations"] > 0
    assert tracer.stat("cli.main").calls == 1


def test_missing_name_is_reported_absent():
    spans = tracing.SPANS + (
        ("kernels.removed", "_kernels", None, "no_such_kernel", None),
        ("gone.module", "no_such_module", None, "f", None),
    )
    tracer = tracing.Tracer(spans)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kernels.removed", "gone.module"]


# --- the command --------------------------------------------------------------


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_reports_every_declared_metric(trace, section):
    proc = run(["--workload", "release", "--seed", "4", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    meta = json.loads(meta_line)["meta"]
    assert meta["seed"] == 4 and meta["BOUNDED_LAPLACE_BACKEND"] is None


def test_workload_names_agree():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(declared) == sorted(bench.WORKLOAD_NAMES) == sorted(wl.WORKLOADS)


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
