import csv
import hashlib
import io
import json
import subprocess
import sys
import warnings

import pytest

from bounded_laplace import OutputDomain, PrivacyBudget, calibrate, verification
from bounded_laplace.cli import build_parser, main
from bounded_laplace.verification import EMPIRICAL_SAMPLES, PRIVACY_SLACK, SCAN_GRID


BASE = ["--epsilon", "1", "--delta", "0", "--lower", "0", "--upper", "1"]


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ------------------------------------------------------------------ calibrate


def test_calibrate_degenerate_text(capsys):
    code, out, _ = run_cli(["calibrate", *BASE, "--sensitivity", "1"], capsys)
    assert code == 0
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["b_star"]) == 1.0
    assert float(lines["b0"]) == 1.0
    assert lines["iterations"] == "0"


def test_calibrate_json_matches_library(capsys):
    code, out, _ = run_cli(
        ["calibrate", *BASE, "--sensitivity", "0.5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    report = calibrate(OutputDomain(0.0, 1.0, 0.5), PrivacyBudget(1.0, 0.0))
    assert payload["b_star"] == pytest.approx(report.b_star, abs=1e-12)
    assert payload["effective_epsilon"] == pytest.approx(
        report.effective_epsilon, abs=1e-12)
    # parsed output re-validates the report invariants
    assert payload["b0"] <= payload["b_star"] <= payload["f_b0"]
    assert payload["residual"] <= 1e-12


def test_calibrate_csv_format(capsys):
    code, out, _ = run_cli(
        ["calibrate", *BASE, "--sensitivity", "0.5", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["b0", "f_b0", "b_star", "residual", "iterations",
                       "effective_epsilon"]
    assert float(rows[1][2]) == pytest.approx(0.7066713488689365, abs=1e-12)


def test_calibrate_rejects_zero_budget(capsys):
    code, out, err = run_cli(
        ["calibrate", "--epsilon", "0", "--delta", "0", "--lower", "0",
         "--upper", "1", "--sensitivity", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert "epsilon and delta cannot both be zero" in err


def test_calibrate_rejects_oversized_sensitivity(capsys):
    code, _, err = run_cli(["calibrate", *BASE, "--sensitivity", "2"], capsys)
    assert code == 2
    assert "sensitivity" in err


def test_calibrate_rejects_a_width_that_overflows():
    # a subprocess, so any numpy warning would reach its stderr
    proc = subprocess.run(
        [sys.executable, "-m", "bounded_laplace", "calibrate", "--epsilon", "1",
         "--lower=-1e308", "--upper", "1e308", "--sensitivity", "1"],
        capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: domain width upper - lower must be finite, got inf\n"


# --------------------------------------------------------------------- sample


def test_sample_values_inside_domain(capsys):
    code, out, _ = run_cli(
        ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.2", "--n", "200",
         "--seed", "7"], capsys)
    assert code == 0
    values = [float(v) for v in out.split()]
    assert len(values) == 200
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sample_deterministic_given_seed(capsys):
    argv = ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.2", "--n", "64",
            "--seed", "123", "--sampler", "rejection"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_auto_seed_reported_on_stderr(capsys):
    argv = ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.2", "--n", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert err.startswith("seed: ")
    seed = err.split()[1]
    code2, out2, err2 = run_cli([*argv, "--seed", seed], capsys)
    assert code2 == 0
    assert out2 == out
    assert err2 == ""


def test_sample_rejects_query_outside_domain(capsys):
    code, _, err = run_cli(
        ["sample", *BASE, "--sensitivity", "0.5", "--q", "1.5", "--seed", "1"],
        capsys)
    assert code == 2
    assert "outside" in err


def test_sample_truncated_emits_exact_bound_values(capsys):
    code, out, _ = run_cli(
        ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.05", "--n", "500",
         "--seed", "3", "--sampler", "truncated"], capsys)
    assert code == 0
    values = [float(v) for v in out.split()]
    assert values.count(0.0) > 0
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sample_scale_override_and_json(capsys):
    code, out, _ = run_cli(
        ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.5", "--n", "10",
         "--seed", "5", "--b", "0.9", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["scale"] == 0.9
    assert len(payload["values"]) == 10


# --------------------------------------------------------------------- verify


VERIFY_FAST = ["--q-grid", "60", "--set-grid", "60", "--samples", "50000",
               "--seed", "11"]


def test_verify_passes_at_calibrated_scale(capsys):
    code, out, _ = run_cli(
        ["verify", *BASE, "--sensitivity", "0.5", *VERIFY_FAST], capsys)
    assert code == 0
    assert "overall: PASS" in out


def test_verify_fails_at_baseline_scale(capsys):
    code, out, _ = run_cli(
        ["verify", *BASE, "--sensitivity", "0.5", "--b", "0.5", *VERIFY_FAST],
        capsys)
    assert code == 1
    assert "privacy_inequality: FAIL" in out


def test_verify_baseline_passes_when_sensitivity_spans_domain(capsys):
    code, _, _ = run_cli(
        ["verify", *BASE, "--sensitivity", "1", "--b", "1.0", *VERIFY_FAST],
        capsys)
    assert code == 0


def test_verify_json_report(capsys):
    code, out, _ = run_cli(
        ["verify", *BASE, "--sensitivity", "0.5", "--format", "json",
         *VERIFY_FAST], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "privacy_inequality" in names and "empirical_privacy" in names
    for check in payload["checks"]:
        assert "worst_margin" in check and "witness" in check


@pytest.mark.parametrize("problem", [
    ["--lower", "12345.6", "--upper", "12345.7", "--sensitivity", "0.05"],
    ["--lower", "1e9", "--upper", "1000000001", "--sensitivity", "0.5"],
    ["--lower", "1e6", "--upper", "1000000.001", "--sensitivity", "0.0005"],
])
def test_verify_passes_far_from_zero(problem, capsys):
    # the query grid rounds at the scale of |lower|, far coarser than the width
    code, out, err = run_cli(["verify", "--epsilon", "1", *problem, "--samples", "0"],
                             capsys)
    assert (code, err) == (0, "")
    assert "ratio_monotonicity: PASS" in out


def test_verify_passes_on_narrow_domain_at_large_epsilon(capsys):
    code, out, err = run_cli(
        ["verify", "--epsilon", "50", "--lower", "0", "--upper", "0.001",
         "--sensitivity", "0.0005", "--samples", "0", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    # ratio slopes are per unit of width; per unit of length the rounding
    # noise of this domain's log normalizers read as a 5.55e-8 margin
    assert checks["ratio_monotonicity"]["passed"]
    # b_star is the private end of calibrate's bracket, so achieved_epsilon
    # does not exceed epsilon even in its last digit
    sufficient = checks["sufficient_condition"]
    assert sufficient["worst_margin"] <= 0.0
    assert sufficient["witness"]["achieved_epsilon"] <= 50.0


@pytest.mark.parametrize("problem, pair", [
    (["--epsilon", "30", "--lower", "0", "--upper", "1", "--sensitivity", "0.5"],
     [0.0, 0.5]),
    (["--epsilon", "50", "--lower", "0", "--upper", "0.001", "--sensitivity", "0.0005"],
     [0.0, 0.0005]),
], ids=["eps30", "eps50_narrow"])
def test_verify_large_epsilon_grid_witness_is_the_worst_pair(problem, pair, capsys):
    # b_star is private.  Upper sets' margins, differences of two terms of
    # size e^eps, read 2**-9 at eps = 30 and failed it, and at eps = 50 tied
    # at 0 on a set that names no near-violation; lower sets keep the margin.
    # The worst set of the worst pair is empty or a few ulps wide, so the
    # margin reads 0 up to rounding
    code, out, err = run_cli(["verify", *problem, "--samples", "0", "--format", "json"],
                             capsys)
    assert (code, err) == (0, "")
    grid = json.loads(out)["checks"][0]
    assert grid["name"] == "privacy_inequality" and grid["passed"]
    assert [grid["witness"]["q"], grid["witness"]["q_prime"]] == pair
    assert grid["witness"]["intervals"][0][0] == 0.0
    assert -1e-4 < grid["worst_margin"] <= PRIVACY_SLACK


@pytest.mark.parametrize("scale", [[], ["--b", "10"]], ids=["b_star", "b10"])
def test_verify_epsilon_beyond_exp_range_reports_refusal(scale, capsys):
    # e^1000 is not a finite double.  The grid check once refused here with a
    # NaN margin; its delta has no e^eps in it now, so no check reports a
    # refusal and both private scales pass all four checks at a finite margin
    code, out, err = run_cli(
        ["verify", "--epsilon", "1000", "--lower", "0", "--upper", "1",
         "--sensitivity", "0.5", "--samples", "0", "--format", "json", *scale], capsys)
    assert (code, err) == (0, "")
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == [
        "privacy_inequality", "sufficient_condition", "ratio_monotonicity",
        "fixed_point_properties"]
    assert all(c["passed"] for c in checks)
    assert not any("refused" in c["witness"] for c in checks)
    assert checks[0]["worst_margin"] == 0.0


def test_verify_grid_and_sample_defaults_are_the_library_constants():
    args = build_parser().parse_args(["verify", *BASE, "--sensitivity", "0.5"])
    assert args.q_grid == args.set_grid == SCAN_GRID
    assert args.samples == EMPIRICAL_SAMPLES


@pytest.mark.parametrize("flag", ["--q-grid", "--set-grid"])
def test_verify_grid_below_two_is_typed_error(flag, capsys):
    code, out, err = run_cli(
        ["verify", *BASE, "--sensitivity", "0.5", "--samples", "0", flag, "1"], capsys)
    assert (code, out) == (2, "")
    assert "grid sizes must be at least 2" in err


def test_verify_negative_samples_is_rejected_before_any_check(monkeypatch, capsys):
    # no seed is drawn and echoed, and neither calibrate nor any check runs
    def ran(*args, **kwargs):
        raise AssertionError("ran before the sample count was validated")

    for name in ("calibrate", "check_privacy_inequality", "check_sufficient_condition",
                 "check_ratio_monotonicity", "check_fixed_point_properties",
                 "empirical_privacy_estimate"):
        monkeypatch.setattr(verification, name, ran)
    code, out, err = run_cli(["verify", *BASE, "--sensitivity", "0.5", "--samples", "-1"],
                             capsys)
    assert (code, out, err) == (2, "", "error: samples must be non-negative\n")


def test_verify_grid_check_fails_a_violation_between_set_grid_points(capsys):
    # b lies between b0 and b_star; the worst set of the pair (0, 1e-4) ends
    # 6.6e-6 above 0, inside the first cell of the set grid that the grid
    # check searched before, which passed this scale at margin -6.7e-6
    code, out, err = run_cli(
        ["verify", "--epsilon", "0.01", "--lower", "0", "--upper", "1",
         "--sensitivity", "1e-4", "--b", "0.018618772997733554", "--samples", "0",
         "--format", "json"], capsys)
    assert (code, err) == (1, "")
    grid = json.loads(out)["checks"][0]
    assert grid["name"] == "privacy_inequality" and not grid["passed"]
    assert [grid["witness"]["q"], grid["witness"]["q_prime"]] == [0.0, 1e-4]
    assert 1e-7 < grid["worst_margin"] < 2e-7


def test_verify_reports_finite_margins_far_below_the_width(capsys):
    # at b = 1e-20 the log normalizers' difference was NaN and warned twice;
    # the log ratio is now one cancellation-free log1p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["verify", "--epsilon", "1", "--lower", "0", "--upper", "1",
             "--sensitivity", "0.5", "--b", "1e-20", "--samples", "0", "--format", "json"],
            capsys)
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert all(c["worst_margin"] is not None for c in checks.values()), checks
    assert checks["ratio_monotonicity"]["passed"]
    assert not checks["privacy_inequality"]["passed"]
    assert checks["privacy_inequality"]["worst_margin"] == 1.0


def test_verify_reports_an_undefined_fixed_point_update(capsys):
    # b = 2 is the exact fixed point here, but at b0 = 1 the exponent budget
    # rounds to 0, so the update is undefined: the fixed-point check fails
    # and the other checks still report
    code, out, err = run_cli(
        ["verify", "--epsilon", "1e-100", "--lower", "0", "--upper", "1",
         "--sensitivity", "1e-100", "--b", "2", "--samples", "0"], capsys)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "privacy_inequality", "sufficient_condition", "ratio_monotonicity",
        "fixed_point_properties", "overall"]
    assert all(": PASS " in line for line in lines[:3]), lines
    assert lines[3].startswith("fixed_point_properties: FAIL worst_margin=nan witness=")
    assert "fixed-point update undefined at scale 1.0" in lines[3]


def test_verify_fails_sufficient_condition_at_small_epsilon(capsys):
    # achieved epsilon is 1.056e-8 at this scale (b_star is 7.5e7), a margin
    # of 5.6e-10 that an absolute 1e-9 allowance would forgive
    code, out, err = run_cli(
        ["verify", "--epsilon", "1e-8", "--lower", "0", "--upper", "1",
         "--sensitivity", "0.5", "--b", "7.1e7", "--samples", "0"], capsys)
    assert (code, err) == (1, "")
    assert "sufficient_condition: FAIL" in out


@pytest.mark.parametrize("scale, code", [([], 0), (["--b", "1"], 1)], ids=["b_star", "b0"])
def test_verify_reports_at_small_epsilon_and_sensitivity(scale, code, capsys):
    # just below b0 = 1 the fixed-point update is undefined here, so the
    # fixed-point check's differences must stay above b0
    got, out, err = run_cli(
        ["verify", "--epsilon", "1e-7", "--lower", "0", "--upper", "1",
         "--sensitivity", "1e-7", "--samples", "0", "--format", "json", *scale], capsys)
    assert (got, err) == (code, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["fixed_point_properties"]["passed"]
    grid = checks["privacy_inequality"]
    if code == 0:
        assert all(c["passed"] for c in checks.values())
    else:  # b0 is not private: the grid check finds a violating set
        assert not grid["passed"] and grid["worst_margin"] > 0.0


@pytest.mark.parametrize("override", [[], ["--b", "0.9"]])
def test_verify_json_scale_is_the_reports(override, capsys):
    code, out, _ = run_cli(["verify", *BASE, "--sensitivity", "0.5", *override,
                            "--samples", "0", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    scale = 0.9 if override else calibrate(OutputDomain(0.0, 1.0, 0.5),
                                           PrivacyBudget(1.0, 0.0)).b_star
    assert list(payload) == ["all_passed", "checks", "scale"]
    assert payload["scale"] == scale


@pytest.mark.parametrize("override", [[], ["--b", "0.3"]])
def test_sample_and_verify_print_one_default_scale(override, capsys):
    scale = 0.3 if override else calibrate(OutputDomain(0.0, 1.0, 0.5),
                                           PrivacyBudget(1.0, 0.0)).b_star
    sample = ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.3", "--seed", "1"]
    for argv, code in [
        ([*sample, "--sampler", "inverse"], 0),
        ([*sample, "--sampler", "rejection"], 0),
        ([*sample, "--sampler", "truncated"], 0),
        # 0.3 lies below b_star, so the grid check fails there
        (["verify", *BASE, "--sensitivity", "0.5", "--samples", "0", "--q-grid", "20",
          "--set-grid", "20"], 1 if override else 0),
    ]:
        got_code, out, _ = run_cli([*argv, *override, "--format", "json"], capsys)
        assert got_code == code, argv
        assert json.loads(out)["scale"] == scale, argv


@pytest.mark.parametrize("command", [
    ["calibrate"],
    ["sample", "--q", "0.3"],
    ["verify", "--b", "1", "--samples", "0", "--q-grid", "20", "--set-grid", "20"],
])
@pytest.mark.parametrize("epsilon, sensitivity, message", [
    ("1e-320", "0.5", "0.5 / 1e-320 overflows a double"),
    ("700", "5e-324", "5e-324 / 700.0 underflows a double"),
])
def test_overflowing_baseline_scale_is_typed_error(command, epsilon, sensitivity, message,
                                                   capsys):
    # before, the error named an infinite or zero scale nobody passed
    code, out, err = run_cli(
        [command[0], "--epsilon", epsilon, "--lower", "0", "--upper", "1",
         "--sensitivity", sensitivity, *command[1:]], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: baseline scale sensitivity / epsilon' = {message}\n"


def test_verify_csv_report(capsys):
    code, out, _ = run_cli(
        ["verify", *BASE, "--sensitivity", "0.5", "--format", "csv",
         "--samples", "0", "--q-grid", "40", "--set-grid", "40"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "passed", "worst_margin", "witness"]
    assert all(row[1] == "true" for row in rows[1:])


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_verify_json_is_strict_with_too_few_samples(fmt, capsys):
    # the fixed-point update is undefined at b0 = 1 in double, so that check
    # refuses with a NaN margin; the other checks still report, the empirical
    # one on 10 draws
    code, out, _ = run_cli(["verify", "--epsilon", "1e-100", "--lower", "0", "--upper", "1",
                            "--sensitivity", "1e-100", "--b", "2", "--samples", "10",
                            "--seed", "1", "--format", fmt], capsys)
    assert code == 1
    if fmt == "json":
        checks = json.loads(out, parse_constant=_reject_constant)["checks"]
        assert checks[3]["worst_margin"] is None
        assert checks[-1]["passed"] and checks[-1]["witness"]["samples"] == 10
        witnesses = [c["witness"] for c in checks]
    else:
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
            margins, docs = [row[2] for row in rows], [row[3] for row in rows]
        else:
            lines = out.splitlines()[:-1]
            margins = [line.split(" worst_margin=", 1)[1].split(" ", 1)[0] for line in lines]
            docs = [line.split(" witness=", 1)[1] for line in lines]
        assert margins[3] == "nan"
        witnesses = [json.loads(doc, parse_constant=_reject_constant) for doc in docs]
    assert "fixed-point update undefined" in witnesses[3]["refused"]
    assert len(witnesses) == 5


def test_verify_passes_the_calibrated_scale_at_positive_delta(capsys):
    # the empirical check tests (eps, delta)-privacy, so delta's room counts
    code, out, _ = run_cli(["verify", "--epsilon", "1", "--delta", "0.1", "--lower", "0",
                            "--upper", "1", "--sensitivity", "0.5", "--seed", "1",
                            "--format", "json"], capsys)
    assert code == 0
    assert all(c["passed"] for c in json.loads(out)["checks"])


def test_verify_empirical_check_fails_b0_at_small_sensitivity(capsys):
    # b0 = 0.02 on [0, 1] with sensitivity 0.02 achieves eps = 1.49
    code, out, _ = run_cli(["verify", *BASE, "--sensitivity", "0.02", "--b", "0.02",
                            "--seed", "1", "--format", "json"], capsys)
    assert code == 1
    empirical = json.loads(out)["checks"][-1]
    assert empirical["name"] == "empirical_privacy" and not empirical["passed"]
    assert empirical["worst_margin"] > 2.0 * empirical["witness"]["resolution"]


def test_verify_empirical_check_samples_the_grid_checks_worst_pair(capsys):
    # at delta > 0 the edge pair (0, 0.1) is not the worst: its closed-form
    # margin is -0.0010, so no sample count fails it, while at the grid
    # check's witness pair it is +0.0084, above twice the resolution (0.0037)
    argv = ["verify", "--epsilon", "1", "--delta", "0.05", "--lower", "0", "--upper", "1",
            "--sensitivity", "0.1", "--b", "0.1", "--seed", "1", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    grid, *_, empirical = json.loads(out)["checks"]
    assert code == 1 and grid["witness"]["q"] > 0.0 and not empirical["passed"]
    assert empirical["worst_margin"] > empirical["witness"]["resolution"]


# ------------------------------------------------------------- seeded output


PINNED = ["--epsilon", "1", "--lower", "0", "--upper", "1", "--sensitivity", "0.5"]


# sha256 of the seeded stdout.  The samplers and the verifier promise the
# same bits for the same flags and seed, so these digests change only with a
# deliberate numerics change (such as calibrating in double precision), which
# updates them and says so in CHANGES.md.
@pytest.mark.parametrize("argv, code, digest", [
    (["verify", *PINNED, "--seed", "7", "--format", "json"], 0,
     "6f97c7cf5a7c25662398beb4c4e532381641dcc3e9d73f7e38b08edefb0338a1"),
    (["verify", *PINNED, "--b", "0.5", "--seed", "7", "--format", "json"], 1,
     "1bf3e0f18976c6ed4a94c7cb4438d50b6ee4dd8f0f95cbb257a1edcdf5c1433a"),
    (["sample", *PINNED, "--q", "0.3", "--n", "100000", "--seed", "42",
      "--sampler", "inverse"], 0,
     "6cae4c880ec85368a42d153c91cd1aed582481424e49e076f4d8f4831438957b"),
    (["sweep"], 0,
     "e93f83aa3dc9b2b2a045f00eb3cfacb3186c50baf8e022df8d8e38d9a8f57f33"),
])
def test_seeded_stdout_is_pinned(argv, code, digest, capsys):
    got_code, out, _ = run_cli(argv, capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_stdout_exits_like_sigpipe():
    # the reader takes one line and leaves; the writer is then blocked on a
    # full pipe, so its next write fails
    argv = ["sample", *PINNED, "--q", "0.3", "--n", "100000", "--seed", "1"]
    with subprocess.Popen([sys.executable, "-m", "bounded_laplace", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 141
    assert "Traceback" not in err, err


# ---------------------------------------------------------------------- sweep


def test_sweep_header_sorting_and_ratios(capsys):
    code, out, _ = run_cli(
        ["sweep", "--dq-steps", "3", "--eps-steps", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["sensitivity", "epsilon", "b_star", "effective_epsilon",
                       "ratio"]
    data = [(float(r[0]), float(r[1]), float(r[4])) for r in rows[1:]]
    assert data == sorted(data, key=lambda t: (t[0], t[1]))
    for dq, eps, ratio in data:
        assert 1.0 <= ratio < 2.0
        if dq == 1.0:
            assert ratio == 1.0


def test_sweep_rows_match_library(capsys):
    code, out, _ = run_cli(
        ["sweep", "--dq-steps", "2", "--eps-steps", "2"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    for row in rows:
        dq, eps = float(row[0]), float(row[1])
        report = calibrate(OutputDomain(0.0, 1.0, dq), PrivacyBudget(eps, 0.0))
        assert float(row[2]) == pytest.approx(report.b_star, rel=1e-12)
        assert float(row[4]) == pytest.approx(
            eps / report.effective_epsilon, rel=1e-12)


def test_sweep_ratio_monotone_in_epsilon(capsys):
    code, out, _ = run_cli(
        ["sweep", "--dq-steps", "2", "--eps-steps", "6"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    by_dq = {}
    for row in rows:
        by_dq.setdefault(row[0], []).append(float(row[4]))
    for ratios in by_dq.values():  # rows are epsilon-sorted within a dq block
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_sweep_emits_na_and_fails_on_bad_cells(capsys):
    # at epsilon 1e-320 the baseline scale sensitivity / epsilon overflows
    code, out, _ = run_cli(
        ["sweep", "--width", "1", "--dq-min", "0.5", "--eps-min", "1e-320",
         "--eps-max", "1", "--dq-steps", "2", "--eps-steps", "2"], capsys)
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))[1:]
    na_rows = [r for r in rows if r[4] == "NA"]
    ok_rows = [r for r in rows if r[4] != "NA"]
    assert len(na_rows) == 2 and len(ok_rows) == 2
    assert all(r[2] == "NA" and r[3] == "NA" for r in na_rows)


def test_sweep_last_sensitivity_is_exactly_the_width(capsys):
    # 10 ** log10(x) rounds one ulp above this width, and one below 0.005
    width = "1.969390655208028"
    for dq_min, dq_steps, eps_min in [
        ("0.001969390655208028", "3", "0.01"),
        (width, "2", "0.01"),  # the first sensitivity is the width too
        (width, "1", "0.01"),
        ("0.001969390655208028", "3", "0.005"),
    ]:
        code, out, _ = run_cli(
            ["sweep", "--width", width, "--dq-min", dq_min, "--dq-steps", dq_steps,
             "--eps-min", eps_min, "--eps-steps", "2"], capsys)
        assert (code, "NA" in out) == (0, False), (dq_min, dq_steps, eps_min)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert float(rows[0][0]) == float(dq_min)
        assert float(rows[0][1]) == float(eps_min)
        assert float(rows[-1][0]) == float(width)
        assert float(rows[-1][1]) == 10.0
        assert float(rows[-1][4]) == 1.0


@pytest.mark.parametrize("steps", ["0", "-3"])
@pytest.mark.parametrize("flag", ["--dq-steps", "--eps-steps"])
def test_sweep_empty_grid_is_usage_error(flag, steps, capsys):
    # a grid without a row would print only the CSV header
    code, out, err = run_cli(["sweep", flag, steps], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, flag", [
    (["--width", "0.0005"], "--dq-min"),
    (["--dq-min", "2"], "--dq-min"),
    (["--dq-max", "2"], "--dq-max"),
    (["--dq-min", "nan"], "--dq-min"),
    (["--eps-max", "inf"], "--eps-max"),
    (["--width", "0"], "--width"),
    (["--width", "-1"], "--width"),
    (["--dq-min", "0"], "--dq-min"),
    (["--eps-min", "-1"], "--eps-min"),
])
def test_sweep_rejects_axes_it_cannot_calibrate(argv, flag, capsys):
    code, out, err = run_cli(["sweep", *argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ")


def test_sweep_descending_epsilon_axis_calibrates(capsys):
    code, out, _ = run_cli(["sweep", "--eps-min", "10", "--eps-max", "1",
                            "--dq-steps", "2", "--eps-steps", "2"], capsys)
    assert code == 0
    epsilons = [float(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]]
    assert epsilons == [10.0, 1.0, 10.0, 1.0]


def test_sweep_deterministic(capsys):
    argv = ["sweep", "--dq-steps", "3", "--eps-steps", "2"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


# ---------------------------------------------------------------------- usage


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["calibrate", "--epsilon", "1"])
    assert info.value.code == 2


def test_verify_two_intervals_flag_is_usage_error(capsys):
    # single intervals are exact for this mechanism, so verify has no
    # two-interval search to switch on; its tolerances and bin count are
    # fixed, so it takes no flag for them either
    for flag in (["--two-intervals"], ["--slack", "1e-9"], ["--bins", "50"]):
        with pytest.raises(SystemExit) as info:
            main(["verify", *BASE, "--sensitivity", "0.5", *VERIFY_FAST, *flag])
        assert info.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert flag[0] in cap.err


SUBCOMMAND_ARGV = {
    "calibrate": ["calibrate", *BASE, "--sensitivity", "0.5"],
    "sample": ["sample", *BASE, "--sensitivity", "0.5", "--q", "0.2", "--seed", "1"],
    "verify": ["verify", *BASE, "--sensitivity", "0.5", *VERIFY_FAST],
    "sweep": ["sweep", "--dq-steps", "2", "--eps-steps", "2"],
}


@pytest.mark.parametrize("flag", [["--tol", "1e-12"], ["--max-iter", "200"]])
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_bisection_controls_are_usage_errors(command, flag, capsys):
    # calibrate's bisection stops on its own, so no subcommand takes a
    # tolerance or an iteration cap
    with pytest.raises(SystemExit) as info:
        main([*SUBCOMMAND_ARGV[command], *flag])
    assert info.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert flag[0] in cap.err
