import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import variantfit
import variantfit.cli as cli
from variantfit.cli import Table, build_parser, json_text, main
from variantfit.dynamics import GENERATION_DAYS, TEST_INTENSITY_EXPONENT
from variantfit.errors import InvalidValue
from variantfit.simulation import SimConfig, simulate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_human_output(capsys):
    code, out, err = run(capsys, "estimate", "alpha")
    assert code == 0 and err == ""
    assert "gamma per 7 days: 1.8564" in out
    assert "gamma per 4.7 days (generation): 1.5149" in out


def test_estimate_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "estimate", "alpha", "--json")
    code2, out2, _ = run(capsys, "estimate", "alpha", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["command"] == "estimate"
    assert report["input"] == {"dataset": "alpha"}
    assert report["fit"]["alpha"] == pytest.approx(-8.7493, abs=1e-4)
    assert report["advantage"]["per_week"]["point"] == pytest.approx(1.8564, abs=1e-4)
    assert report["options"]["variance"] == "sandwich(4)"


def test_estimate_fisher_flag(capsys):
    code, out, _ = run(capsys, "estimate", "delta", "--fisher", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["options"]["variance"] == "fisher"
    gen = report["advantage"]["per_generation"]
    assert gen["ci_low"] == pytest.approx(2.1319, abs=2e-3)
    assert gen["ci_high"] == pytest.approx(2.2033, abs=2e-3)


def test_estimate_csv_input(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text(
        "t,label,sequenced,variant_count,total_cases,tested\n"
        "1,w1,1000,50,,\n2,w2,1000,90,,\n3,w3,1000,160,,\n4,w4,1000,250,,\n"
    )
    code, out, _ = run(capsys, "estimate", str(path), "--hac", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["input"]["path"] == str(path)
    assert len(report["input"]["sha256"]) == 64


def test_unknown_dataset_exits_one(capsys):
    code, out, err = run(capsys, "estimate", "no-such-file.csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_bad_csv_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,label,sequenced,variant_count,total_cases,tested\n1,w1,10,60,,\n")
    code, _, err = run(capsys, "estimate", str(path))
    assert code == 1
    assert "error:" in err


def test_crude_human_and_json(capsys):
    code, out, _ = run(capsys, "crude", "omicron")
    assert code == 0
    assert out.splitlines()[0] == "t,value,ci_low,ci_high"
    assert out.splitlines()[-1].startswith("mean,1.26932")
    code, out, _ = run(capsys, "crude", "omicron", "--json")
    report = json.loads(out)
    assert report["mean"] == pytest.approx(1.269316, abs=1e-5)
    assert len(report["measures"]) == 30


def test_forecast_window_and_bands(capsys):
    code, out, _ = run(
        capsys, "forecast", "alpha", "--train-through", "8",
        "--horizons", "5", "--c", "2", "--c", "4", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["options"]["train_through"] == 8
    assert [b["c"] for b in report["bands"]] == [2.0, 4.0]
    rows2, rows4 = report["bands"][0]["rows"], report["bands"][1]["rows"]
    assert [r["t"] for r in rows2] == [9, 10, 11, 12, 13]
    for a, b in zip(rows2, rows4):
        assert b["lower"] <= a["lower"] and a["upper"] <= b["upper"]


def test_forecast_window_out_of_range(capsys):
    code, _, err = run(capsys, "forecast", "alpha", "--train-through", "99")
    assert code == 1
    assert "WindowOutOfRange" in err


def test_infer_r_point(capsys):
    code, out, _ = run(
        capsys, "infer-r", "--R", "1.0", "--lambda", "0.2", "--gamma-gen", "2.0", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["inference"]["R_variant"] == pytest.approx(1.8)
    assert report["inference"]["R_incumbent"] == pytest.approx(0.9)


def test_infer_r_contour_csv(tmp_path, capsys):
    out_path = tmp_path / "contour.csv"
    code, _, _ = run(
        capsys, "infer-r", "--gamma-gen", "2.0", "--gamma-ci", "1.8", "2.2",
        "--contour", "0:1:0.25", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,threshold,lo,hi"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.5, 1 / 2.2, 1 / 1.8])
    # Each value is written with 10 significant digits.
    assert lines[2] == "0.25,0.5714285714,0.5263157895,0.625"
    fields = lines[2].split(",")
    assert float(fields[0]) == 0.25
    assert float(fields[1]) == pytest.approx(1.0 / (0.25 + 2.0 * 0.75))


def test_infer_r_requires_work(capsys):
    code, _, err = run(capsys, "infer-r", "--gamma-gen", "2.0")
    assert code == 1
    assert "error:" in err


def test_adjusted_r(capsys):
    code, out, _ = run(
        capsys, "adjusted-r", "--cases", "8000", "--cases-prev", "4000",
        "--tested", "600000", "--tested-prev", "300000", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["R_all"] == pytest.approx((2.0 * 2.0**-0.7) ** (4.7 / 7.0), rel=1e-9)


def test_adjusted_r_report_names_the_tested_counts(capsys):
    argv = ("adjusted-r", "--cases", "8000", "--cases-prev", "4000", "--tested-prev", "300000")
    reports = []
    for tested in ("600000", "900000"):
        code, out, _ = run(capsys, *argv, "--tested", tested, "--json")
        assert code == 0
        reports.append(json.loads(out))
    assert [r["input"] for r in reports] == [
        {"cases": 8000.0, "cases_prev": 4000.0, "tested": tested, "tested_prev": 300000.0}
        for tested in (600000.0, 900000.0)
    ]
    assert reports[0]["R_all"] != reports[1]["R_all"]


def test_simulate_estimate_round_trip(tmp_path, capsys):
    path = tmp_path / "sim.csv"
    code, _, _ = run(
        capsys, "simulate", "--gamma", "1.6", "--lambda0", "0.02",
        "--n", "5000", "--t", "12", "--seed", "5", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "estimate", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    adv = report["advantage"]["per_period"]
    assert adv["ci_low"] < 1.6 < adv["ci_high"]


def test_simulate_deterministic(tmp_path, capsys):
    args = ["simulate", "--gamma", "1.5", "--lambda0", "0.05",
            "--n", "1000", "--t", "6", "--seed", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "t,label,sequenced,variant_count,total_cases,tested"


def test_multi_command(tmp_path, capsys):
    path = tmp_path / "multi.csv"
    code, _, _ = run(
        capsys, "simulate", "--gamma", "1.4", "--gamma", "2.0",
        "--lambda0", "0.05", "--lambda0", "0.02",
        "--n", "4000", "--t", "10", "--seed", "3", "--out", str(path),
    )
    assert code == 0
    code, out, _ = run(capsys, "multi", "--file", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["numeraire"] == "variant_1"
    gammas = [v["gamma_per_period"] for v in report["variants"]]
    assert gammas[0] == pytest.approx(1.4, abs=0.15)
    assert gammas[1] == pytest.approx(2.0, abs=0.2)


def test_separation_reported_cleanly(tmp_path, capsys):
    path = tmp_path / "sep.csv"
    path.write_text(
        "t,label,sequenced,variant_count,total_cases,tested\n"
        "1,w1,100,0,,\n2,w2,100,0,,\n3,w3,100,0,,\n"
    )
    code, _, err = run(capsys, "estimate", str(path))
    assert code == 1
    assert "Separation" in err


def test_forecast_window_is_the_rows_between_its_ends(tmp_path, capsys):
    # t has gaps; --train-from 5 lies in the one between 4 and 7, so the
    # window through t = 8 holds exactly the rows t = 7 and 8.
    rows = {1: (100, 5), 2: (100, 8), 4: (100, 15), 7: (100, 30), 8: (100, 38),
            11: (100, 55), 12: (100, 60)}
    reports = {}
    for name, ts in (("gaps", rows), ("window", [7, 8])):
        path = tmp_path / f"{name}.csv"
        path.write_text(TWO_VARIANT_HEADER + "".join(f"{t},w{t},{rows[t][0]},{rows[t][1]},,\n"
                                                     for t in ts))
        code, out, err = run(capsys, "forecast", str(path), "--fisher", "--train-from", "5",
                             "--train-through", "8", "--json")
        assert (code, err) == (0, "")
        reports[name] = json.loads(out)
    for key in ("fit", "bands"):
        assert reports["gaps"][key] == reports["window"][key]


@pytest.mark.parametrize(
    "argv, error",
    [
        (("estimate", "alpha", "--level", "1.5"),
         "InvalidValue: level must lie in (0,1), got 1.5"),
        (("infer-r", "--R", "1.0", "--lambda", "1.5", "--gamma-gen", "2.0"),
         "InvalidValue: proportion must lie in [0,1], got 1.5"),
        (("estimate", "alpha", "--hac", "-1"), "InvalidValue: bandwidth must be >= 0, got -1"),
        (("forecast", "alpha", "--train-from", "8", "--train-through", "8"),
         "WindowOutOfRange: training window has fewer than 2 records"),
    ],
    ids=["estimate-level-1.5", "infer-r-lambda-1.5", "estimate-hac-negative",
         "forecast-one-period-window"],
)
def test_out_of_range_value_is_one_error_line(capsys, argv, error):
    assert run(capsys, *argv) == (1, "", f"error: {error}\n")


def test_level_next_to_one_gives_a_finite_interval(capsys):
    # 1 - 2**-53 lies in (0, 1), but 0.5 + level / 2 rounded to 1.0 and the
    # normal quantile raised StatisticsError: a traceback.
    code, out, err = run(capsys, "estimate", "alpha", "--level", "0.9999999999999999", "--json")
    assert (code, err) == (0, "")
    week = json.loads(out, parse_constant=_refuse_non_finite)["advantage"]["per_week"]
    assert 0 < week["ci_low"] < week["point"] < week["ci_high"]


@pytest.mark.parametrize(
    "command, text, extra, error",
    [
        ("estimate", "t,label,sequenced,variant_count,total_cases,tested\n"
         "1,w1,100,10,,\n2,w2,100,30,,\n3,w3,100,60,,\n", ["--period-days", "0"], "InvalidValue: "),
        ("multi", "t,label,count_a,count_b\n1,w1,10,5\n2,w2,5,6\n", ["--period-days", "0"],
         "InvalidValue: "),
        # As in the two-variant schema: a parse error that names the row.
        ("multi", "t,label,count_a,count_b\n1,w1,10,-5\n2,w2,5,6\n", [],
         "ParseError: row 2: negative count\n"),
    ],
    ids=["estimate-period-days-0", "multi-period-days-0", "multi-negative-count"],
)
def test_out_of_range_input_is_one_error_line(tmp_path, capsys, command, text, extra, error):
    path = tmp_path / "input.csv"
    path.write_text(text)
    argv = [str(path)] if command == "estimate" else ["--file", str(path)]
    code, out, err = run(capsys, command, *argv, *extra)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: " + error)


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "two.csv", "--period-days", "1e-320", "--json"),
        ("estimate", "two.csv", "--gen-days", "1e308", "--period-days", "0.5"),
        ("multi", "--file", "three.csv", "--period-days", "1e-320"),
        ("infer-r", "--from-fit", "two.csv", "--period-days", "1e-320", "--contour", "0:0.5:0.5",
         "--json"),
    ],
    ids=["estimate-json", "estimate-gen-days", "multi", "infer-r-from-fit"],
)
def test_infinite_advantage_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # target_days / period_days overflows to inf, and math.exp(inf) returns inf:
    # each of these printed inf or Infinity and exited 0.
    monkeypatch.chdir(tmp_path)
    for name, extra in (("two.csv", []), ("three.csv", ["--gamma", "1.3", "--lambda0", "0.05"])):
        assert main(["simulate", "--gamma", "1.6", "--lambda0", "0.02", *extra, "--n", "500",
                     "--t", "12", "--out", name]) == 0
    assert_one_error_line(*run(capsys, *argv), kind="OverflowError")


ADVANTAGE_BEYOND_A_FLOAT = (
    "error: OverflowError: a log advantage times its scale is not a finite float\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "alpha", "--gen-days", "1e300"),
        ("multi", "--file", "three.csv", "--fisher", "--gen-days", "1e300"),
        ("infer-r", "--from-fit", "alpha", "--gen-days", "1e300", "--R", "1", "--lambda", "0.5"),
    ],
    ids=["estimate", "multi", "infer-r-from-fit"],
)
def test_a_finite_scale_beyond_exp_gives_the_overflow_message(tmp_path, monkeypatch, capsys,
                                                               argv):
    # The scaled log advantage is finite but above ~709.78, so math.exp raised
    # its own message, "math range error", which names nothing.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "three.csv").write_text("t,label,count_a,count_b,count_c\n"
                                        "1,a,100,10,5\n2,b,90,20,9\n3,c,80,30,20\n4,d,70,40,30\n")
    assert run(capsys, *argv) == (1, "", ADVANTAGE_BEYOND_A_FLOAT)


def test_repeated_variant_names_are_one_error_line(tmp_path, capsys):
    # The file used to be fitted: variant a over numeraire a, 1.954 per generation.
    path = tmp_path / "multi.csv"
    path.write_text("t,label,count_a,count_a\n"
                    + "".join(f"{t},w{t},{100 - 10 * t},{10 * t}\n" for t in range(1, 6)))
    code, out, err = run(capsys, "multi", "--file", str(path), "--fisher")
    assert_one_error_line(code, out, err, kind="InvalidValue")
    assert "variant names must be distinct" in err


def test_import_loads_no_scipy():
    src = str(Path(variantfit.__file__).resolve().parents[1])
    probe = "import sys, variantfit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "missing.csv"),
        ("crude", "missing.csv"),
        ("infer-r", "--from-fit", "missing.csv", "--R", "1", "--lambda", "0.2"),
        ("infer-r", "--gamma-gen", "2", "--gamma-ci", "3", "4", "--contour", "0:1:0.5"),
        ("multi", "--file", "missing.csv"),
    ],
    ids=["estimate", "crude", "infer-r-from-fit", "infer-r-gamma-gen", "multi"],
)
def test_bad_level_is_reported_before_the_input_is_read(argv, capsys):
    code, out, err = run(capsys, *argv, "--level", "1.5")
    assert_one_error_line(code, out, err, "InvalidValue")
    assert err == "error: InvalidValue: level must lie in (0,1), got 1.5\n"


TWO_VARIANT_HEADER = "t,label,sequenced,variant_count,total_cases,tested\n"
ERROR_LINE = re.compile(r"error: ([A-Za-z_][A-Za-z0-9_]*): \S.*")


def assert_one_error_line(code, out, err, kind=None):
    """Exit 1, nothing on stdout and exactly one `error: <Type>: message` line."""
    assert code == 1, (code, out, err)
    assert out == ""
    match = ERROR_LINE.fullmatch(err.rstrip("\n"))
    assert match and err.count("\n") == 1, err
    if kind is not None:
        assert match.group(1) == kind, err


def two_variant_csv(tmp_path, pairs):
    path = tmp_path / "series.csv"
    rows = "".join(f"{t},w{t},{n},{x},,\n" for t, (n, x) in enumerate(pairs, start=1))
    path.write_text(TWO_VARIANT_HEADER + rows)
    return str(path)


def test_parser_declares_only_the_options_each_command_reads():
    common = {"--period-days", "--json"}
    variance = {"--hac", "--fisher"}
    expected = {
        "estimate": common | variance | {"--level", "--gen-days"},
        "crude": common | {"--level"},
        "forecast": common | variance | {"--train-from", "--train-through", "--horizons", "--c"},
        "infer-r": common | variance | {"--level", "--gen-days", "--R", "--lambda", "--gamma-gen",
                                        "--gamma-ci", "--from-fit", "--contour", "--out"},
        "adjusted-r": common | {"--gen-days", "--cases", "--cases-prev", "--tested",
                                "--tested-prev", "--exponent"},
        "simulate": {"--gamma", "--lambda0", "--n", "--t", "--seed", "--replication", "--out"},
        "multi": common | variance | {"--level", "--gen-days", "--file"},
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {a.option_strings[0] for a in p._actions if a.option_strings and a.dest != "help"}
        for name, p in sub.choices.items()
    }
    assert options == expected
    assert sum(len(v) for v in options.values()) == 52


ADJUSTED_R = ("adjusted-r", "--cases", "8", "--cases-prev", "4", "--tested", "6",
              "--tested-prev", "3")
R_LAMBDA = ("--R", "1.0", "--lambda", "0.2")


def test_parser_defaults_are_the_library_constants():
    # The parsed default is the library's own object, and the help names it.
    args = build_parser().parse_args(list(ADJUSTED_R))
    assert args.exponent is TEST_INTENSITY_EXPONENT and args.gen_days is GENERATION_DAYS
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub.choices["adjusted-r"]._actions}
    assert helps["exponent"].endswith(f"(default {TEST_INTENSITY_EXPONENT})")
    assert helps["gen_days"].endswith(f"(default {GENERATION_DAYS})")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("crude", "alpha", "--gen-days", "9"), id="crude-gen-days"),
        pytest.param(("crude", "alpha", "--hac", "2"), id="crude-hac"),
        pytest.param(("crude", "alpha", "--fisher"), id="crude-fisher"),
        pytest.param(("forecast", "alpha", "--gen-days", "9"), id="forecast-gen-days"),
        pytest.param(("forecast", "alpha", "--level", "0.9"), id="forecast-level"),
        pytest.param(ADJUSTED_R + ("--level", "0.9"), id="adjusted-r-level"),
        pytest.param(ADJUSTED_R + ("--hac", "2"), id="adjusted-r-hac"),
        pytest.param(ADJUSTED_R + ("--fisher",), id="adjusted-r-fisher"),
        pytest.param(("estimate", "alpha", "--fisher", "--hac", "2"), id="fisher-then-hac"),
        pytest.param(("estimate", "alpha", "--hac", "4", "--fisher"), id="default-hac-then-fisher"),
        pytest.param(("multi", "--file", "x.csv", "--hac", "4", "--fisher"), id="multi-hac-fisher"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--from-fit", "alpha") + R_LAMBDA,
                     id="gamma-gen-and-from-fit"),
        pytest.param(("infer-r",) + R_LAMBDA, id="neither-gamma-gen-nor-from-fit"),
        pytest.param(("infer-r", "--from-fit", "alpha", "--gamma-ci", "1.8", "2.2") + R_LAMBDA,
                     id="gamma-ci-with-from-fit"),
        pytest.param(("estimate", "alpha", "--hac", "abc"), id="hac-abc"),
        pytest.param(("estimate", "alpha", "--no-such-option"), id="unknown-option"),
        pytest.param(("estimate",), id="missing-input"),
        pytest.param(("no-such-command",), id="unknown-command"),
        pytest.param((), id="no-command"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--contour", "0:1"), id="grid-two-parts"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--contour", "0:1:0"), id="grid-step-0"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--contour", "0:inf:0.1"), id="grid-inf"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--contour", "0:1:1e-6"), id="grid-too-fine"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--contour", "0:1e9:1"), id="grid-too-wide"),
        pytest.param(("infer-r", "--gamma-gen", "2.0", "--contour", "1e17:1e17:1"),
                     id="grid-step-below-start-precision"),
        pytest.param(("infer-r", "--gamma-gen", "2.0"), id="nothing-to-do"),
        # Each of these ran with exit 0: the option was dropped, or the grid
        # was clamped into [0, 1] as repeated rows or none.
        pytest.param(("infer-r", "--gamma-gen", "2", "--R", "1.2", "--contour", "0:1:0.5"),
                     id="R-without-lambda"),
        pytest.param(("infer-r", "--gamma-gen", "2", "--lambda", "0.2", "--contour", "0:1:0.5"),
                     id="lambda-without-R"),
        pytest.param(("infer-r", "--gamma-gen", "2") + R_LAMBDA + ("--out", "contour.csv"),
                     id="out-without-contour"),
        pytest.param(("infer-r", "--gamma-gen", "2", "--contour", "5:9:1"), id="grid-above-1"),
        pytest.param(("infer-r", "--gamma-gen", "2", "--contour=-1:2:0.5"), id="grid-below-0"),
        pytest.param(("infer-r", "--gamma-gen", "2", "--contour", "1:0:0.5"),
                     id="grid-stop-below-start"),
        *(pytest.param(("forecast", "alpha", "--horizons", value), id=f"horizons-{value}")
          for value in ("0", "-3", "10002", "100000000", "x")),
        pytest.param(("estimate", "alpha", "--gen-days", "inf"), id="gen-days-inf"),
        pytest.param(("estimate", "alpha", "--level", "nan"), id="level-nan"),
        pytest.param(("simulate", "--gamma", "inf", "--lambda0", "0.1", "--n", "10", "--t", "3"),
                     id="simulate-gamma-inf"),
        pytest.param(("simulate", "--gamma", "1.5", "--lambda0", "0.1", "--n", "10", "--t", "3",
                      "--period-days", "1"), id="simulate-period-days"),
        *(pytest.param(("simulate", "--gamma", "1.5", "--lambda0", "0.1", "--n", "10", "--t", value),
                       id=f"simulate-t-{value}") for value in ("10002", "1000000000")),
    ],
)
def test_usage_errors_are_one_error_line(capsys, argv):
    assert_one_error_line(*run(capsys, *argv), kind="UsageError")


def test_contour_grid_at_the_bound_is_printed(capsys):
    code, out, err = run(capsys, "infer-r", "--gamma-gen", "2.0", "--contour", "0:1:1e-4")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 10_001


def _contour(spec):
    return build_parser().parse_args(["infer-r", "--gamma-gen", "2.0", "--contour", spec]).contour


def test_contour_points_are_start_plus_i_steps():
    # Summed steps drift: 12 of the 21 points of 0:1:0.05 differed in their
    # last bits, and the last point of 0:1:1e-4 fell short of 1.0.
    grid = _contour("0:1:0.05")
    assert list(map(float.hex, grid)) == [float.hex(min(max(i * 0.05, 0.0), 1.0))
                                          for i in range(21)]
    fine = _contour("0:1:1e-4")
    assert len(fine) == 10_001 and fine[-1] == 1.0


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    run(capsys, "forecast", "alpha", "--c", "3", "--json")
    code, out, _ = run(capsys, "forecast", "alpha", "--json")
    report = json.loads(out)
    assert code == 0
    assert report["options"]["c"] == [2.0]
    assert [band["c"] for band in report["bands"]] == [2.0]
    run(capsys, "estimate", "alpha", "--hac", "2", "--json")
    code, out, _ = run(capsys, "estimate", "alpha", "--json")
    assert code == 0
    assert json.loads(out)["options"]["variance"] == "sandwich(4)"
    normal = run(capsys, "estimate", "delta", "--level", "0.9", "--json")
    assert normal[0] == 0
    for rejected in [("estimate", "delta", "--fisher", "--hac", "2"),
                     ("estimate", "delta", "--level", "1.5"),
                     ("no-such-command",)]:
        assert run(capsys, *rejected)[0] == 1
        assert run(capsys, "estimate", "delta", "--level", "0.9", "--json") == normal


@pytest.mark.parametrize(
    "command, header",
    [("estimate", TWO_VARIANT_HEADER), ("multi", "t,label,count_a,count_b\n")],
    ids=["two-variant", "multi-variant"],
)
def test_header_only_csv_is_empty_series(tmp_path, capsys, command, header):
    path = tmp_path / "empty.csv"
    path.write_text(header)
    argv = [str(path)] if command == "estimate" else ["--file", str(path)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out, err) == (1, "", "error: EmptySeries: need at least 2 periods, got 0\n")


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("estimate", "--help")])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "alpha", "--gen-days", "1e10"),
        # infer-r prints no number that is not finite.
        ("infer-r", "--R", "1e308", "--lambda", "0", "--gamma-gen", "1e308", "--json"),
        ("infer-r", "--R", "1e10", "--lambda", "1", "--gamma-gen", "1e-320"),
        ("infer-r", "--gamma-gen", "1e-320", "--contour", "0:1:0.5"),
    ],
    ids=["estimate-gen-days", "R-variant", "R-incumbent", "threshold"],
)
def test_overflow_is_one_error_line(capsys, argv):
    assert_one_error_line(*run(capsys, *argv), kind="OverflowError")


@pytest.mark.parametrize(
    "argv",
    [
        # Printed negative thresholds with exit 0.
        ("--gamma-gen", "2", "--gamma-ci", "-1", "2.2", "--contour", "0:0.4:0.2"),
        # Ended in OverflowError where lambda + g (1 - lambda) reaches zero.
        ("--gamma-ci", "0", "2.2", "--gamma-gen", "2", "--contour", "0:1:0.25"),
        ("--gamma-gen", "2", "--gamma-ci", "-1", "2.2", "--contour", "0:1:0.5"),
    ],
    ids=["negative", "zero", "zero-denominator"],
)
def test_non_positive_gamma_ci_lower_end_is_invalid(capsys, argv):
    code, out, err = run(capsys, "infer-r", *argv)
    assert_one_error_line(code, out, err, kind="InvalidValue")
    assert "--gamma-ci lower end must be positive" in err


def test_adjusted_r_zero_period_is_one_error_line(capsys):
    assert_one_error_line(*run(capsys, *ADJUSTED_R, "--period-days", "0"),
                          kind="NonPositivePeriod")


@pytest.mark.parametrize("gen_days", ["-4.7", "0"])
def test_adjusted_r_non_positive_generation_is_one_error_line(capsys, gen_days):
    # It printed R_all = 0.869689 and 1, as if a generation could last -4.7 or 0 days.
    assert_one_error_line(*run(capsys, *ADJUSTED_R, "--gen-days", gen_days),
                          kind="NonPositivePeriod")


@pytest.mark.parametrize("argv", [
    ("--cases", "1e-300", "--cases-prev", "1e300", "--tested", "1", "--tested-prev", "1"),
    ("--cases", "1e300", "--cases-prev", "1e-300", "--tested", "1", "--tested-prev", "1"),
    ("--cases", "1e300", "--cases-prev", "1e-300", "--tested", "1", "--tested-prev", "1",
     "--json"),
], ids=["underflow", "overflow", "overflow-json"])
def test_adjusted_r_beyond_a_float_is_one_error_line(capsys, argv):
    # The case ratio 1e-600 is 0 as a float: math.log raised a ValueError
    # traceback. Its inverse printed R_all = inf, or Infinity under --json.
    assert_one_error_line(*run(capsys, "adjusted-r", *argv), kind="OverflowError")


@pytest.mark.parametrize("tested, tested_prev, sign", [("1e-300", "1e300", 1),
                                                       ("1e300", "1e-300", -1)])
def test_adjusted_r_takes_extreme_ratios_as_log_differences(capsys, tested, tested_prev, sign):
    # R_all = (tested ratio)^(-0.7 * 4.7 / 7) = 10^(+-282): finite, though the
    # ratio itself is not. It was a ValueError traceback, or R_all = 0.
    code, out, err = run(capsys, "adjusted-r", "--cases", "1", "--cases-prev", "1",
                         "--tested", tested, "--tested-prev", tested_prev, "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["R_all"] == pytest.approx(10.0 ** (sign * 282), rel=1e-9, abs=0)


def test_multi_zero_gen_days_is_one_error_line(tmp_path, capsys):
    # As for `estimate`: no advantage exists per generation of zero days.
    path = tmp_path / "multi.csv"
    path.write_text("t,label,count_a,count_b,count_c\n"
                    "1,a,100,10,5\n2,b,90,20,9\n3,c,80,30,20\n4,d,70,40,30\n")
    argv = ("multi", "--file", str(path), "--fisher", "--gen-days", "0")
    assert_one_error_line(*run(capsys, *argv), kind="NonPositivePeriod")


@pytest.mark.parametrize("option", ["--seed", "--replication"])
def test_simulate_negative_seed_is_one_error_line(capsys, option):
    argv = ("simulate", "--gamma", "1.5", "--lambda0", "0.1", "--n", "10", "--t", "3")
    assert_one_error_line(*run(capsys, *argv, option, "-1"), kind="InvalidConfig")


def test_directory_input_is_one_error_line(tmp_path, capsys):
    assert_one_error_line(*run(capsys, "estimate", str(tmp_path)), kind="IsADirectoryError")


@pytest.mark.parametrize("command", ["estimate", "multi"])
def test_non_utf8_csv_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes(TWO_VARIANT_HEADER.encode() + "1,sem\xe2na,10,1,,\n".encode("latin-1"))
    argv = [str(path)] if command == "estimate" else ["--file", str(path)]
    assert_one_error_line(*run(capsys, command, *argv), kind="ParseError")


@pytest.mark.parametrize(
    "command, text",
    [
        ("estimate", TWO_VARIANT_HEADER + "1,w1,100,10,,\n2,w2,100,30,,\n3,w3,100,60,,\n"),
        ("multi", "t,label,count_a,count_b\n1,w1,90,10\n2,w2,70,30\n3,w3,40,60\n"),
    ],
    ids=["two-variant", "multi"],
)
def test_csv_with_a_byte_order_mark_is_read(tmp_path, capsys, command, text):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark; it is not part of the header.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    outputs = []
    for path in (plain, marked):
        argv = [str(path)] if command == "estimate" else ["--file", str(path)]
        outputs.append(run(capsys, command, *argv, "--fisher"))
    assert outputs[1] == outputs[0]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("command", ["estimate", "multi"])
def test_piped_input_is_read_once(tmp_path, capsys, command):
    # A pipe can be read only once, so the digest must come from the bytes parsed.
    gammas = ["--gamma", "1.6"] + (["--gamma", "1.3"] if command == "multi" else [])
    lambda0 = ["--lambda0", "0.02"] + (["--lambda0", "0.05"] if command == "multi" else [])
    assert main(["simulate", *gammas, *lambda0, "--n", "500", "--t", "12"]) == 0
    data = capsys.readouterr().out.encode()

    def argv(path):
        return [command, path, "--json"] if command == "estimate" else [
            command, "--file", path, "--json"]

    src = str(Path(variantfit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "variantfit.cli", *argv("/dev/stdin")],
                          input=data, capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    piped = json.loads(done.stdout)
    assert piped["input"] == {"path": "/dev/stdin", "sha256": hashlib.sha256(data).hexdigest()}
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    code, out, err = run(capsys, *argv(str(path)))
    assert (code, err) == (0, "")
    by_path = json.loads(out)
    assert by_path["input"].pop("path") == str(path)
    del piped["input"]["path"]
    assert piped == by_path


@pytest.mark.parametrize("horizons", [1, 10_001])
def test_horizons_at_the_bounds_are_forecast(capsys, horizons):
    code, out, err = run(capsys, "forecast", "alpha", "--horizons", str(horizons))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2 + horizons


def test_simulate_at_the_period_bound_prints_every_period(capsys):
    code, out, err = run(capsys, "simulate", "--gamma", "1.001", "--lambda0", "0.1",
                         "--n", "10", "--t", "10001")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 10_001


# Above 2**53 distinct integers can round to one float, so the model time
# would merge periods.
BEYOND_FLOAT_T = 2**53


def test_periods_beyond_float_precision_are_one_error_line(tmp_path, capsys):
    path = tmp_path / "big.csv"
    path.write_text(TWO_VARIANT_HEADER + "".join(
        f"{BEYOND_FLOAT_T + i},w{i},1000,{10 + 30 * i},,\n" for i in range(3)))
    assert_one_error_line(*run(capsys, "crude", str(path)), kind="InvalidValue")
    multi = tmp_path / "multi.csv"
    multi.write_text("t,label,count_a,count_b,count_c\n" + "".join(
        f"{BEYOND_FLOAT_T + i},w{i},900,{50 + 30 * i},{50 + 10 * i}\n" for i in range(3)))
    assert_one_error_line(*run(capsys, "multi", "--file", str(multi)), kind="InvalidValue")


@pytest.mark.parametrize(
    "pairs, extra",
    [
        ([(50, 0), (50, 0), (50, 50), (50, 50)], []),
        ([(5, 0), (5, 0), (5, 5)], ["--fisher"]),
        ([(50, 0), (50, 10), (50, 50), (50, 50)], []),
    ],
    ids=["complete", "complete-fisher", "quasi-complete"],
)
def test_separated_csv_is_separation(tmp_path, capsys, pairs, extra):
    path = two_variant_csv(tmp_path, pairs)
    assert_one_error_line(*run(capsys, "estimate", path, *extra), kind="Separation")


def test_multi_nan_gen_days_is_usage_error(tmp_path, capsys):
    path = tmp_path / "multi.csv"
    rows = "".join(f"{t},w{t},{100 - 15 * t},{15 * t}\n" for t in range(1, 7))
    path.write_text("t,label,count_a,count_b\n" + rows)
    assert_one_error_line(*run(capsys, "multi", "--file", str(path), "--gen-days", "nan"),
                          kind="UsageError")


def test_multi_separated_variant_is_separation(tmp_path, capsys):
    path = tmp_path / "multi.csv"
    path.write_text("t,label,count_a,count_b,count_c\n1,w1,10,5,0\n2,w2,10,6,0\n3,w3,10,7,5\n")
    assert_one_error_line(*run(capsys, "multi", "--file", str(path), "--fisher"),
                          kind="Separation")


def test_exactly_identified_fit_refuses_the_sandwich(tmp_path, capsys):
    # Two periods with counts fit two parameters exactly; the HAC "interval"
    # would have zero width.
    path = two_variant_csv(tmp_path, [(10, 2), (10, 5), (0, 0)])
    assert_one_error_line(*run(capsys, "estimate", path, "--hac", "1"), kind="Singular")
    code, out, _ = run(capsys, "estimate", path, "--fisher")
    assert code == 0 and "gamma per 7 days: 4.0000" in out


@pytest.mark.parametrize("bandwidth", ["0", "2"])
def test_exact_fit_refuses_the_sandwich(tmp_path, capsys, bandwidth):
    # The logits of 3/10, 5/10 and 7/10 lie on a line, so every score at the
    # fit is 0; the HAC interval had zero width, [2.3333, 2.3333].
    path = two_variant_csv(tmp_path, [(10, 3), (10, 5), (10, 7)])
    assert_one_error_line(*run(capsys, "estimate", path, "--hac", bandwidth), kind="Singular")
    code, out, _ = run(capsys, "estimate", path, "--fisher")
    assert code == 0 and "gamma per 7 days: 2.3333  [0.8967, 6.0720]" in out


def test_multi_exact_fit_refuses_the_sandwich(tmp_path, capsys):
    # Counts 1 : 2^t : 3^t follow the multinomial-logistic curve exactly.
    path = tmp_path / "multi.csv"
    path.write_text("t,label,count_a,count_b,count_c\n" + "".join(
        f"{t},w{t},1,{2 ** t},{3 ** t}\n" for t in range(1, 7)))
    assert_one_error_line(*run(capsys, "multi", "--file", str(path), "--hac", "2"),
                          kind="Singular")
    assert run(capsys, "multi", "--file", str(path), "--fisher")[0] == 0


# --- the CLI contract for random command lines and CSV text -----------------


RARELY = st.sampled_from([False] * 9 + [True])


def mostly(common, rare):
    """Draw from `common` about nine times in ten, else from `rare`."""
    return RARELY.flatmap(lambda rarely: rare if rarely else common)


def numbers(low, high):
    """Option text: mostly a number in [low, high], sometimes an edge case."""
    edges = st.sampled_from(["0", "-1", "1e10", "1e-10", "1e300", "1e-300", "1e308", "-1e308",
                             "1e-320", "5e-324", "inf", "-inf", "nan", "abc", ""])
    return mostly(st.floats(low, high).map(repr), edges)


def integers(low, high):
    return mostly(st.integers(low, high).map(str), st.sampled_from(["abc", "1.5"]))


INPUTS = st.sampled_from(["two.csv", "two.csv", "two.csv", "alpha", "omicron", "multi.csv",
                          "missing.csv", "."])
MULTI_INPUTS = st.sampled_from(["multi.csv", "multi.csv", "multi.csv", "two.csv", "."])
OUTS = st.sampled_from(["out.csv", ".", "missing-dir/out.csv"])
GRIDS = st.sampled_from(["0:1:0.25", "0.1:0.9:0.1", "0:1:0", "1:0:0.1", "-1:2:0.5", "0:1",
                         "a:b:c", "0:inf:1", "0:1:nan"])
COMMON = {"--period-days": numbers(0.5, 14), "--json": None}
LEVEL = {"--level": numbers(0.5, 0.999)}
GEN = {"--gen-days": numbers(1, 10)}
VARIANCE = {"--hac": integers(-1, 8), "--fisher": None}
SIMULATE = {"--gamma": numbers(0.2, 5), "--lambda0": numbers(0, 0.5), "--n": integers(-1, 50),
            "--t": integers(-1, 30)}
# Per command: (groups of which one argument is required, optional arguments).
# An empty name is the positional input; a value of None marks a flag.
COMMANDS = {
    "estimate": ([{"": INPUTS}], {**COMMON, **LEVEL, **GEN, **VARIANCE}),
    "crude": ([{"": INPUTS}], {**COMMON, **LEVEL}),
    "forecast": ([{"": INPUTS}], {**COMMON, **VARIANCE, "--train-from": integers(-1, 40),
                                  "--train-through": integers(-1, 40),
                                  "--horizons": integers(-1, 30), "--c": numbers(0, 5)}),
    "infer-r": (
        [{"--gamma-gen": numbers(0.2, 5), "--from-fit": INPUTS}],
        {**COMMON, **LEVEL, **GEN, **VARIANCE, "--R": numbers(0.1, 5),
         "--lambda": numbers(0, 1), "--gamma-ci": st.tuples(numbers(0.2, 5), numbers(0.2, 5)),
         "--contour": GRIDS, "--out": OUTS},
    ),
    "adjusted-r": (
        [{name: numbers(1, 1e6)} for name in ("--cases", "--cases-prev", "--tested",
                                              "--tested-prev")],
        {**COMMON, **GEN, "--exponent": numbers(0, 2)},
    ),
    "simulate": (
        [{name: value} for name, value in SIMULATE.items()],
        {"--gamma": SIMULATE["--gamma"], "--lambda0": SIMULATE["--lambda0"],
         "--seed": integers(-1, 99), "--replication": integers(-1, 99), "--out": OUTS},
    ),
    "multi": ([{"--file": MULTI_INPUTS}], {**COMMON, **LEVEL, **GEN, **VARIANCE}),
}
FOREIGN = {"--bogus": None, "--fisher": None, "--level": numbers(0.5, 0.999),
           "--gen-days": numbers(1, 10), "--file": MULTI_INPUTS, "--from-fit": INPUTS}


@st.composite
def command_lines(draw):
    """Mostly well-formed command lines, some missing a required argument or
    carrying one that the command does not take."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    values = dict(FOREIGN, **optional)
    chosen = []
    for group in required:
        values.update(group)
        if not draw(RARELY):
            chosen.append(draw(st.sampled_from(sorted(group))))
    chosen += draw(st.lists(st.sampled_from(sorted(optional)), max_size=4))
    if draw(RARELY):
        chosen.append(draw(st.sampled_from(sorted(FOREIGN))))
    argv = [command]
    for name in chosen:
        argv += [name] if name else []
        if values[name] is not None:
            drawn = draw(values[name])
            argv += list(drawn) if isinstance(drawn, tuple) else [drawn]
    return argv


def csv_bytes(header, row):
    """CSV in one schema: rows at distinct t, about one in ten malformed, and
    sometimes a bad header or bytes that are not UTF-8."""
    bad_row = st.lists(integers(-3, 60), min_size=1, max_size=7).map(tuple)

    @st.composite
    def text(draw):
        lines = [draw(mostly(st.just(header), st.sampled_from([header.replace("t,", "x,"), ""])))]
        for t in draw(st.lists(st.integers(-2, 40), unique=True, max_size=8)):
            cells = draw(mostly(row(t), bad_row))
            lines.append(",".join(cells))
        data = ("\n".join(lines) + "\n").encode()
        return data + b"1,\xff,1,1\n" if draw(RARELY) else data

    return text()


@st.composite
def two_variant_row(draw, t):
    n = draw(st.integers(0, 60))
    x = draw(st.integers(0, n))
    total = draw(st.sampled_from(["", str(n), str(n + 5)]))
    return (str(t), f"w{t}", str(n), str(x), total, "")


def multi_row(t):
    return st.tuples(*[st.integers(0, 60).map(str)] * 3).map(lambda c: (str(t), f"w{t}") + c)


FITTING_TWO_CSV = (b"t,label,sequenced,variant_count,total_cases,tested\n"
                   b"1,w1,50,5,,\n2,w2,50,12,,\n3,w3,50,20,,\n4,w4,50,31,,\n5,w5,50,38,,\n")


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    argv=command_lines(),
    two=csv_bytes("t,label,sequenced,variant_count,total_cases,tested", two_variant_row),
    multi=csv_bytes("t,label,count_a,count_b,count_c", multi_row),
)
# A fitting series with the option values that make a scale overflow, which
# the random draw never puts together.
@example(argv=["estimate", "two.csv", "--gen-days", "1e308", "--period-days", "0.5"],
         two=FITTING_TWO_CSV, multi=b"")
@example(argv=["estimate", "two.csv", "--period-days", "1e-320", "--json"],
         two=FITTING_TWO_CSV, multi=b"")
def test_cli_contract_holds_for_random_input(tmp_path, monkeypatch, argv, two, multi):
    """Exit 0, or exit 1 with empty stdout and exactly one `error:` line; a run
    that exits 0 prints only finite numbers, in a JSON report or in text."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.csv").write_bytes(two)
    (tmp_path / "multi.csv").write_bytes(multi)
    assert_contract(argv)


def assert_contract(argv):
    """Run argv in-process: exit 0, or exit 1 with empty stdout and exactly
    one `error:` line; a run that exits 0 prints only finite numbers."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        assert_one_error_line(code, out.getvalue(), err.getvalue())
    elif "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_refuse_non_finite)
    else:
        # Labels are w<t> and variant names a, b and c, so no input puts these words in.
        assert not re.search(r"\b(?:inf|nan)\b", out.getvalue(), re.IGNORECASE), out.getvalue()


def _refuse_non_finite(constant):
    raise AssertionError(f"the JSON report holds {constant}")


def extreme_share_pairs():
    """(N, X) pairs of two series whose shares come within ~1e-16 of 0 or 1 at
    over 10**9 cases, where a fit may raise MaxIterations (README, Library)."""
    near_one = simulate(SimConfig((1.5,), (0.001, 0.999), (1000,) * 15, seed=3))
    n, x = near_one.binomial_counts()
    return {
        "near-zero": [(10**17, k) for k in (1, 2, 3)],
        "near-one": list(zip((n * 10**5).tolist(), (x * 10**5).tolist())),
    }


@pytest.mark.parametrize("series", ["near-zero", "near-one"])
@pytest.mark.parametrize("argv", [("estimate",), ("estimate", "--json"), ("crude",),
                                  ("crude", "--json"), ("forecast",), ("forecast", "--json")],
                         ids=" ".join)
def test_cli_contract_holds_where_shares_near_zero_or_one(tmp_path, argv, series):
    path = two_variant_csv(tmp_path, extreme_share_pairs()[series])
    assert_contract([argv[0], path, *argv[1:]])


# --- the JSON report writer against json.dumps --------------------------------


def _round10_reference(value):
    """Every float rounded to 10 significant digits: json.dumps of this is the reference."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: _round10_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round10_reference(v) for v in value]
    return value


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                     1e10, 1e16, 9999999999.5, 1.0, 12345678901.0]),
    st.floats(1e10, 1e16, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
)
JSON_SCALARS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    st.text(),  # any code point, so non-ASCII and escapes
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(value=JSON_VALUES)
def test_json_text_equals_json_dumps_of_the_rounded_report(value):
    expected = json.dumps(_round10_reference(value), indent=2, sort_keys=True)
    assert json_text(value) == expected


def test_json_text_refuses_what_json_cannot_write():
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_text({"a": [np.int64(1)]})


# Lists of floats or ints, which the writer formats a column at a time, lists
# of dicts, which it writes item by item, and their near misses.
RECORDS = [{"t": t, "value": 1.5 * t, "ci_low": t / 3, "ci_high": 10.0**t} for t in range(1, 5)]
WIDE_FLOATS = [1e10, 12345678901.0, 9999999999.5, 1e15, 1e16 - 2, 1e16, math.nan, math.inf,
               -math.inf, -0.0, 0.0, 2.0, 0.1]
COLUMN_CASES = {
    "records": RECORDS,
    "one-row-with-another-key": RECORDS[:2] + [RECORDS[2] | {"extra": None}] + RECORDS[3:],
    "one-row-without-a-key": RECORDS[:2] + [{"t": 3, "value": 1.0, "ci_low": 0.5}] + RECORDS[3:],
    "one-row-with-other-keys": RECORDS[:3] + [{"t": 4, "value": 1.0, "ci_low": 0.5, "z": 0.0}],
    "mixed-scalars": [1, 2.5, np.float64(0.1), None, True, False, 3, np.float64(1e20)],
    "mixed-scalar-column": [{"x": v} for v in [1, 2.5, np.float64(0.1), None, True]],
    "all-float64": [np.float64(v) for v in (0.5, 1e17, -0.0)],
    "all-bools": [True, False, True],
    "odd-keys": [{"%": t, "%s": t / 7, '"q"': "x%s", "é": [t, 2.0], "日本": None, "%%d": {}}
                 for t in range(3)],
    "nested-records": {"outer": [{"fit": {"alpha": a, "beta": 0.5}, "t": a} for a in range(3)],
                       "again": {"rows": RECORDS}},
    "records-of-nested-lists": [{"bands": [{"c": 2.0, "rows": RECORDS}], "n": i} for i in range(3)],
    "empty-dicts": [{}, {}, {}],
    "empty-dict-among-records": [{"a": 1}, {}, {"a": 2}],
    "empty-lists": [[], [], ()],
    "wide-floats": WIDE_FLOATS,
    "wide-float-column": [{"x": v, "y": -v} for v in WIDE_FLOATS],
    "float-matrix": [[1.0, 0.25], [0.25, 3.0], [1e-320, 5e-324]],
    # Negative exponents: normal floats keep their .10g text; subnormals
    # (here 2.225073858507201e-308 and 5e-324) have fewer digits in repr().
    "covariance": [[1e-05, -2.5e-07, 9.999999999e-05], [1e-99, 1e-100, 1.5e-307],
                   [2.2250738585072014e-308, 2.225073858507201e-308, 5e-324]],
    # Only integral texts gain ".0"; only e+, nan, inf and e-3xx texts need repr().
    "integral-among-fractions": [1.0, 2.5, -77.0, 0.0, 1e15, 0.125],
    "integral-among-negative-exponents": [1.0, 2.5e-05, 1e-05, -3.0, 9.5e-100],
    "every-kind-of-float-text": [1.0, 2.5e-05, 1e+20, math.nan, math.inf, 5e-324],
}


@pytest.mark.parametrize("value", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_json_text_writes_columns_as_json_dumps_does(value):
    assert json_text(value) == json.dumps(_round10_reference(value), indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [[np.int64(1), np.int64(2)], [1, np.int64(2), 3], [{"a": 1}, {"a": np.int64(2)}, {"a": 3}]],
    ids=["all-int64", "int64-among-ints", "int64-in-a-record-column"],
)
def test_json_text_refuses_an_int64_in_a_column(value):
    with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
        json_text(value)


def _rows_as_dicts(value):
    """`value` with every Table replaced by its list of row dicts."""
    if isinstance(value, Table):
        return [dict(zip(value.names, map(_rows_as_dicts, row))) for row in zip(*value.columns)]
    if isinstance(value, dict):
        return {k: _rows_as_dicts(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rows_as_dicts(v) for v in value]
    return value


def _band(c):
    """A forecast band as the report holds it: c and a table of rows."""
    columns = ((9, 10, 11), [0.5, 0.25, 1e-320], [0.1, 0.2, 0.0], [0.9, 1.0, 1.0])
    return {"c": c, "rows": Table(("t", "point", "lower", "upper"), columns)}


TABLE_CASES = {
    "empty": Table(("t", "value"), ([], ())),
    "no-columns": Table((), ()),
    "one-row": Table(("x",), ([1.5],)),
    "names-out-of-order": Table(("z", "b", "a", "y"),
                                ([1, 2], [0.5, 0.25], ["p", "q"], [None, None])),
    "names-to-escape": Table(('"q"', "é", "日本", "%s", "a\nb", "\\", "\x00"),
                             [[i, -i] for i in range(7)]),
    "int-tuple-range-columns": Table(("list", "tuple", "range", "big"),
                                     ([1, 2, 3], (4, 5, 6), range(7, 10), [10**20, -(10**20), 0])),
    "special-floats": Table(("x", "y"), (
        [math.nan, math.inf, -math.inf, 5e-324, 2.225073858507201e-308, -0.0, 1e16, 12345678901.0],
        [1e-5, -2.5e-7, 1e-99, 1.5e-307, 2.2250738585072014e-308, 0.1, 1e10, 9999999999.5])),
    "integral-floats": Table(("x", "y"), ([1.0, 2.5e-05, 1e+20, math.nan, math.inf, 5e-324],
                                          [1.0, 2.5e-05, 1e-05, -3.0, 0.5, 7.0])),
    "none-string-bool-cells": Table(("s", "n", "b"), (["a", "é\"", ""], [None, None, None],
                                                      [True, False, True])),
    "mixed-cells": Table(("m",), ([1, 2.5, np.float64(0.1), None, "x", True, [1.0], {"k": 2}],)),
    "float64-column": Table(("f",), ([np.float64(0.5), np.float64(1e17), np.float64(-0.0)],)),
    "nested-table": Table(("inner", "k"), ([Table(("a",), ([1.0, 2.0],)), Table(("a",), ([],))],
                                          [0, 1])),
    "bands": [_band(2.0), _band(4.0), _band(2.0)],
    "report": {"bands": [_band(1.0)], "contour": Table(("lambda", "threshold", "lo", "hi"),
                                                      zip(*[(0.0, 0.5, 0.45, 0.55),
                                                            (1.0, 1.0, 1.0, 1.0)]))},
}


@pytest.mark.parametrize("value", TABLE_CASES.values(), ids=TABLE_CASES.keys())
def test_json_text_writes_a_table_as_json_dumps_writes_its_rows(value):
    expected = json.dumps(_round10_reference(_rows_as_dicts(value)), indent=2, sort_keys=True)
    assert json_text(value) == expected


TABLES = st.lists(st.text(max_size=4), unique=True, max_size=5).flatmap(
    lambda names: st.integers(0, 4).flatmap(
        lambda rows: st.tuples(*[st.lists(JSON_SCALARS, min_size=rows, max_size=rows)
                                 for _ in names]).map(lambda columns: Table(names, columns))))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(value=st.lists(st.dictionaries(st.text(max_size=3), TABLES, max_size=2), max_size=3))
def test_json_text_writes_any_table_as_json_dumps_writes_its_rows(value):
    expected = json.dumps(_round10_reference(_rows_as_dicts(value)), indent=2, sort_keys=True)
    assert json_text(value) == expected


def test_a_table_is_no_list():
    table = Table(("a",), ([1.0],))
    with pytest.raises(TypeError, match="^Object of type Table is not JSON serializable$"):
        json.dumps(table)
    with pytest.raises(TypeError, match="^Object of type int64 is not JSON serializable$"):
        json_text(Table(("a",), ([1, np.int64(2)],)))
    with pytest.raises(AttributeError):
        table.names = ("b",)
    with pytest.raises(AttributeError):
        del table.columns


# Alpha's counts at t = base + 1 ... base + 18: day counts since 1970, ISO
# yyyyww and yyyymmdd codes, and beyond. The fit counts time from the first
# period, so each gives the unshifted advantage and reports alpha at t = 0.
TIME_ORIGINS = [0, 5_000, 7_000, 18_962, 202_045, 1_000_000, 20_211_130, 10**9]


def shifted_csv(path, text, base):
    """`text`, a CSV of either schema, with `base` added to every t."""
    header, *rows = text.splitlines()
    rows = [f"{int(t) + base},{rest}" for t, rest in (row.split(",", 1) for row in rows)]
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def alpha_at(tmp_path, base):
    text = variantfit.to_csv_string(variantfit.load_bundled("alpha"))
    return shifted_csv(tmp_path / f"alpha-{base}.csv", text, base)


@pytest.mark.parametrize("base", TIME_ORIGINS)
def test_estimate_does_not_depend_on_where_t_starts(tmp_path, capsys, base):
    code, out, err = run(capsys, "estimate", alpha_at(tmp_path, base))
    assert code == 0 and err == ""
    assert "gamma per 7 days: 1.8564  [1.8240, 1.8893]" in out
    _, unshifted, _ = run(capsys, "estimate", alpha_at(tmp_path, 0), "--json")
    _, shifted, _ = run(capsys, "estimate", alpha_at(tmp_path, base), "--json")
    unshifted, shifted = json.loads(unshifted), json.loads(shifted)
    assert shifted["advantage"] == unshifted["advantage"]
    alpha, beta = unshifted["fit"]["alpha"], unshifted["fit"]["beta"]
    assert shifted["fit"]["alpha"] == pytest.approx(alpha - beta * base, rel=1e-9)


def test_multi_does_not_depend_on_where_t_starts(tmp_path, capsys):
    code, text, _ = run(capsys, "simulate", "--gamma", "1.3", "--gamma", "1.6",
                        "--lambda0", "0.05", "--lambda0", "0.02", "--n", "2000", "--t", "12")
    assert code == 0
    reports = {}
    for base in (0, 202_045):
        path = shifted_csv(tmp_path / f"multi-{base}.csv", text, base)
        code, out, err = run(capsys, "multi", "--file", path, "--json")
        assert code == 0 and err == ""
        reports[base] = json.loads(out)
    assert reports[202_045]["variants"] == reports[0]["variants"]
    # Entries (1, 1) and (3, 3) are the variances of b_2 and b_3, which no shift of t moves.
    for j in (1, 3):
        assert reports[202_045]["covariance"][j][j] == reports[0]["covariance"][j][j]


def test_forecast_does_not_depend_on_where_t_starts(tmp_path, capsys):
    bands = {}
    for base in (0, 202_045):
        code, out, err = run(capsys, "forecast", alpha_at(tmp_path, base), "--json",
                             "--train-from", str(base + 2), "--train-through", str(base + 8),
                             "--c", "2", "--c", "4")
        assert code == 0 and err == ""
        bands[base] = json.loads(out)["bands"]
    for shifted, unshifted in zip(bands[202_045], bands[0]):
        assert shifted["c"] == unshifted["c"]
        for a, b in zip(shifted["rows"], unshifted["rows"]):
            assert a["t"] == b["t"] + 202_045
            for key in ("point", "lower", "upper"):
                assert a[key] == pytest.approx(b[key], rel=1e-10, abs=1e-300)


def test_forecast_text_prints_each_horizons_own_t(tmp_path, capsys):
    # As a float formatted with :g, every t of a yyyymmdd code printed as 2.02011e+07.
    code, out, err = run(capsys, "forecast", alpha_at(tmp_path, 20_201_100), "--horizons", "3")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [row[1] for row in rows] == ["20201119", "20201120", "20201121"]


def test_forecast_json_gives_each_horizons_t_as_an_integer(tmp_path, capsys):
    base = 10**12 - 1
    code, out, err = run(capsys, "forecast", alpha_at(tmp_path, base), "--horizons", "3",
                         "--json")
    assert code == 0 and err == ""
    [band] = json.loads(out)["bands"]
    assert [row["t"] for row in band["rows"]] == [base + 19, base + 20, base + 21]
    assert '"t": 1000000000018,' in out


def test_forecast_gives_one_band_per_c_as_given(capsys):
    code, out, err = run(capsys, "forecast", "alpha", "--c", "2", "--c", "2", "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["options"]["c"] == [2.0, 2.0]
    assert [band["c"] for band in report["bands"]] == [2.0, 2.0]
    assert report["bands"][0] == report["bands"][1]


@pytest.mark.parametrize(
    "argv",
    [
        ("crude", "omicron", "--period-days", "-3", "--json"),
        ("estimate", "alpha", "--period-days", "3"),
        ("forecast", "delta", "--period-days", "7"),
        ("infer-r", "--from-fit", "alpha", "--R", "1", "--lambda", "0.5", "--period-days", "7"),
    ],
    ids=["crude", "estimate", "forecast", "infer-r-from-fit"],
)
def test_period_days_with_a_bundled_dataset_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err, "UsageError")
    assert "--period-days: applies to CSV input only" in err


def test_period_days_with_gamma_gen_is_a_usage_error(capsys):
    code, out, err = run(capsys, "infer-r", "--gamma-gen", "2", "--R", "1", "--lambda", "0.5",
                         "--period-days", "0")
    assert_one_error_line(code, out, err, "UsageError")


@pytest.mark.parametrize("c", ["5e-17", "3e-16", "1e-15"])
def test_forecast_with_a_band_of_a_few_ulps_keeps_its_order(capsys, c):
    # Band ends that lie a few ulps from the point used to round to shares on
    # the wrong side of it, and fail forecast's ordering check.
    for name, through in (("alpha", "6"), ("omicron", "4"), ("omicron", "6")):
        code, out, err = run(capsys, "forecast", name, "--c", c, "--horizons", "60",
                             "--train-through", through, "--fisher")
        assert code == 0 and err == ""


def test_forecast_with_a_band_wider_than_the_float_range(capsys):
    # c * se overflows to inf; each band is then [0, 1], with no warning.
    code, out, err = run(capsys, "forecast", "alpha", "--c", "1e308", "--train-through", "5",
                         "--horizons", "30", "--fisher")
    assert code == 0 and err == ""
    rows = out.splitlines()[2:]
    assert len(rows) == 30 and all(row.endswith(",0,1") for row in rows)


# --- the stdout of the commands that fit, pinned -------------------------------

M3_CSV = ("simulate", "--gamma", "1.6", "--gamma", "0.8", "--lambda0", "0.05",
          "--lambda0", "0.3", "--n", "500", "--t", "12", "--seed", "3", "--out", "m3.csv")
# Ten variants: nine advantages, some below 1, over 30 periods, enough for HAC(4).
M10_CSV = ("simulate",
           *(f"--gamma={g}" for g in (1.1, 1.2, 1.3, 1.4, 1.5, 0.9, 0.8, 1.6, 1.05)),
           *(f"--lambda0={p}" for p in (0.05, 0.04, 0.03, 0.02, 0.01, 0.1, 0.1, 0.005, 0.08)),
           "--n", "2000", "--t", "30", "--seed", "11", "--out", "m10.csv")

# argv -> (exit code, sha256 of stdout), run in-process in a directory that
# holds M3_CSV's and M10_CSV's output: any change to a fit's arithmetic, to the variance
# step or to the reports shows up here as a changed hash.
ARRAY_CALLS = {
    ("estimate", "alpha"): (
        0, "f692fcdfd4656a46f2eb724ae4736ab8aa54c12217b2e281e0cc5e26acbda081"),
    ("estimate", "alpha", "--json"): (
        0, "c798e3af49588c1dc8bea0e3f215ccb62b1670750be3a6f24312cd9fae31f772"),
    ("estimate", "alpha", "--fisher"): (
        0, "5e9374443e9a90089f889d3208a79f969f33f3fcfcd398aab93b5e587daabdc8"),
    ("estimate", "alpha", "--fisher", "--json"): (
        0, "5d9caf12a9c7edbb46cc11db5fc82d6b22ec6624cb4b4d02879f09a8ffc5c38d"),
    ("estimate", "delta"): (
        0, "c84872da24b49deb4e439040245e5f78572778a1375aebf97bf916b744fa2dd8"),
    ("estimate", "delta", "--json"): (
        0, "e9d9d321f6c838b5a7e323986bd3aec7e67010ad9d1d5af5a551eccea9458a07"),
    ("estimate", "delta", "--fisher"): (
        0, "138fa184905601abbe2b5038d448b3070444c7efc3b5b8ee6147ff83d1013331"),
    ("estimate", "delta", "--fisher", "--json"): (
        0, "f8654ad76941d53761ff821196e4417616eb4cb57200ebfd028af44ab3697481"),
    ("estimate", "omicron"): (
        0, "53bf98920a07aef18099cfd2dbe1bde47863b2095fa694692284882392d4c583"),
    ("estimate", "omicron", "--json"): (
        0, "3693cb1bcf12469c081dd0717681a8a1ff8b4d195ed645c2d1985e0379511baa"),
    ("estimate", "omicron", "--fisher"): (
        0, "11fc74e345966f99beeda0d0504ad6ec64cb821d1ce4f7820b22db097b1b92cd"),
    ("estimate", "omicron", "--fisher", "--json"): (
        0, "185d0088c563a048ad210774851c2f464f9899436c895c91e3745561412e7277"),
    ("crude", "alpha"): (
        0, "32be7d404c7142e4eebb6af667430daa1bd8bcdc22b77229ce57ed87dba46c47"),
    ("crude", "omicron", "--json"): (
        0, "ec0e8022f1ade06fa7b861e55b79e016a69eb729115a5a289fc45af6c5713c2e"),
    ("forecast", "alpha", "--train-through", "8", "--c", "2", "--c", "4", "--json"): (
        0, "9354988c1d3034b6246f4b29a53210233e7f67e05b6579a0ccab05442dd49c25"),
    ("infer-r", "--from-fit", "alpha", "--R", "1.0", "--lambda", "0.2", "--json"): (
        0, "56c52405163624a1a4c8d88ba445dac31ca7ebbdb097ff7ce07de736489b6322"),
    ("multi", "--file", "m3.csv", "--json"): (
        0, "b446fa3fd37f84ca1548c6b827e9aba05180ad0e74c78e77c4c0f2bc5963657f"),
    ("multi", "--file", "m3.csv", "--fisher", "--json"): (
        0, "4b1db7897f3a6ff07676fecb417690bc904a8f34ab8e0819b342d2a25fd8b4ab"),
    ("multi", "--file", "m10.csv", "--json"): (
        0, "83d936f69b50c91142747fa519cf0dfbecede80698d1b7904e284e728844df3e"),
    ("multi", "--file", "m10.csv", "--fisher", "--json"): (
        0, "3ab2b9b7f6db30b7973bb899aeb1d4ce1bd2ac4957ad05b945ed2a3333fc108f"),
}


@pytest.mark.parametrize("argv", list(ARRAY_CALLS), ids=" ".join)
def test_array_commands_print_their_pinned_bytes(tmp_path, monkeypatch, capsys, argv):
    # The multi report's input.path is part of its bytes, so the CSV is read
    # by its relative name.
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *M3_CSV) == run(capsys, *M10_CSV) == (0, "", "")
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (*ARRAY_CALLS[argv], "")


@pytest.mark.parametrize("gen_days", [4.7, 1e-3])
@pytest.mark.parametrize("level", [0.95, 0.9])
@pytest.mark.parametrize("bandwidth", [None, 4])
def test_multi_columns_are_each_variants_interval(tmp_path, monkeypatch, capsys, bandwidth, level,
                                                  gen_days):
    # multi takes all m - 1 intervals from one array call; each is the one
    # interval_for_gamma gives its variant.
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *M10_CSV) == (0, "", "")
    result = variantfit.fit(variantfit.load_multi_csv("m10.csv"))
    variance = variantfit.sandwich(result, bandwidth)
    report, _ = cli.multi_report({}, result, variance, gen_days, level)
    _, _, points, lows, highs = report()["variants"].columns
    want = [variantfit.interval_for_gamma(variance, result, gen_days, level, variant=j)
            for j in range(1, 10)]
    assert [x.hex() for x in points] == [w.gamma.value.hex() for w in want]
    assert [x.hex() for x in lows] == [w.ci_low.hex() for w in want]
    assert [x.hex() for x in highs] == [w.ci_high.hex() for w in want]


@pytest.mark.parametrize("gen_days, kind", [("0", "NonPositivePeriod"),
                                            ("-1", "NonPositivePeriod"),
                                            ("1e300", "OverflowError")])
@pytest.mark.parametrize("fisher", [(), ("--fisher",)], ids=["hac", "fisher"])
def test_multi_refuses_a_generation_it_cannot_scale_to(tmp_path, monkeypatch, capsys, fisher,
                                                       gen_days, kind):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *M10_CSV) == (0, "", "")
    assert_one_error_line(*run(capsys, "multi", "--file", "m10.csv", *fisher,
                               "--gen-days", gen_days), kind=kind)


def test_multi_refuses_an_advantage_that_rounds_to_zero(tmp_path, monkeypatch, capsys):
    # Both variants lose to the numeraire: over 1e5 days each advantage is
    # exp(-3000) or so, 0.0 as a float, which interval_for_gamma refuses too.
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "simulate", "--gamma", "0.8", "--gamma", "0.9", "--lambda0", "0.3",
               "--lambda0", "0.3", "--n", "1000", "--t", "12", "--seed", "2",
               "--out", "m3.csv") == (0, "", "")
    series = variantfit.load_multi_csv("m3.csv")
    result = variantfit.fit(series)
    with pytest.raises(InvalidValue, match=r"^advantage must be positive, got 0\.0$"):
        variantfit.interval_for_gamma(variantfit.sandwich(result, 4), result, 1e5)
    assert run(capsys, "multi", "--file", "m3.csv", "--gen-days", "1e5") == (
        1, "", "error: InvalidValue: advantage must be positive, got 0.0\n")


def test_multi_report_refuses_a_variance_of_another_fit():
    series = simulate(SimConfig((1.3, 1.6), (0.93, 0.05, 0.02), (2000,) * 12, seed=4))
    result, other = variantfit.fit(series), variantfit.fit(series)
    with pytest.raises(InvalidValue, match="^the variance is of another fit$"):
        cli.multi_report({}, result, variantfit.sandwich(other, 4), 4.7, 0.95)


CONTOUR = ("infer-r", "--gamma-gen", "2", "--gamma-ci", "1.8", "2.2", "--contour", "0:1:0.05")
NO_OUTPUT = hashlib.sha256(b"").hexdigest()

# argv -> (exit code, sha256 of stdout, stderr) of the stability contour, as
# the CLI printed them when the contour's rows and CSV text were built in
# the repro layer. Run in-process in an empty directory, as --out's path is
# printed.
CONTOUR_CALLS = {
    CONTOUR: (0, "911e20d20ad9b4c093559b5a8d79b664fb912d3edf6d94b1c78fb182eacbb18d", ""),
    ("infer-r", "--from-fit", "alpha", "--contour", "0:1:0.25"): (
        0, "a00cfc8800c9af8ac07ea683c32b157a92afb70e3301169915fb60a58b3e6f32", ""),
    ("infer-r", "--from-fit", "delta", "--R", "1.1", "--lambda", "0.3", "--contour", "0:1:0.1",
     "--json"): (
        0, "abe2607f1d814de63b44dbf2381aad9f87b3e8b359e04194a7640d85f1d05e34", ""),
    CONTOUR + ("--out", "contour.csv"): (
        0, "2736a002f0e7bf7ca29995bf922b1247c1ea307042fb26e44f00f861696aba31", ""),
    ("infer-r", "--gamma-gen", "1e-320", "--contour", "0:1:0.5"): (
        1, NO_OUTPUT, "error: OverflowError: threshold R at lambda 0 and advantage 9.99989e-321 "
                      "is too large for a float\n"),
    ("infer-r", "--gamma-gen", "2", "--contour", "0:1:0.5", "--out", "missing/contour.csv"): (
        1, NO_OUTPUT, "error: FileNotFoundError: [Errno 2] No such file or directory: "
                      "'missing/contour.csv'\n"),
}


@pytest.mark.parametrize("argv", list(CONTOUR_CALLS), ids=" ".join)
def test_contour_calls_print_their_pinned_bytes(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == CONTOUR_CALLS[argv]


@pytest.mark.parametrize("argv", [CONTOUR, ("infer-r", "--from-fit", "alpha", "--fisher",
                                            "--R", "1.2", "--lambda", "0.4", "--contour",
                                            "0:1:0.01")], ids=" ".join)
def test_contour_out_file_holds_the_text_contour(tmp_path, monkeypatch, capsys, argv):
    # The file is the contour's text lines, as printed without --out, and is
    # written under --json too, whose report does not depend on --out.
    monkeypatch.chdir(tmp_path)
    code, text, _ = run(capsys, *argv)
    lines = text.splitlines(keepends=True)
    contour = "".join(lines[lines.index("lambda,threshold,lo,hi\n"):])
    rows = contour.count("\n") - 1
    assert code == 0 and rows > 1
    out = run(capsys, *argv, "--out", "contour.csv")
    assert out == (0, "".join(lines[:-rows - 1]) + f"wrote {rows} contour rows to contour.csv\n",
                   "")
    assert (tmp_path / "contour.csv").read_bytes() == contour.encode()
    report = run(capsys, *argv, "--json")
    assert run(capsys, *argv, "--json", "--out", "again.csv") == report
    assert (tmp_path / "again.csv").read_bytes() == contour.encode()


@pytest.mark.parametrize("argv", [
    ("infer-r", "--gamma-gen", "2", "--gamma-ci", "1.8", "2.2", "--contour", "0:1:0.5"),
    ("simulate", "--gamma", "1.6", "--lambda0", "0.02", "--n", "50", "--t", "3"),
], ids=lambda argv: argv[0])
def test_an_empty_out_path_is_opened_not_ignored(tmp_path, monkeypatch, capsys, argv):
    # An empty --out is a path that cannot be opened, not a missing option:
    # the call must not fall back to printing what it was to write.
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv, "--out", "") == (
        1, "", "error: FileNotFoundError: [Errno 2] No such file or directory: ''\n")
    assert list(tmp_path.iterdir()) == []
