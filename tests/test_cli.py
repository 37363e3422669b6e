import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import variantfit
from variantfit.cli import main


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
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,threshold,lo,hi"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.5, 1 / 2.2, 1 / 1.8])


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


def assert_one_invalid_value_line(code, out, err):
    """Exit 1 with one `error:` line on stderr and no traceback."""
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidValue: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "alpha", "--level", "1.5"),
        ("infer-r", "--R", "1.0", "--lambda", "1.5", "--gamma-gen", "2.0"),
    ],
    ids=["estimate-level-1.5", "infer-r-lambda-1.5"],
)
def test_out_of_range_value_is_one_error_line(capsys, argv):
    assert_one_invalid_value_line(*run(capsys, *argv))


@pytest.mark.parametrize(
    "command, text, extra",
    [
        ("estimate", "t,label,sequenced,variant_count,total_cases,tested\n"
         "1,w1,100,10,,\n2,w2,100,30,,\n3,w3,100,60,,\n", ["--period-days", "0"]),
        ("multi", "t,label,count_a,count_b\n1,w1,10,5\n2,w2,5,6\n", ["--period-days", "0"]),
        ("multi", "t,label,count_a,count_b\n1,w1,10,-5\n2,w2,5,6\n", []),
    ],
    ids=["estimate-period-days-0", "multi-period-days-0", "multi-negative-count"],
)
def test_out_of_range_input_is_one_error_line(tmp_path, capsys, command, text, extra):
    path = tmp_path / "input.csv"
    path.write_text(text)
    argv = [str(path)] if command == "estimate" else ["--file", str(path)]
    assert_one_invalid_value_line(*run(capsys, command, *argv, *extra))


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
