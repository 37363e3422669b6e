"""Tests of the benchmark itself: python3 -m pytest bench

No test here asserts on a wall-clock time.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import inputs
import oracle
import run
import spans
import workloads
import yardstick

sys.path.insert(0, str(inputs.SRC))
import variantfit  # noqa: E402
import variantfit.cli  # noqa: E402


def cli_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = variantfit.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    inputs.write_inputs("cli-bundled", 7, directory)
    inputs.write_inputs("multi-variant", 7, directory)
    return directory


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = inputs.input_texts(workload, 11)
    assert first == inputs.input_texts(workload, 11)
    if first:
        assert first != inputs.input_texts(workload, 12)


def test_long_series_truth_sweeps_the_share():
    for T in inputs.LONG_T:
        a, b = inputs.long_series_truth(T)
        assert oracle.expit(a + b) == pytest.approx(inputs.SHARE_EDGE)
        assert oracle.expit(a + b * T) == pytest.approx(1 - inputs.SHARE_EDGE)


def test_checker_accepts_reference_outputs(work):
    checker = workloads.Checker(variantfit)
    ops = workloads.cli_bundled_cycle(7, work, 0) + workloads.multi_variant_cycle(7, work, 0)[:2]
    for op in ops:
        if op.kind == "contract":
            continue
        code, out, err = cli_output(op.argv)
        checker.check_cli(op, code, out, err)


def test_checker_rejects_a_perturbed_gamma(work):
    checker = workloads.Checker(variantfit)
    op = workloads.cli_bundled_cycle(7, work, 0)[0]
    assert op.argv[:2] == ("estimate", "alpha")
    _, out, _ = cli_output(op.argv)
    report = json.loads(out)
    report["advantage"]["per_week"]["point"] *= 1.001
    with pytest.raises(oracle.Mismatch):
        checker.check_cli(op, 0, json.dumps(report), "")
    report = json.loads(out)
    report["fit"]["beta"] *= 1.0001  # off the optimum: the score is no longer zero
    with pytest.raises(oracle.Mismatch):
        checker.check_cli(op, 0, json.dumps(report), "")


def test_checker_ignores_added_report_keys(work):
    checker = workloads.Checker(variantfit)
    op = workloads.cli_bundled_cycle(7, work, 0)[0]
    _, out, _ = cli_output(op.argv)
    report = json.loads(out)
    report["diagnostics"] = {"dispersion": 1.5}
    checker.check_cli(op, 0, json.dumps(report), "")


def test_contract_check_and_error_types():
    oracle.check_contract(1, "", "error: UnknownDataset: no such dataset\n")
    traceback = "Traceback (most recent call last):\n  File ...\nValueError: level must lie in (0,1)\n"
    with pytest.raises(oracle.Mismatch):
        oracle.check_contract(1, "", traceback)
    with pytest.raises(oracle.Mismatch):
        oracle.check_contract(0, "", "")
    assert oracle.error_type(traceback) == "ValueError"
    assert oracle.error_type("error: MaxIterations: no convergence\n") == "MaxIterations"


def test_banded_hac_matches_all_pairs_sum_with_gaps():
    rng = np.random.default_rng(0)
    t = np.array([1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0, 11.0])
    scores = rng.normal(size=(len(t), 2))
    for bandwidth in (0, 1, 2, 4):
        want = scores.T @ scores
        for a in range(len(t)):
            for b in range(a + 1, len(t)):
                w = oracle.parzen((t[b] - t[a]) / (bandwidth + 1))
                cross = np.outer(scores[a], scores[b])
                want = want + w * (cross + cross.T)
        np.testing.assert_allclose(oracle.banded_hac(t, scores, bandwidth), want, rtol=1e-12)


def test_multinomial_oracle_with_two_variants_solves_the_binomial_score():
    t = np.arange(1.0, 9.0)
    n = np.full(8, 500.0)
    x = np.array([5, 9, 20, 41, 80, 140, 230, 300], dtype=float)
    theta, _, _ = oracle.multinomial_fit(t, np.column_stack([n - x, x]))
    oracle.check_first_order("m=2", t, n, x, theta[0], theta[1])


def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_with_nested_and_overlapping_children():
    tree = [
        span("cli.main", 0.0, 10.0),
        span("estimate.fit", 1.0, 4.0, 0),
        span("inference.hac_sandwich", 3.0, 6.0, 0),  # overlaps the fit by 1
        span("data.load_csv", 9.0, 12.0, 0),  # runs past its parent's end
        span("estimate.fit", 1.5, 2.0, 1),  # nested one level further down
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_layer_metrics_are_per_op():
    tree = [span("cli.main", 0.0, 0.010), span("estimate.fit", 0.001, 0.004, 0),
            span("cli.main", 0.010, 0.020), span("estimate.fit", 0.011, 0.012, 2)]
    tree[1].iterations = 6
    tree[3].error = "MaxIterations"
    metrics = spans.layer_metrics(tree, ops=2)
    assert metrics["cli.main.ms"] == pytest.approx(10.0)
    assert metrics["cli.self_ms"] == pytest.approx(8.0)
    assert metrics["estimate.fit.calls"] == 1.0
    assert metrics["estimate.fit.iterations"] == 3.0  # 6 iterations of the one successful fit, over 2 ops
    assert metrics["estimate.fit.failed"] == 0.5


def test_tracer_records_parents_errors_and_restores():
    holder = type("Holder", (), {})()
    holder.inner = lambda: 1
    tracer = spans.Tracer()
    tracer.patch(holder, "inner", "estimate.fit")

    def boom():
        holder.inner()
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("cli.main", boom)()
    tracer.restore()
    assert [(s.name, s.parent, s.error) for s in tracer.spans] == [
        ("cli.main", -1, "KeyError"),
        ("estimate.fit", 0, None),
    ]
    assert holder.inner() == 1 and not hasattr(holder.inner, "__wrapped__")


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   encodings\n"
        "import time:      2000 |       2000 |     numpy.core\n"
        "import time:      1000 |       3000 |   numpy\n"
        "import time:      5000 |       5000 |     scipy\n"
        "import time:       400 |       9400 |   variantfit.inference\n"
        "version 0.1.0\n"
    )
    assert spans.parse_importtime(text) == {
        "import.total_ms": 8.5,
        "import.numpy_ms": 3.0,
        "import.scipy_ms": 5.0,
        "import.variantfit_self_ms": 0.4,
    }


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 3)["verdict"] == "no gain: more ops failed"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "REGRESSION"
    assert compare.verdict(parent, parent, "lower", 0.1)["verdict"] == "no change"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "higher", 0.1)["verdict"] == "unresolved"


def test_end_to_end_times_are_scaled_to_the_yardsticks_reference_speed():
    samples = run.Samples()
    for i in range(4):
        samples.add(f"op{i}", run.Outcome(0.1, 0.2, None, 0, "", ""), None)
    # The yardstick took twice its reference time: the machine ran at half speed.
    samples.yardstick_seconds.extend([2 * yardstick.IN_PROCESS_S] * 3)
    samples.yardstick_cpu_seconds.extend([4 * yardstick.IN_PROCESS_S] * 3)
    metrics, extras = run.end_to_end(samples, 1.5, cli=False)
    assert extras["ops_per_s.raw"] == pytest.approx(10.0)
    assert metrics["ops_per_s"] == pytest.approx(20.0)
    assert extras["cpu_ms_per_op.raw"] == pytest.approx(200.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(50.0)
    assert metrics["setup_s"] == 1.5


def test_failures_count_distinct_ops_not_executions():
    samples = run.Samples()
    outcome = run.Outcome(0.1, 0.1, None, 0, "", "")
    for key, failure in (("a", "MaxIterations"), ("b", None), ("a", "MaxIterations"),
                         ("c", None), ("c", "OutputMismatch"), ("b", None)):
        samples.add(key, outcome, failure)
    assert len(samples) == 6
    assert len(samples.outcomes) == 3
    assert samples.failures == {"MaxIterations": 1, "OutputMismatch": 1}


class FakeHarness(run.Harness):
    """The timed loop alone: every op takes one second of op time."""

    def __init__(self, workload):
        self.workload = workload
        self.cycle = lambda index: workloads.CYCLES[workload](0, Path("."), index)

    def execute(self, op, op_id, in_process=False):
        return run.Outcome(1.0, 1.0, None, 0, "", "")

    def judge(self, op, outcome, cycle, samples):
        return None

    def time_yardstick(self):
        return 0.01, 0.01


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_stops_only_after_whole_passes_over_the_distinct_ops(workload):
    per_pass = workloads.PASS_CYCLES[workload]
    ops_per_pass = sum(len(workloads.CYCLES[workload](0, Path("."), i)) for i in range(per_pass))
    for seconds in (1.0, 2.5 * ops_per_pass):
        samples = FakeHarness(workload).timed_pass(seconds)
        assert samples.cycles % per_pass == 0
        assert len(samples.outcomes) == ops_per_pass
        assert len(samples) == ops_per_pass * max(1, int(seconds // ops_per_pass))


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [Path(run.BENCH).name]



def test_pair_report_covers_bounded_and_printed_metrics():
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())

    def result(scale):
        metrics = {m["name"]: {"value": 10.0 * scale, "unit": m["unit"]} for m in spec["end_to_end"]}
        return {"failed": 0, "metrics": metrics, "extras": {"op_ms_p50": 5.0 * scale}}

    results = {"replicates": {"parent": [result(1.0 + i / 100) for i in range(10)],
                              "change": [result(2.0 + i / 100) for i in range(10)]}}
    lines = compare.report(results, spec)
    rows = {line.split()[0]: line for line in lines[2:]}
    assert set(rows) == {m["name"] for m in spec["end_to_end"]} | {"op_ms_p50"}
    assert "REGRESSION" in rows["setup_s"] and "gain" in rows["ops_per_s"]
    assert "REGRESSION" not in rows["op_ms_p50"]
