"""variantfit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload long-series --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from `src/` beside this
directory. One process, closed loop, one client, at most one child
process at a time. With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it runs the same ops again with layer spans and prints
the per-layer metrics. The last line of stdout is the result as JSON;
`--out FILE` also writes it with provenance and every extra figure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import inputs
import oracle
import spans
import workloads
import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # setup_s is the median of this many fresh set-ups
PROBE_REPEATS = 3  # import and interpreter-start figures are medians too
YARDSTICK_EVERY_S = 0.25  # op time between two timings of the yardstick

END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in spans.LAYERS for kind, unit in (("ms", "ms/op"), ("calls", "calls/op"))},
    "cli.self_ms": "ms/op",
    "estimate.fit.iterations": "count/op",
    "estimate.fit.failed": "count/op",
    "trace.overhead_share": "share",
    "import.total_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "import.variantfit_self_ms": "ms",
    "interp.start_ms": "ms",
}
P90_MIN_OPS = 100  # a p90 needs ten samples beyond it
MAX_MISMATCHES = 20
COLD_CACHE_NOTE = (
    "warm file cache only: the benchmark may not drop the file cache, "
    "so cold-cache start-up is not measured"
)


@dataclass
class Outcome:
    seconds: float
    cpu_seconds: float
    rss_mb: float | None  # of the child process, for CLI ops
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None  # exception type when the op raised in-process
    output: object = None  # a replicate's results


class Samples:
    """Per-op figures of one pass, kept compact so the harness's own memory
    does not grow with the program's throughput.

    Failures are counted per distinct op, not per execution: every run
    meets each of a seed's distinct ops, however many times it repeats
    them, so the counts depend on the seed and the program, not on the
    machine's speed. An op fails if any of its executions fails.
    """

    def __init__(self):
        self.seconds = array("d")
        self.cpu_seconds = array("d")
        self.child_rss_mb = 0.0
        self.yardstick_seconds = array("d")  # wall and CPU of each timing of the yardstick
        self.yardstick_cpu_seconds = array("d")
        self.outcomes: dict[str, str | None] = {}  # op key -> its first failure type, or None
        self.mismatches: list[str] = []  # the first MAX_MISMATCHES, for the report
        self.mismatch_count = 0
        self.cycles = 0

    def __len__(self) -> int:
        return len(self.seconds)

    @property
    def failures(self) -> Counter[str]:
        """Failure type -> distinct ops that failed with it."""
        return Counter(f for f in self.outcomes.values() if f is not None)

    def add(self, key: str, outcome: Outcome, failure: str | None) -> None:
        self.seconds.append(outcome.seconds)
        self.cpu_seconds.append(outcome.cpu_seconds)
        self.child_rss_mb = max(self.child_rss_mb, outcome.rss_mb or 0.0)
        if self.outcomes.get(key) is None:
            self.outcomes[key] = failure

    def mismatch(self, text: str) -> None:
        self.mismatch_count += 1
        if len(self.mismatches) < MAX_MISMATCHES:
            self.mismatches.append(text)


def run_child(cmd, cwd: Path, work: Path) -> Outcome:
    """Run one child to completion; its CPU time and peak RSS come from wait4."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        seconds=seconds,
        cpu_seconds=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_in_process(fn) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error, output = None, None, None
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            output = fn()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that raises is a failed op, not a harness error
        error = type(exc).__name__
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu
    if isinstance(output, int):
        code, output = output, None
    return Outcome(seconds, cpu, None, code, out.getvalue(), err.getvalue(), error, output)


class SetUps:
    """Fresh set-ups, each one a new interpreter; the files they write must agree.

    The first writes the inputs before any op runs. The rest are spread
    over the timed pass, between cycles, so that the median samples the
    machine's speed across the run rather than in one phase of it. Each
    set-up times the yardstick after its work and is scaled by that time.
    """

    def __init__(self, workload: str, seed: int, work: Path, seconds: float):
        self.cmd = [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
                    "--seed", str(seed), "--dir", str(work)]
        self.work = work
        self.times: list[float] = []  # each set-up's time at the yardstick's reference speed
        self.raw_times: list[float] = []  # as measured
        self.digests = None
        self.due = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
        self.run()

    def run(self) -> None:
        child = run_child(self.cmd, ROOT, self.work)
        if child.code != 0:
            raise RuntimeError(f"set-up failed:\n{child.stderr}")
        result = json.loads(child.stdout.splitlines()[-1])
        if self.digests is not None and result["files"] != self.digests:
            raise RuntimeError("set-up wrote different bytes for the same seed")
        self.digests = result["files"]
        self.times.append(result["setup_s"] * yardstick.IN_PROCESS_S / result["yardstick_s"])
        self.raw_times.append(result["setup_s"])

    def between_cycles(self, elapsed: float) -> None:
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.run()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:  # a run shorter than planned
            self.run()
        return statistics.median(self.times)


class Harness:
    def __init__(self, workload: str, seed: int, work: Path):
        sys.path.insert(0, str(SRC))
        import variantfit
        import variantfit.cli

        self.workload, self.work = workload, work
        self.cli = variantfit.cli
        self.checker = workloads.Checker(variantfit)
        self.cycle = lambda index: workloads.CYCLES[workload](seed, work, index)
        self.api = types.SimpleNamespace(
            simulate=variantfit.simulate,
            fit=variantfit.fit,
            fisher_information=variantfit.fisher_information,
            hac_sandwich=variantfit.hac_sandwich,
            interval_for_gamma=variantfit.interval_for_gamma,
        )
        self.replicate_config = inputs.replicate_config(seed)
        self.tracer: spans.Tracer | None = None
        self.reference: dict[str, str] = {}

    # --- executing ops ---------------------------------------------------

    def execute(self, op: workloads.Op, op_id: int, in_process: bool = False) -> Outcome:
        tracer = self.tracer
        if tracer is not None:
            tracer.op = op_id
        if self.workload == "replicates":
            return run_in_process(lambda: workloads.run_replicate(self.api, self.replicate_config, op))
        if self.workload == "cli-bundled" and not in_process:
            if tracer is None:
                return run_child([sys.executable, "-m", "variantfit.cli", *op.argv], SRC, self.work)
            spans_path = self.work / "spans.json"
            outcome = run_child([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
                                 str(op_id), "--", *op.argv], SRC, self.work)
            offset = len(tracer.spans)
            for row in json.loads(spans_path.read_text()):
                if row["parent"] >= 0:
                    row["parent"] += offset
                tracer.spans.append(spans.Span(**row))
            return outcome
        main = self.cli.main if tracer is None else tracer.wrap("cli.main", self.cli.main)
        return run_in_process(lambda: main(list(op.argv)))

    def time_yardstick(self) -> tuple[float, float]:
        """Wall and CPU seconds of the yardstick, in the form that matches the ops."""
        if self.workload == "cli-bundled":
            child = run_child([sys.executable, str(BENCH / "yardstick.py")], ROOT, self.work)
            return child.seconds, child.cpu_seconds
        return yardstick.timed()

    def fingerprint(self, outcome: Outcome) -> str:
        if self.workload == "replicates":
            if outcome.output is None:
                return f"raised {outcome.error}"
            series, result, variance, estimate = outcome.output
            return repr((self.checker.variantfit.to_csv_string(series), result.params.alpha,
                         result.params.beta, variance.matrix.tolist(),
                         estimate.gamma.value, estimate.ci_low, estimate.ci_high))
        return outcome.stdout

    def judge(self, op: workloads.Op, outcome: Outcome, cycle: int, samples: Samples) -> str | None:
        """The failure type of an op, or None when its output is correct."""
        if outcome.error is not None:
            return outcome.error
        stderr_error = oracle.error_type(outcome.stderr)
        if "Traceback" in outcome.stderr:
            return stderr_error
        if op.kind != "contract" and outcome.code not in (0, None):
            return stderr_error or f"Exit{outcome.code}"
        try:
            if self.workload == "replicates":
                self.checker.check_replicate(op, outcome.output)
            else:
                self.checker.check_cli(op, outcome.code, outcome.stdout, outcome.stderr)
        except oracle.Mismatch as exc:
            if op.kind == "contract":
                return "ContractViolation"
            samples.mismatch(f"{' '.join(op.argv) or op.params}: {exc}")
            return "OutputMismatch"
        if cycle == 0 and self.reference.get(op.key) != self.fingerprint(outcome):
            samples.mismatch(f"{' '.join(op.argv) or op.params}: output differs from a repeat")
            return "NondeterministicOutput"
        return None

    # --- passes ------------------------------------------------------------

    def reference_pass(self) -> None:
        """Cycle 0 in-process and untimed: warms up and keeps the bytes to compare."""
        for op in self.cycle(0):
            self.reference[op.key] = self.fingerprint(self.execute(op, -1, in_process=True))

    def timed_pass(self, seconds: float, cycles: int | None = None, between=None) -> Samples:
        """Whole passes over the distinct ops, at least one: until the next
        would pass `seconds` of op time. Or exactly `cycles` cycles.

        `between(elapsed)` runs after each cycle, outside the timed ops. The
        yardstick is timed before the first op and then after every
        YARDSTICK_EVERY_S of op time, also outside the timed ops.
        """
        per_pass = workloads.PASS_CYCLES[self.workload]
        samples, elapsed, since = Samples(), 0.0, YARDSTICK_EVERY_S
        pass_start, last_pass = 0.0, 0.0
        while (samples.cycles < cycles) if cycles is not None else (
            samples.cycles == 0 or samples.cycles % per_pass or elapsed + last_pass <= seconds
        ):
            last = 0.0
            for op in self.cycle(samples.cycles):
                if since >= YARDSTICK_EVERY_S:
                    wall, cpu = self.time_yardstick()
                    samples.yardstick_seconds.append(wall)
                    samples.yardstick_cpu_seconds.append(cpu)
                    since = 0.0
                outcome = self.execute(op, len(samples))
                samples.add(op.key, outcome, self.judge(op, outcome, samples.cycles, samples))
                last += outcome.seconds
                since += outcome.seconds
            elapsed += last
            samples.cycles += 1
            if samples.cycles % per_pass == 0:
                pass_start, last_pass = elapsed, elapsed - pass_start
            if between is not None:
                between(elapsed)
        return samples

    def traced_pass(self, cycles: int) -> tuple[Samples, spans.Tracer]:
        self.tracer = spans.Tracer()
        if self.workload == "replicates":
            for layer, name in spans.CLI_BINDINGS.items():
                if hasattr(self.api, name):
                    self.tracer.patch(self.api, name, layer)
        elif self.workload != "cli-bundled":
            self.tracer.patch_cli(self.cli)
        try:
            samples = self.timed_pass(0.0, cycles)
        finally:
            self.tracer.restore()
        tracer, self.tracer = self.tracer, None
        return samples, tracer

    def import_probes(self) -> dict[str, float]:
        rows = [
            spans.parse_importtime(run_child(
                [sys.executable, "-X", "importtime", "-m", "variantfit.cli", "--version"], SRC, self.work,
            ).stderr)
            for _ in range(PROBE_REPEATS)
        ]
        metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        metrics["interp.start_ms"] = 1e3 * statistics.median(
            run_child([sys.executable, "-c", "pass"], SRC, self.work).seconds for _ in range(PROBE_REPEATS)
        )
        return metrics


def end_to_end(samples: Samples, setup_s: float, cli: bool) -> tuple[dict, dict]:
    """The end-to-end metrics, and the latency percentiles and raw figures as extras.

    The metrics in BENCHMARK.json are time averages over the run, scaled to
    the yardstick's reference speed: each time is multiplied by the
    yardstick's reference time (a constant) over its mean time in this run,
    wall for wall and CPU for CPU. `setup_s` arrives scaled already. The
    percentiles and the `.raw` extras are as measured.
    """
    times = sorted(samples.seconds)
    ref, ref_cpu = (yardstick.CHILD_S, yardstick.CHILD_CPU_S) if cli else (yardstick.IN_PROCESS_S,) * 2
    wall_scale = ref / statistics.mean(samples.yardstick_seconds)
    cpu_scale = ref_cpu / statistics.mean(samples.yardstick_cpu_seconds)
    rss = samples.child_rss_mb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_per_s = len(times) / sum(times)
    cpu_ms_per_op = 1e3 * sum(samples.cpu_seconds) / len(times)
    metrics = {
        "ops_per_s": ops_per_s / wall_scale,
        "cpu_ms_per_op": cpu_ms_per_op * cpu_scale,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    extras = {
        "op_ms_p50": 1e3 * statistics.median(times),
        **({"op_ms_p90": 1e3 * times[int(0.9 * len(times)) - 1]} if len(times) >= P90_MIN_OPS else {}),
        "ops_per_s.raw": ops_per_s,
        "cpu_ms_per_op.raw": cpu_ms_per_op,
        "yardstick_ms": 1e3 * statistics.mean(samples.yardstick_seconds),
        "yardstick_cpu_ms": 1e3 * statistics.mean(samples.yardstick_cpu_seconds),
    }
    return metrics, extras


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only a repository rooted at this checkout describes it.
    top = git("rev-parse", "--show-toplevel")
    sha = git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cache": COLD_CACHE_NOTE,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with provenance, to this file")
    args = parser.parse_args(argv)
    if not (SRC / "variantfit" / "__init__.py").is_file():
        print(f"error: no variantfit sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setups = SetUps(args.workload, args.seed, work, args.seconds)
        harness = Harness(args.workload, args.seed, work)
        harness.reference_pass()
        samples = harness.timed_pass(args.seconds, between=setups.between_cycles)
        metrics, extras = end_to_end(samples, setups.median(), args.workload == "cli-bundled")
        extras["setup_s.raw"] = statistics.median(setups.raw_times)
        if args.trace:
            traced, tracer = harness.traced_pass(samples.cycles)
            metrics = spans.layer_metrics(tracer.spans, len(traced))
            # Median over ops of traced / untraced time of the same op.
            metrics["trace.overhead_share"] = statistics.median(
                t / u for t, u in zip(traced.seconds, samples.seconds)
            ) - 1.0
            metrics.update(harness.import_probes())
            traced.mismatches[:0] = samples.mismatches
            traced.mismatch_count += samples.mismatch_count
            samples = traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's files are still there

    units = PER_LAYER if args.trace else END_TO_END
    failed = sum(samples.failures.values())
    extras.update({
        "ops": len(samples),
        "distinct_ops": len(samples.outcomes),
        "cycles": samples.cycles,
        "measured_s": sum(samples.seconds),
        "failed_share": failed / len(samples.outcomes),
        **{f"failed.{name}": count for name, count in sorted(samples.failures.items())},
    })
    mismatches = samples.mismatches
    result = {
        "correct": samples.mismatch_count == 0,
        "attempted": len(samples.outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    print(f"# variantfit benchmark: {json.dumps(info, sort_keys=True)}")
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    for name, value in extras.items():
        print(f"{name:32s} {value:14.6g}")
    for line in mismatches:
        print(f"# mismatch: {line}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"provenance": info, "extras": extras, "mismatches": mismatches, **result}, indent=2,
        ) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
