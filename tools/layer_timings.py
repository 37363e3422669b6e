"""Time each layer of one fit at every grid point of T periods x m variants.

    python tools/layer_timings.py                              # the full grid
    python tools/layer_timings.py --periods 18 --variants 2 3  # two points

At each point a seeded simulated series with 3 000 sequenced cases per
period is written as CSV to a temporary directory. Then each stage runs
--repeats times and its median wall time (time.perf_counter) is reported:

- simulate_ms: `simulate` of the point's configuration, the share path and
  the draw of all counts, as the benchmark's inputs and replicates make them
- load_ms: read the CSV, with load_csv for m = 2 and load_multi_csv
  otherwise, as the CLI does
- fit_ms: `fit` of the loaded series, the damped Newton iteration; the
  fitted shares are worked out on first use, not here
- fisher_ms, hac4_ms: the variance step from the fit's own scores and
  information, Fisher and HAC with bandwidth 4;
  hac4_ms is null, with the error in hac4_error, where the sandwich is not
  identified (T = 18 periods cannot identify 18 parameters at m = 10)
- report_ms: the JSON run report of the fit, built by the `multi` command's
  report builder and formatted as `multi --json` does
- crude_ms, crude_report_ms: at m = 2 only (null otherwise), crude_gammas of
  the loaded series and its run report formatted as `crude --json` does

Start-up is timed apart from the grid, as `startup_ms`: the median wall time
of --repeats whole `python -m variantfit.cli` processes for each of
`--version`, `adjusted-r ...` and `estimate alpha --json`, that is
interpreter start, imports and the command. The first two load no numpy.
`startup_cpu_ms` beside it is the median CPU time (user + system) of the
same processes, from the change in resource.getrusage(RUSAGE_CHILDREN)
across each one. CPU above wall time means the process ran threads.

The result is one JSON object on stdout. Nothing is asserted about the
times: the script measures, it does not gate. Warm file cache only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from variantfit import cli  # noqa: E402
from variantfit.data import load_csv, to_csv_string  # noqa: E402
from variantfit.errors import VariantFitError  # noqa: E402
from variantfit.estimate import fit  # noqa: E402
from variantfit.inference import sandwich  # noqa: E402
from variantfit.multivariant import load_multi_csv, to_multi_csv_string  # noqa: E402
from variantfit.simulate import SimConfig, simulate  # noqa: E402

PERIODS = (18, 100, 1_000, 10_000)
VARIANTS = (2, 3, 10)
SEQUENCED = 3_000
DIGEST = {"path": "series.csv"}
STARTUP_ARGV = (
    ("--version",),
    ("adjusted-r", "--cases", "8000", "--cases-prev", "4000",
     "--tested", "600000", "--tested-prev", "300000", "--json"),
    ("estimate", "alpha", "--json"),
)


def sim_config(T: int, m: int, seed: int) -> SimConfig:
    rng = np.random.default_rng([seed, m, T])
    # Each log-odds against the numeraire moves by at most 3 over the window,
    # from roughly equal shares, so no variant vanishes at any T.
    gammas = tuple(float(g) for g in np.exp(rng.uniform(-3.0, 3.0, size=m - 1) / T))
    start = rng.uniform(0.5, 1.5, size=m)
    return SimConfig(
        gammas=gammas,
        initial_proportions=tuple(float(p) for p in start / start.sum()),
        sequenced=(SEQUENCED,) * T,
        seed=seed,
    )


def median_ms(stage, repeats: int):
    """Median wall time of `repeats` calls in ms, and the last call's result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = stage()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), result


def json_report(report, lines) -> str:
    """The run report as --json prints it, without the final newline."""
    return cli.json_text(report())


def startup_ms(repeats: int) -> tuple[dict, dict]:
    """Median wall and CPU time in ms of a whole CLI process, each as a dict
    keyed by the argv of STARTUP_ARGV."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    wall, cpu = {}, {}
    for argv in STARTUP_ARGV:
        walls, cpus = [], []
        for _ in range(repeats):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "variantfit.cli", *argv], env=env,
                           stdout=subprocess.DEVNULL, check=True)
            walls.append(time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpus.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
        key = " ".join(argv)
        wall[key], cpu[key] = 1e3 * statistics.median(walls), 1e3 * statistics.median(cpus)
    return wall, cpu


def time_point(T: int, m: int, seed: int, repeats: int, directory: Path) -> dict:
    config = sim_config(T, m, seed)
    simulate_ms, simulated = median_ms(lambda: simulate(config), repeats)
    path = directory / f"series-T{T}-m{m}.csv"
    text = to_csv_string(simulated) if m == 2 else to_multi_csv_string(simulated)
    path.write_text(text, encoding="utf-8")
    load = load_csv if m == 2 else load_multi_csv
    load_ms, series = median_ms(lambda: load(str(path)), repeats)
    fit_ms, result = median_ms(lambda: fit(series), repeats)
    fisher_ms, fisher = median_ms(lambda: sandwich(result, None), repeats)
    point = {"T": T, "m": m, "iterations": result.iterations, "simulate_ms": simulate_ms,
             "load_ms": load_ms, "fit_ms": fit_ms, "fisher_ms": fisher_ms}
    try:
        point["hac4_ms"], _ = median_ms(lambda: sandwich(result, 4), repeats)
    except VariantFitError as exc:
        # No more periods with counts than the 2(m - 1) parameters.
        point["hac4_ms"], point["hac4_error"] = None, f"{type(exc).__name__}: {exc}"
    point["report_ms"], _ = median_ms(lambda: json_report(*cli.multi_report(
        DIGEST, result, fisher, cli.GENERATION_DAYS, 0.95)), repeats)
    point["crude_ms"] = point["crude_report_ms"] = None
    if m == 2:
        point["crude_ms"], measures = median_ms(lambda: cli.crude_gammas(series), repeats)
        point["crude_report_ms"], _ = median_ms(lambda: json_report(*cli.crude_report(
            DIGEST, series, measures, 0.95)), repeats)
    return point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--periods", type=int, nargs="+", default=PERIODS)
    parser.add_argument("--variants", type=int, nargs="+", default=VARIANTS)
    parser.add_argument("--repeats", type=int, default=7, help="calls per stage (default 7)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        points = [time_point(T, m, args.seed, args.repeats, Path(tmp))
                  for m in args.variants for T in args.periods]
    wall, cpu = startup_ms(args.repeats)
    print(json.dumps({
        "statistic": f"median of {args.repeats} calls, ms",
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "startup_ms": wall,
        "startup_cpu_ms": cpu,
        "points": points,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
