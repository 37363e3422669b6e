"""Time each layer of one fit at every grid point of T periods x m variants.

    python tools/layer_timings.py                              # the full grid
    python tools/layer_timings.py --periods 18 --variants 2 3  # two points

At each point a seeded simulated series with 3 000 sequenced cases per
period is written as CSV to a temporary directory. Then the stages run
--repeats times, interleaved: each repeat runs every stage once, in the
order below, each on what the stages before it gave in that repeat. So a
drift in the machine's speed is spread over every stage rather than landing
on one. Each stage's median wall time (time.perf_counter) is reported as
`<stage>_ms` and its minimum beside it as `<stage>_min_ms`:

- simulate_ms: `simulate` of the point's configuration, the share path and
  the draw of all counts, as the benchmark's inputs and replicates make them
- load_ms: read the CSV, with load_csv for m = 2 and load_multi_csv
  otherwise, as the CLI does
- select_ms: `series.select(periods=slice(0, T - 1))` of the loaded series,
  a window of all but the last period, as `forecast --train-through` makes
- fit_ms: `fit` of the loaded series, the damped Newton iteration; the
  fitted shares are worked out on first use, not here
- fisher_ms, hac4_ms: the variance step from the fit's own scores and
  information, Fisher and HAC with bandwidth 4;
  hac4_ms and hac4_min_ms are null, with the error in hac4_error, where the
  sandwich is not identified (T = 18 periods cannot identify 18 parameters
  at m = 10)
- report_ms: the JSON run report of the fit, built by the `multi` command's
  report builder and formatted as `multi --json` does
- crude_ms, crude_report_ms: at m = 2 only (null otherwise, as are their
  minima), crude_gammas of the loaded series and its run report formatted
  as `crude --json` does
- forecast_ms: at m = 2 only (null otherwise, as is its minimum),
  `forecast` of the fit with its Fisher variance over the 10 periods after
  the series at c = 2, the `forecast` command's defaults

Start-up is timed apart from the grid, as `startup_ms`: the median wall time
of --repeats whole `python -m variantfit.cli` processes for each of
`--version`, `adjusted-r ...` and `estimate alpha --json`, that is
interpreter start, imports and the command. The first two load no numpy.
`startup_cpu_ms` beside it is the median CPU time (user + system) of the
same processes, from the change in resource.getrusage(RUSAGE_CHILDREN)
across each one. CPU above wall time means the process ran threads.

Before numpy loads, each of `cli.BLAS_THREAD_VARIABLES` that is not set
is set to 1, as `cli.main` does for a CLI process, so that every stage runs
on one BLAS thread as the CLI does; a count exported beforehand is kept.
Otherwise OpenBLAS starts a thread pool, and `fit`'s least-squares start
times its idle threads' wake-up: on a 2-core VM, `fit_ms` at T = 1 000,
m = 10 read 15.7-16.2 ms with the pool and 2.0-3.0 ms on one thread.

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

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from variantfit import cli  # noqa: E402  (loads no numpy)

for name in cli.BLAS_THREAD_VARIABLES:
    os.environ.setdefault(name, "1")

import numpy as np  # noqa: E402
from variantfit.data import load_csv, to_csv_string  # noqa: E402
from variantfit.errors import VariantFitError  # noqa: E402
from variantfit.estimate import fit  # noqa: E402
from variantfit.inference import forecast, sandwich  # noqa: E402
from variantfit.multivariant import load_multi_csv, to_multi_csv_string  # noqa: E402
from variantfit.simulation import SimConfig, simulate  # noqa: E402

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
    path = directory / f"series-T{T}-m{m}.csv"
    simulated = simulate(config)
    path.write_text(to_csv_string(simulated) if m == 2 else to_multi_csv_string(simulated),
                    encoding="utf-8")
    load = load_csv if m == 2 else load_multi_csv
    got = {}  # each stage's result in the current repeat
    stages = {
        "simulate": lambda: simulate(config),
        "load": lambda: load(str(path)),
        "select": lambda: got["load"].select(periods=slice(0, T - 1)),
        "fit": lambda: fit(got["load"]),
        "fisher": lambda: sandwich(got["fit"], None),
        "hac4": lambda: sandwich(got["fit"], 4),
        "report": lambda: json_report(*cli.multi_report(
            DIGEST, got["fit"], got["fisher"], cli.GENERATION_DAYS, 0.95)),
    }
    if m == 2:
        stages |= {
            "crude": lambda: cli.crude_gammas(got["load"]),
            "crude_report": lambda: json_report(*cli.crude_report(
                DIGEST, got["load"], got["crude"], 0.95)),
            "forecast": lambda: forecast(got["fit"], got["fisher"], range(T + 1, T + 11), 2.0),
        }
    point = {"T": T, "m": m}
    times = {name: [] for name in stages}
    for _ in range(repeats):
        for name, stage in list(stages.items()):
            start = time.perf_counter()
            try:
                got[name] = stage()
            except VariantFitError as exc:
                if name != "hac4":
                    raise
                # No more periods with counts than the 2(m - 1) parameters.
                point["hac4_error"] = f"{type(exc).__name__}: {exc}"
                del stages[name], times[name]
                continue
            times[name].append(time.perf_counter() - start)
    point["iterations"] = got["fit"].iterations
    for name in ("simulate", "load", "select", "fit", "fisher", "hac4", "report", "crude",
                 "crude_report", "forecast"):
        spent = times.get(name)
        point[f"{name}_ms"] = 1e3 * statistics.median(spent) if spent else None
        point[f"{name}_min_ms"] = 1e3 * min(spent) if spent else None
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
        "statistic": f"median and minimum of {args.repeats} interleaved calls, ms",
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
