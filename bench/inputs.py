"""Benchmark inputs, made from the seed and nothing else.

Every series the program reads comes from `variantfit.simulate` and reaches
it as CSV text written here during set-up, so the same seed gives the same
bytes. Run as a script, this module is one timed set-up: it imports
variantfit, writes a workload's inputs into a directory and prints the
elapsed seconds, the SHA-256 of each file and the median time of the
yardstick (bench/yardstick.py) run just after, as one JSON line.

    python3 bench/inputs.py --workload long-series --seed 1 --dir .bench_work/x
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
YARDSTICK_REPEATS = 9  # timings of the yardstick after the set-up; the median scales it

# long-series: daily series whose variant share sweeps from SHARE_EDGE on
# day 1 to 1 - SHARE_EDGE on day T, N = LONG_N sequenced per day.
LONG_T = (365, 1000)
LONG_N = 2000
SHARE_EDGE = 0.0004
LONG_PAIRS = 12  # distinct (T=365, T=1000) pairs; cycles past this reuse them

# multi-variant: (m variants, T weekly periods), MULTI_N sequenced per period.
MULTI_SHAPES = ((3, 100), (3, 500), (10, 100), (10, 500))
MULTI_N = 3000
MULTI_DRAWS = 4  # distinct inputs per shape; one cycle reads one of each shape

# replicates: the recovery-study design of the paper's weekly Alpha series.
REPLICATE_T = 18
REPLICATE_N = 2000
REPLICATE_GAMMA = 1.5
REPLICATE_LAMBDA0 = 0.01
REPLICATE_CYCLES = 250  # distinct cycles of two replications; cycles past this reuse them

# cli-bundled: the small 3-variant CSV for the `multi` command.
SMALL_MULTI = {"gammas": (1.3, 1.6), "initial": (0.93, 0.05, 0.02), "n": 2000, "t": 12}


def long_series_truth(T: int) -> tuple[float, float]:
    """(alpha, beta) of the logistic curve through SHARE_EDGE at t=1 and 1-SHARE_EDGE at t=T."""
    edge = math.log((1.0 - SHARE_EDGE) / SHARE_EDGE)
    beta = 2.0 * edge / (T - 1)
    return -edge - beta, beta


def long_series_csv(seed: int, pair: int, T: int) -> str:
    from variantfit import SimConfig, simulate, to_csv_string

    alpha, beta = long_series_truth(T)
    lam0 = 1.0 / (1.0 + math.exp(-alpha))
    config = SimConfig(
        gammas=(math.exp(beta),),
        initial_proportions=(1.0 - lam0, lam0),
        sequenced=(LONG_N,) * T,
        seed=seed,
        period_days=1.0,
    )
    # Distinct replication streams per (pair, T), so the two lengths of one
    # pair do not share binomial draws.
    return to_csv_string(simulate(config, replication=2 * pair + LONG_T.index(T)))


def multi_csv(seed: int, m: int, T: int, draw: int) -> str:
    import numpy as np
    from variantfit import SimConfig, simulate
    from variantfit.multivariant import to_multi_csv_string

    rng = np.random.default_rng([seed, m, T, draw])
    # Each variant's log-odds against the numeraire moves by at most 3 over
    # the window, from roughly equal starting shares, so no variant vanishes.
    gammas = tuple(float(g) for g in np.exp(rng.uniform(-3.0, 3.0, size=m - 1) / T))
    start = rng.uniform(0.5, 1.5, size=m)
    start = tuple(float(p) for p in start / start.sum())
    config = SimConfig(gammas=gammas, initial_proportions=start, sequenced=(MULTI_N,) * T, seed=seed)
    return to_multi_csv_string(simulate(config, replication=draw))


def small_multi_csv(seed: int) -> str:
    from variantfit import SimConfig, simulate
    from variantfit.multivariant import to_multi_csv_string

    config = SimConfig(
        gammas=SMALL_MULTI["gammas"],
        initial_proportions=SMALL_MULTI["initial"],
        sequenced=(SMALL_MULTI["n"],) * SMALL_MULTI["t"],
        seed=seed,
    )
    return to_multi_csv_string(simulate(config))


def replicate_config(seed: int):
    from variantfit import SimConfig

    return SimConfig(
        gammas=(REPLICATE_GAMMA,),
        initial_proportions=(1.0 - REPLICATE_LAMBDA0, REPLICATE_LAMBDA0),
        sequenced=(REPLICATE_N,) * REPLICATE_T,
        seed=seed,
        period_days=7.0,
    )


def long_series_name(pair: int, T: int) -> str:
    return f"long-{pair:02d}-T{T}.csv"


def multi_name(m: int, T: int, draw: int) -> str:
    return f"multi-m{m}-T{T}-{draw}.csv"


SMALL_MULTI_NAME = "multi3.csv"


def input_texts(workload: str, seed: int) -> dict[str, str]:
    """File name -> CSV text for one workload; empty where nothing is written."""
    if workload == "cli-bundled":
        return {SMALL_MULTI_NAME: small_multi_csv(seed)}
    if workload == "long-series":
        return {
            long_series_name(pair, T): long_series_csv(seed, pair, T)
            for pair in range(LONG_PAIRS)
            for T in LONG_T
        }
    if workload == "multi-variant":
        return {
            multi_name(m, T, draw): multi_csv(seed, m, T, draw)
            for draw in range(MULTI_DRAWS)
            for m, T in MULTI_SHAPES
        }
    if workload == "replicates":
        replicate_config(seed)  # validated here so a bad design fails in set-up
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, str]:
    """Write the workload's inputs; return file name -> SHA-256 of its bytes."""
    digests = {}
    for name, text in input_texts(workload, seed).items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import variantfit  # noqa: F401  (the import is part of the timed set-up)

    digests = write_inputs(args.workload, args.seed, Path(args.dir))
    elapsed = time.perf_counter() - start
    ruler = statistics.median(yardstick.timed()[0] for _ in range(YARDSTICK_REPEATS))
    print(json.dumps({"setup_s": elapsed, "yardstick_s": ruler, "files": digests}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
