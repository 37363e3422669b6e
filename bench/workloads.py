"""The four workloads: what one op is, the ops of each cycle, and how each is checked.

A run repeats whole passes over a workload's distinct ops, a pass being
PASS_CYCLES cycles, so every run of a workload with one seed measures the
same ops in the same mix and meets every one of them. Why each workload
exists is in bench/README.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle

WORKLOADS = ("cli-bundled", "long-series", "multi-variant", "replicates")
BUNDLED = ("alpha", "delta", "omicron")
CONTOUR_GRID = [min(0.05 * i, 1.0) for i in range(21)]


@dataclass(frozen=True)
class Op:
    kind: str  # selects the check
    argv: tuple[str, ...] = ()  # CLI arguments after the program name
    data: str | None = None  # bundled dataset name or CSV path the op reads
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Identifies the op for the determinism check and the oracle cache."""
        return json.dumps([self.kind, self.argv, self.params], sort_keys=True)


def cli_bundled_cycle(seed: int, work: Path, index: int) -> list[Op]:
    ops = [
        Op("estimate", ("estimate", name) + fisher + ("--json",), name,
           {"kind": kind, "period_days": 1.0 if name == "omicron" else 7.0})
        for fisher, kind in (((), "sandwich(4)"), (("--fisher",), "fisher"))
        for name in BUNDLED
    ]
    multi = str(work / inputs.SMALL_MULTI_NAME)
    ops += [
        Op("crude", ("crude", "alpha", "--json"), "alpha"),
        Op("forecast", ("forecast", "alpha", "--train-through", "8", "--c", "2", "--c", "4", "--json"),
           "alpha", {"horizons": 10, "cs": [2.0, 4.0]}),
        Op("infer-fit", ("infer-r", "--from-fit", "alpha", "--R", "1.0", "--lambda", "0.2", "--json"),
           params={"R": 1.0, "lam": 0.2}),
        Op("contour", ("infer-r", "--gamma-gen", "2.0", "--gamma-ci", "1.8", "2.2",
                       "--contour", "0:1:0.05", "--json"), params={"g": 2.0, "lo": 1.8, "hi": 2.2}),
        Op("adjusted-r", ("adjusted-r", "--cases", "8000", "--cases-prev", "4000",
                          "--tested", "600000", "--tested-prev", "300000", "--json"),
           params={"cases": 8000, "cases_prev": 4000, "tested": 600000, "tested_prev": 300000}),
        Op("simulate", ("simulate", "--gamma", "1.6", "--lambda0", "0.02", "--n", "5000",
                        "--t", "12", "--seed", str(seed)), params={"n": 5000, "t": 12}),
        Op("multi", ("multi", "--file", multi, "--json"), multi, {"kind": "sandwich(4)"}),
        # Invalid invocations: the correct outcome is exit 1 with one error line.
        Op("contract", ("estimate", "no-such-dataset", "--json")),
        Op("contract", ("infer-r", "--R", "1.0", "--lambda", "1.5", "--gamma-gen", "2.0", "--json")),
        Op("contract", ("estimate", "alpha", "--level", "1.5", "--json")),
    ]
    return ops


def long_series_cycle(seed: int, work: Path, index: int) -> list[Op]:
    pair = index % inputs.LONG_PAIRS
    ops = []
    for T in inputs.LONG_T:
        path = str(work / inputs.long_series_name(pair, T))
        common = ("--period-days", "1", "--json")
        truth = inputs.long_series_truth(T)[1]
        ops += [
            Op("estimate", ("estimate", path) + common, path,
               {"kind": "sandwich(4)", "period_days": 1.0, "truth_beta": truth}),
            Op("estimate", ("estimate", path, "--fisher") + common, path,
               {"kind": "fisher", "period_days": 1.0, "truth_beta": truth}),
            Op("crude", ("crude", path) + common, path),
            Op("forecast", ("forecast", path, "--train-through", str(T - 30), "--horizons", "30") + common,
               path, {"horizons": 30, "cs": [2.0]}),
        ]
    return ops


def multi_variant_cycle(seed: int, work: Path, index: int) -> list[Op]:
    ops = []
    for m, T in inputs.MULTI_SHAPES:
        path = str(work / inputs.multi_name(m, T, index % inputs.MULTI_DRAWS))
        ops.append(Op("multi", ("multi", "--file", path, "--json"), path, {"kind": "sandwich(4)"}))
        ops.append(Op("multi", ("multi", "--file", path, "--fisher", "--json"), path, {"kind": "fisher"}))
    return ops


def replicates_cycle(seed: int, work: Path, index: int) -> list[Op]:
    first = 2 * (index % inputs.REPLICATE_CYCLES)
    return [
        Op("replicate", params={"replication": first, "kind": "fisher"}),
        Op("replicate", params={"replication": first + 1, "kind": "sandwich(4)"}),
    ]


CYCLES = {
    "cli-bundled": cli_bundled_cycle,
    "long-series": long_series_cycle,
    "multi-variant": multi_variant_cycle,
    "replicates": replicates_cycle,
}
# Cycles in one pass over a workload's distinct ops.
PASS_CYCLES = {
    "cli-bundled": 1,
    "long-series": inputs.LONG_PAIRS,
    "multi-variant": inputs.MULTI_DRAWS,
    "replicates": inputs.REPLICATE_CYCLES,
}


def run_replicate(api, config, op: Op):
    """One replicate as `recovery_report` runs it: simulate, fit, variance, interval."""
    series = api.simulate(config, replication=op.params["replication"])
    result = api.fit(series)
    if op.params["kind"] == "fisher":
        variance = api.fisher_information(series, result)
    else:
        variance = api.hac_sandwich(series, result, 4)
    return series, result, variance, api.interval_for_gamma(variance, result, 7.0)


class Checker:
    """Checks op outputs; caches parsed inputs and multinomial oracle fits."""

    def __init__(self, variantfit):
        self.variantfit = variantfit
        self._data = {}
        self._multi = {}

    def series(self, source: str):
        if source not in self._data:
            if source in BUNDLED:
                text = self.variantfit.to_csv_string(self.variantfit.load_bundled(source))
            else:
                text = Path(source).read_text(encoding="utf-8")
            self._data[source] = oracle.parse_series_csv(text)
        return self._data[source]

    def multi(self, path: str):
        if path not in self._multi:
            t, counts, names = oracle.parse_multi_csv(Path(path).read_text(encoding="utf-8"))
            self._multi[path] = (t, counts, names, oracle.multinomial_fit(t, counts))
        return self._multi[path]

    def check_cli(self, op: Op, code, stdout: str, stderr: str) -> None:
        """Raise oracle.Mismatch unless a CLI op's output is correct."""
        if op.kind == "contract":
            oracle.check_contract(code, stdout, stderr)
            return
        if code != 0:
            raise oracle.Mismatch(f"exit {code}")
        if op.kind == "simulate":
            oracle.check_simulated_csv(stdout, op.params["n"], op.params["t"])
            return
        report = json.loads(stdout)
        p = op.params
        if op.kind == "estimate":
            published = oracle.PUBLISHED.get((op.data, p["kind"]), ())
            oracle.check_estimate(report, self.series(op.data), p["period_days"], p["kind"],
                                  published, p.get("truth_beta"))
        elif op.kind == "crude":
            oracle.check_crude(report, self.series(op.data), oracle.PUBLISHED_CRUDE_MEAN.get(op.data))
        elif op.kind == "forecast":
            oracle.check_forecast(report, self.series(op.data), p["horizons"], p["cs"])
        elif op.kind == "infer-fit":
            oracle.check_infer_from_fit(report, p["R"], p["lam"])
        elif op.kind == "contour":
            oracle.check_contour(report, p["g"], p["lo"], p["hi"], CONTOUR_GRID)
        elif op.kind == "adjusted-r":
            oracle.check_adjusted_r(report, p["cases"], p["cases_prev"], p["tested"], p["tested_prev"])
        elif op.kind == "multi":
            t, counts, names, fitted = self.multi(op.data)
            oracle.check_multi(report, t, counts, names, p["kind"], fitted)
        else:
            raise ValueError(f"no check for op kind {op.kind!r}")

    def check_replicate(self, op: Op, output) -> None:
        series, result, variance, estimate = output
        t, n, x = oracle.parse_series_csv(self.variantfit.to_csv_string(series))
        if len(t) != inputs.REPLICATE_T or not (n == inputs.REPLICATE_N).all():
            raise oracle.Mismatch("simulated design differs from the configuration")
        a, b = result.params.alpha, result.params.beta
        oracle.check_first_order("replicate fit", t, n, x, a, b)
        cov = oracle.binomial_covariance(t, n, x, a, b, op.params["kind"])
        oracle.check_matrix("replicate covariance", variance.matrix, cov)
        se = cov[1, 1] ** 0.5
        oracle.close("replicate gamma", estimate.gamma.value, math.exp(b))
        oracle.close("replicate ci_low", estimate.ci_low, math.exp(b - oracle.Z95 * se))
        oracle.close("replicate ci_high", estimate.ci_high, math.exp(b + oracle.Z95 * se))

